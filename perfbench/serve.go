package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"c2knn"
	"c2knn/internal/server"
	"c2knn/internal/sets"
)

// daemon is the serving daemon under test: a server.Server on an
// http.Server listening on loopback inside this process.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	done chan error
	base string
}

// startDaemon serves ix under cfg. In traced runs every request that
// carries an X-Request-ID gets a handler span.
func (r *run) startDaemon(ix *c2knn.Index, cfg server.Config) (*daemon, error) {
	srv, err := server.New(ix, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if r.tr != nil {
		h = traceHandler(r.tr, h)
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the daemon down, waits for its serving goroutine, and
// closes the index it was serving.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Index().Close()
	transport.CloseIdleConnections()
	return err
}

// transport is shared by every caller; each caller holds one
// connection at a time because it waits for each reply.
var transport = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}

// client is one closed-loop caller: it sends a request and waits for
// the reply before sending the next.
type client struct {
	base string
	buf  bytes.Buffer
}

// do sends one request and returns the status and the body, which is
// valid until the next call.
func (c *client) do(method, path string, body []byte, rid string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := transport.RoundTrip(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func recommendPath(u int32) string {
	return "/v1/recommend?user=" + strconv.Itoa(int(u)) + "&n=" + strconv.Itoa(recN)
}

// read fetches u's recommendations, returning the body of a 200 reply.
func (c *client) read(u int32, rid string) ([]byte, error) {
	status, body, err := c.do(http.MethodGet, recommendPath(u), nil, rid)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	return body, err
}

// upsertAck is the daemon's acknowledgement of one upsert.
type upsertAck struct {
	User    int32  `json:"user"`
	Seq     uint64 `json:"seq"`
	Created bool   `json:"created"`
}

// write sends one upsert and checks its acknowledgement: an insert must
// create a user, a merge must land on the user it named.
func (c *client) write(o op, rid string) (upsertAck, error) {
	body := []byte(`{`)
	if o.user >= 0 {
		body = append(body, `"user":`...)
		body = strconv.AppendInt(body, int64(o.user), 10)
		body = append(body, ',')
	}
	body = append(body, `"items":[`...)
	for i, it := range o.items {
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendInt(body, int64(it), 10)
	}
	body = append(body, "]}"...)
	status, resp, err := c.do(http.MethodPost, "/v1/upsert", body, rid)
	var ack upsertAck
	switch {
	case err != nil:
	case status != http.StatusOK:
		err = fmt.Errorf("upsert status %d: %s", status, resp)
	case json.Unmarshal(resp, &ack) != nil:
		err = fmt.Errorf("upsert reply %q is not an acknowledgement", resp)
	case ack.Created != (o.user < 0) || (o.user >= 0 && ack.User != o.user):
		err = fmt.Errorf("upsert of user %d acknowledged as %+v", o.user, ack)
	}
	return ack, err
}

// appendRecommendBody appends the exact body the daemon sends for a
// recommendation of items to user u — the encoding/json form of
// {"user":u,"items":items} with an empty list for no items.
func appendRecommendBody(dst []byte, u int32, items []int32) []byte {
	dst = append(dst, `{"user":`...)
	dst = strconv.AppendInt(dst, int64(u), 10)
	dst = append(dst, `,"items":[`...)
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(it), 10)
	}
	return append(dst, "]}"...)
}

// bodies collects read replies until the index state they were
// answered from can be queried in process.
type bodies struct {
	users []int32
	ends  []int
	data  []byte
}

func (b *bodies) add(u int32, body []byte) {
	b.users = append(b.users, u)
	b.data = append(b.data, body...)
	b.ends = append(b.ends, len(b.data))
}

// check compares every collected reply byte for byte with ix's serial
// Index.Recommend and empties b.
func (r *run) checkBodies(ix *c2knn.Index, b *bodies, what string) {
	want := make(map[int32][]byte)
	start := 0
	for i, u := range b.users {
		w, ok := want[u]
		if !ok {
			w = appendRecommendBody(nil, u, ix.Recommend(u, recN))
			want[u] = w
		}
		got := b.data[start:b.ends[i]]
		r.op(bytes.Equal(got, w), "%s: user %d got %s, want %s", what, u, got, w)
		start = b.ends[i]
	}
	b.users, b.ends, b.data = b.users[:0], b.ends[:0], b.data[:0]
}

// checkShape checks a reply answered while writes were landing
// concurrently, when no single index state can reproduce it: it must
// be a well-formed recommendation for u of at most recN distinct items.
func checkShape(u int32, body []byte) error {
	var rec struct {
		User  int32   `json:"user"`
		Items []int32 `json:"items"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return err
	}
	items := slices.Clone(rec.Items)
	slices.Sort(items)
	if rec.User != u || rec.Items == nil || len(items) > recN || len(slices.Compact(items)) != len(rec.Items) {
		return fmt.Errorf("malformed recommendation for user %d: %s", u, body)
	}
	return nil
}

// model is the benchmark's own record of every profile it wrote: it
// checks the ids the daemon assigns and gives the exact similarities
// write quality is scored with.
type model struct {
	base    [][]int32
	changed map[int32][]int32 // final profile of every written user
	created []int32           // ids assigned to inserts
	byWrite map[int]int32     // write number → user it landed on
	next    int               // number of the next write
}

func newModel(base [][]int32) *model {
	return &model{base: base, changed: map[int32][]int32{}, byWrite: map[int]int32{}}
}

// reserve returns the number of the first of n writes about to be sent.
func (m *model) reserve(n int) int {
	w := m.next
	m.next += n
	return w
}

// apply records write number w of o, acknowledged as ack.
func (m *model) apply(w int, o op, ack upsertAck) {
	items := sets.Normalize(slices.Clone(o.items))
	if ack.Created {
		m.created = append(m.created, ack.User)
		m.changed[ack.User] = items
	} else {
		prev, ok := m.changed[ack.User]
		if !ok {
			prev = m.base[ack.User]
		}
		m.changed[ack.User] = sets.Union(prev, items)
	}
	m.byWrite[w] = ack.User
}

// profiles returns every user's current profile.
func (m *model) profiles() [][]int32 {
	out := make([][]int32, len(m.base)+len(m.created))
	copy(out, m.base)
	for u, p := range m.changed {
		out[u] = p
	}
	return out
}

// checkIDs checks that inserts got contiguous new ids after the base's.
func (r *run) checkIDs(m *model) {
	ids := slices.Clone(m.created)
	slices.Sort(ids)
	for i, u := range ids {
		if int(u) != len(m.base)+i {
			r.check(false, "insert ids are not contiguous after %d: %v", len(m.base), ids)
			return
		}
	}
}

// timing is what a concurrency-1 loop measured, in milliseconds.
type timing struct {
	reads  []float64 // untraced reads
	writes []float64
	traced []tracedRead
}

func (t *timing) add(u timing) {
	t.reads = append(t.reads, u.reads...)
	t.writes = append(t.writes, u.writes...)
	t.traced = append(t.traced, u.traced...)
}

type tracedRead struct {
	span int // client span
	hit  bool
}

// serial drives ops one at a time (concurrency 1), timing each. Replies
// are checked against the daemon's index in process after each run of
// reads, before the next write changes the answers. In traced runs
// every other read and every write is traced.
func (r *run) serial(d *daemon, ops []op, m *model) timing {
	c := &client{base: d.base}
	var t timing
	var pending bodies
	for i, o := range ops {
		if o.write {
			w := m.reserve(1)
			r.checkBodies(d.srv.Index(), &pending, "read")
			rid := r.rid("w")
			sp := r.tr.begin("http.upsert", -1, rid)
			start := time.Now()
			ack, err := c.write(o, rid)
			t.writes = append(t.writes, float64(time.Since(start))/1e6)
			r.tr.end(sp)
			r.op(err == nil, "write %d: %v", w, err)
			if err == nil {
				m.apply(w, o, ack)
			}
			continue
		}
		traced := r.tr != nil && i%2 == 0
		var hits uint64
		var rid string
		if traced {
			hits = d.srv.Stats().Snapshot().CacheHits
			rid = r.rid("r")
		}
		sp := -1
		if traced {
			sp = r.tr.begin("http.read", -1, rid)
		}
		start := time.Now()
		body, err := c.read(o.user, rid)
		elapsed := float64(time.Since(start)) / 1e6
		r.tr.end(sp)
		if err != nil {
			r.op(false, "read of user %d: %v", o.user, err)
			continue
		}
		pending.add(o.user, body)
		if traced {
			t.traced = append(t.traced, tracedRead{span: sp, hit: d.srv.Stats().Snapshot().CacheHits > hits})
		} else {
			t.reads = append(t.reads, elapsed)
		}
	}
	r.checkBodies(d.srv.Index(), &pending, "read")
	return t
}

// rid names a traced request uniquely within the run; untraced runs
// send none.
func (r *run) rid(kind string) string {
	if r.tr == nil {
		return ""
	}
	r.rids++
	return kind + strconv.Itoa(r.rids)
}

// saturated is what a concurrency-nproc chunk measured.
type saturated struct {
	wall          time.Duration
	reads, writes int
	alloc         uint64 // bytes allocated by the process during the chunk
}

// caller is one concurrency-nproc caller's record, checked once every
// caller has stopped.
type caller struct {
	got    bodies
	ok     int // replies that passed the shape check
	writes []written
	errs   []error
}

type written struct {
	w   int
	o   op
	ack upsertAck
}

// saturate drives ops from nproc closed-loop callers back to back.
// exact says no write can land meanwhile, so every reply is checked
// byte for byte afterwards; otherwise replies are checked for shape.
func (r *run) saturate(d *daemon, ops []op, m *model, exact bool) saturated {
	var out saturated
	for _, o := range ops {
		if o.write {
			out.writes++
		} else {
			out.reads++
		}
	}
	writeNo := make([]int, len(ops))
	if out.writes > 0 {
		w := m.reserve(out.writes)
		for i, o := range ops {
			writeNo[i] = w
			if o.write {
				w++
			}
		}
	}
	callers := make([]caller, runtime.NumCPU())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func(cl *caller) {
			defer wg.Done()
			c := &client{base: d.base}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := ops[i]
				if o.write {
					ack, err := c.write(o, "")
					if err != nil {
						cl.errs = append(cl.errs, err)
					} else {
						cl.writes = append(cl.writes, written{writeNo[i], o, ack})
					}
					continue
				}
				body, err := c.read(o.user, "")
				if err == nil && !exact {
					err = checkShape(o.user, body)
				}
				switch {
				case err != nil:
					cl.errs = append(cl.errs, err)
				case exact:
					cl.got.add(o.user, body)
				default:
					cl.ok++
				}
			}
		}(&callers[i])
	}
	wg.Wait()
	out.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	out.alloc = ms.TotalAlloc - alloc0
	for i := range callers {
		cl := &callers[i]
		for _, err := range cl.errs {
			r.op(false, "saturation: %v", err)
		}
		for range cl.ok {
			r.op(true, "")
		}
		for _, wr := range cl.writes {
			r.op(true, "")
			m.apply(wr.w, wr.o, wr.ack)
		}
		if exact {
			r.checkBodies(d.srv.Index(), &cl.got, "saturation read")
		}
	}
	return out
}
