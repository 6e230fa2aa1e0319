package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"time"

	"c2knn"
	"c2knn/internal/knng"
	"c2knn/internal/recommend"
	"c2knn/internal/server"
)

// serve runs the rounds and the write phase's end on the prepared
// snapshot. Each round times one build, a slice of the concurrency-1
// reads, a chunk of the saturation stream and, on workloads that write
// alone, a slice of the writes. Spreading every metric's samples over
// the whole run keeps a burst of load on the shared machine from
// moving any one metric's median.
func (r *run) serve(p prepared) error {
	if r.tr != nil {
		r.inProcessLedger(p.ix)
	}
	r.oracle(p.ix)
	r.mark("oracle")

	pop := newPopularity(r.seed, p.ix.NumUsers(), r.wl.zipf)
	writable := server.Config{SnapshotPath: p.path, Upserts: true, UpsertParams: c2knn.UpsertConfig{T: r.wl.t}}
	var (
		rd, wd              *daemon // rd serves the reads, wd the writes
		m                   *model
		reads, sat, writeOp []op
		err                 error
	)
	if r.wl.mixEvery == 0 {
		// Reads go to a read-only daemon; writes run alone on a writable
		// one over a second load of the same snapshot.
		if rd, err = r.startDaemon(p.ix, server.Config{ReadOnly: true}); err != nil {
			return err
		}
		ix, err := c2knn.LoadIndex(p.path)
		if err == nil {
			warmPages(ix)
			if wd, err = r.startDaemon(ix, writable); err != nil {
				ix.Close()
			}
		}
		if err != nil {
			rd.stop()
			return err
		}
		m = newModel(ix.Train().Profiles)
		reads = pop.reads(phaseRNG(r.seed, phaseReads), r.wl.reads*r.seconds)
		sat = pop.reads(phaseRNG(r.seed, phaseSaturation), r.wl.sat*r.seconds)
		writeOp = writes(phaseRNG(r.seed, phaseWrites), r.wl.writes*r.seconds, m.base)
	} else {
		if wd, err = r.startDaemon(p.ix, writable); err != nil {
			return err
		}
		rd = wd
		m = newModel(p.ix.Train().Profiles)
		reads = mixed(phaseRNG(r.seed, phaseReads), r.wl.reads*r.seconds, r.wl.mixEvery, pop, m.base)
		sat = mixed(phaseRNG(r.seed, phaseSaturation), r.wl.sat*r.seconds, r.wl.mixEvery, pop, m.base)
	}
	r.warmDaemon(rd)
	if wd != rd {
		r.warmDaemon(wd)
	}

	var t timing
	var rates []float64
	var satReads int
	var satAlloc uint64
	exact := rd != wd
	for round := range r.wl.rounds {
		r.roundBuild(p.d, round)
		r.serving(func() { t.add(r.serial(rd, slice(reads, round, r.wl.rounds), m)) })
		r.serving(func() {
			s := r.saturate(rd, slice(sat, round, r.wl.rounds), m, exact)
			rates = append(rates, float64(s.reads)/s.wall.Seconds())
			satReads += s.reads
			satAlloc += s.alloc
		})
		if len(writeOp) > 0 {
			r.serving(func() { t.add(r.serial(wd, slice(writeOp, round, r.wl.rounds), m)) })
		}
	}
	p.d = nil // the dataset is garbage from here on, before heap_mb is taken
	r.mark("rounds")
	fmt.Fprintf(os.Stderr, "# builds %.3f\n# rates %.0f\n", r.buildTimes, rates)
	r.endToEnd("build_s", median(r.buildTimes), "s")
	r.endToEnd("build_alloc_mb", median(r.buildAllocs), "MB")
	r.endToEnd("read_p50_ms", median(t.reads), "ms")
	r.endToEnd("read_rps", median(rates), "1/s")
	r.endToEnd("write_p50_ms", median(t.writes), "ms")
	r.layer("runtime.alloc_per_read_b", float64(satAlloc)/float64(satReads), "B")
	r.layer("server.hit_rate", rd.srv.Stats().Snapshot().CacheHitRate, "ratio")
	if rd != wd {
		r.countDaemon(rd)
		if err := rd.stop(); err != nil {
			return err
		}
	}

	var deep float64
	if r.tr != nil {
		deep = r.deltaProbe(wd, m, phaseDeep)
	}
	r.quiesce(wd, m)
	r.mark("quiesce")
	r.serving(func() { r.compact(wd, m) })
	r.mark("compact")
	r.layer("runtime.gc_cycles", float64(r.gcCycles), "count")
	r.layer("runtime.gc_pause_ms", float64(r.gcPauseNs)/1e6, "ms")
	if r.tr != nil {
		shallow := r.deltaProbe(wd, m, phaseShallow)
		r.layer("delta.upsert_deep_us", deep, "us")
		r.layer("delta.upsert_shallow_us", shallow, "us")
		r.layer("share.copy_on_write", (deep-shallow)/deep, "ratio")
		r.serveLedger(t)
	}
	r.checkIDs(m)
	r.countDaemon(wd)
	r.layer("server.shed", float64(r.shed), "count")
	r.layer("server.timeouts", float64(r.timeouts), "count")
	return wd.stop()
}

// slice returns the round-th of rounds equal parts of ops.
func slice(ops []op, round, rounds int) []op {
	return ops[round*len(ops)/rounds : (round+1)*len(ops)/rounds]
}

// serving runs a serving call after a collection, so garbage of the
// previous step is not collected inside it, and counts the collections
// that run during it.
func (r *run) serving(call func()) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	call()
	runtime.ReadMemStats(&ms)
	r.gcCycles += ms.NumGC - gc0
	r.gcPauseNs += ms.PauseTotalNs - pause0
}

// warmDaemon opens the callers' connections and warms the index's
// scorer pool without touching the response cache.
func (r *run) warmDaemon(d *daemon) {
	c := &client{base: d.base}
	for range 50 {
		status, _, err := c.do(http.MethodGet, "/healthz", nil, "")
		r.op(err == nil && status == http.StatusOK, "healthz: status %d, %v", status, err)
	}
	ix := d.srv.Index()
	for u := range min(ix.NumUsers(), sampleUsers) {
		ix.Recommend(int32(u), recN)
	}
}

// countDaemon adds d's shed and deadline counters to the run's.
func (r *run) countDaemon(d *daemon) {
	snap := d.srv.Stats().Snapshot()
	r.shed += snap.Shed
	r.timeouts += snap.DeadlineExpired
}

// oracle checks served recommendations of a seeded sample of users
// against the map-based reference scorer over the same neighbor rows.
func (r *run) oracle(ix *c2knn.Index) {
	f, train := ix.Graph(), ix.Train()
	g := knng.New(f.NumUsers(), f.K)
	for _, u := range sample(phaseRNG(r.seed, phaseSample), allUsers(f.NumUsers()), oracleUsers) {
		ids, sims := f.Neighbors(u)
		h := make([]knng.Neighbor, len(ids))
		for i := range ids {
			h[i] = knng.Neighbor{ID: ids[i], Sim: float64(sims[i])}
		}
		g.Lists[u].H = h
		want, got := recommend.Recommend(train, g, u, recN), ix.Recommend(u, recN)
		r.op(slices.Equal(got, want), "oracle: user %d got %v, want %v", u, got, want)
	}
}

func allUsers(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// quiesce runs once writes have stopped: it reads every written user
// and enough others to fill the response cache, checks each reply
// against the index in process, then takes heap_mb at this deepest
// point of the delta and scores write_quality.
func (r *run) quiesce(d *daemon, m *model) {
	ix := d.srv.Index()
	r.check(ix.NumUsers() == len(m.base)+len(m.created),
		"index serves %d users after %d inserts over %d", ix.NumUsers(), len(m.created), len(m.base))
	written := m.writtenUsers()
	users := slices.Clone(written)
	seen := make(map[int32]bool, cacheFill)
	for _, u := range users {
		seen[u] = true
	}
	rng := phaseRNG(r.seed, phaseQuiesce)
	for len(users) < cacheFill {
		if u := int32(rng.Intn(len(m.base))); !seen[u] {
			seen[u] = true
			users = append(users, u)
		}
	}
	c := &client{base: d.base}
	var got bodies
	for _, u := range users {
		body, err := c.read(u, "")
		if err != nil {
			r.op(false, "read after writes, user %d: %v", u, err)
			continue
		}
		got.add(u, body)
	}
	r.checkBodies(ix, &got, "read after writes")

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.endToEnd("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")

	profiles := m.profiles()
	numItems := 0
	for _, p := range profiles {
		if len(p) > 0 {
			numItems = max(numItems, int(p[len(p)-1])+1)
		}
	}
	x := newExactIndex(profiles, numItems)
	q := x.quality(sample(phaseRNG(r.seed, phaseSample), written, qualityUsers), ix.K(),
		func(u int32) []int32 { ids, _ := ix.Neighbors(u); return ids })
	r.endToEnd("write_quality", q, "ratio")
}

// writtenUsers lists the users the run wrote, in write order.
func (m *model) writtenUsers() []int32 {
	nums := make([]int, 0, len(m.byWrite))
	for w := range m.byWrite {
		nums = append(nums, w)
	}
	slices.Sort(nums)
	seen := make(map[int32]bool, len(nums))
	var out []int32
	for _, w := range nums {
		if u := m.byWrite[w]; !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

// compact runs the one synchronous compaction at the end of the writes
// and checks that it succeeded and that replies after it match the
// compacted index.
func (r *run) compact(d *daemon, m *model) {
	c := &client{base: d.base}
	rid := r.rid("c")
	sp := r.tr.begin("http.compact", -1, rid)
	start := time.Now()
	status, body, err := c.do(http.MethodPost, "/admin/compact", nil, rid)
	took := time.Since(start)
	r.tr.end(sp)
	r.op(err == nil && status == http.StatusOK && bytes.Contains(body, []byte(`"status":"ok"`)),
		"compaction: status %d %s %v", status, body, err)
	r.layer("delta.compact_s", took.Seconds(), "s")

	var st struct {
		ReloadFailures     uint64 `json:"reload_failures"`
		Compactions        uint64 `json:"compactions_total"`
		CompactionFailures uint64 `json:"compaction_failures_total"`
	}
	status, body, err = c.do(http.MethodGet, "/statsz", nil, "")
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &st)
	}
	r.check(err == nil && st.ReloadFailures == 0 && st.CompactionFailures == 0 && st.Compactions == 1,
		"statsz after compaction: %+v %v", st, err)

	// The compaction closed the index the model's base profiles were
	// mapped from; the compacted one starts with the same users.
	ix := d.srv.Index()
	m.base = ix.Train().Profiles[:len(m.base)]
	var got bodies
	for _, u := range sample(phaseRNG(r.seed, phaseSample), allUsers(ix.NumUsers()), sampleUsers) {
		body, err := c.read(u, "")
		if err != nil {
			r.op(false, "read after compaction, user %d: %v", u, err)
			continue
		}
		got.add(u, body)
	}
	r.checkBodies(ix, &got, "read after compaction")
}

// deltaProbe times probeOps in-process Index.Upsert calls on d's index
// and returns their median in microseconds. Before the compaction it
// also records the delta's depth and the merged read time.
func (r *run) deltaProbe(d *daemon, m *model, phase int) float64 {
	ix := d.srv.Index()
	firstWrite := m.reserve(probeOps)
	var us []float64
	for i, o := range writes(phaseRNG(r.seed, phase), probeOps, m.base) {
		start := time.Now()
		res, err := ix.Upsert(o.user, o.items)
		us = append(us, float64(time.Since(start))/1e3)
		r.op(err == nil && res.Created == (o.user < 0), "in-process upsert: %+v %v", res, err)
		if err == nil {
			m.apply(firstWrite+i, o, upsertAck{User: res.User, Created: res.Created})
		}
	}
	if phase == phaseDeep {
		ds, _ := ix.DeltaStats()
		r.layer("delta.depth_max", float64(ds.Depth), "count")
		r.layer("delta.patched_rows", float64(ds.PatchedRows), "count")
		r.layer("delta.merged_read_us", timeCalls(sample(phaseRNG(r.seed, phaseSample), allUsers(ix.NumUsers()), sampleUsers),
			func(u int32) { ix.Recommend(u, recN) }), "us")
	}
	return median(us)
}

// timeCalls times call on every user twice and returns the median of
// the second pass, in microseconds.
func timeCalls(users []int32, call func(u int32)) float64 {
	var us []float64
	for pass := range 2 {
		for _, u := range users {
			start := time.Now()
			call(u)
			if pass == 1 {
				us = append(us, float64(time.Since(start))/1e3)
			}
		}
	}
	return median(us)
}

// inProcessLedger times the index's own read paths on the base
// snapshot, before any daemon serves it.
func (r *run) inProcessLedger(ix *c2knn.Index) {
	users := sample(phaseRNG(r.seed, phaseSample), allUsers(ix.NumUsers()), sampleUsers)
	topk := timeCalls(users, func(u int32) { ix.TopK(u, ix.K()) })
	rec := timeCalls(users, func(u int32) { ix.Recommend(u, recN) })
	r.layer("knng.topk_us", topk, "us")
	r.layer("recommend.score_us", rec-topk, "us")
	r.recommendUs = rec
}

// serveLedger reports the per-layer serving metrics from the traced
// requests.
func (r *run) serveLedger(t timing) {
	spans := r.tr.spans
	clients, linked := linkRequests(spans, "http.read", "http.upsert", "http.compact")
	handler := make(map[int]int) // client span → its handler span
	for i, s := range spans {
		if s.name == "server.handler" && s.parent >= 0 {
			handler[s.parent] = i
		}
	}
	var hitUs, missUs, missClientUs, clientUs, tracedMs []float64
	for _, tr := range t.traced {
		cs := spans[tr.span]
		tracedMs = append(tracedMs, float64(cs.dur())/1e6)
		h, ok := handler[tr.span]
		if !ok {
			continue
		}
		hs := spans[h]
		clientUs = append(clientUs, float64(cs.dur()-hs.dur())/1e3)
		if tr.hit {
			hitUs = append(hitUs, float64(hs.dur())/1e3)
		} else {
			missUs = append(missUs, float64(hs.dur())/1e3)
			missClientUs = append(missClientUs, float64(cs.dur())/1e3)
		}
	}
	var upsertUs []float64
	for client, h := range handler {
		if spans[client].name == "http.upsert" {
			upsertUs = append(upsertUs, float64(spans[h].dur())/1e3)
		}
	}
	r.serveOverhead = median(tracedMs)/median(t.reads) - 1
	r.layer("server.miss_us", median(missUs), "us")
	r.layer("server.hit_us", median(hitUs), "us")
	r.layer("server.upsert_us", median(upsertUs), "us")
	r.layer("http.client_us", median(clientUs), "us")
	r.layer("read_p99_ms", percentile(t.reads, 99), "ms")
	r.layer("write_p99_ms", percentile(t.writes, 99), "ms")
	r.layer("share.recommend_of_miss", r.recommendUs/median(missClientUs), "ratio")
	r.layer("trace.serve_coverage", float64(linked)/float64(clients), "ratio")
	r.layer("trace.overhead_frac", max(r.buildOverhead, r.serveOverhead), "ratio")
	fmt.Printf("# trace overhead build=%.4f serve=%.4f spans=%d\n", r.buildOverhead, r.serveOverhead, len(spans))
}
