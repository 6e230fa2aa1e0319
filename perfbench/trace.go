package main

import (
	"cmp"
	"net/http"
	"slices"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one HTTP request share the X-Request-ID the
// client sent (rid); the handler span is linked to its client span by
// that id once the run is over.
type span struct {
	name       string
	parent     int // index of the parent span, or -1
	start, end time.Duration
	rid        string
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory for the whole run; they are only read
// after every traced call has returned. A nil *tracer records nothing,
// so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle (-1 when tr is nil).
func (tr *tracer) begin(name string, parent int, rid string) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.origin)
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name: name, parent: parent, start: now, end: -1, rid: rid})
	id := len(tr.spans) - 1
	tr.mu.Unlock()
	return id
}

// end closes the span id returned by begin.
func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	now := time.Since(tr.origin)
	tr.mu.Lock()
	tr.spans[id].end = now
	tr.mu.Unlock()
}

// traceHandler wraps the daemon's handler so that every request carrying
// an X-Request-ID gets a "server.handler" span. Untraced requests carry
// no id and pass straight through.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.begin("server.handler", -1, rid)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// linkRequests makes every handler span the child of the client span
// with the same request id and returns how many client spans found
// their handler span.
func linkRequests(spans []span, clientNames ...string) (clients, linked int) {
	byRID := make(map[string]int)
	for i, s := range spans {
		if s.rid != "" && slices.Contains(clientNames, s.name) {
			byRID[s.rid] = i
			clients++
		}
	}
	for i := range spans {
		if spans[i].name != "server.handler" {
			continue
		}
		if p, ok := byRID[spans[i].rid]; ok {
			spans[i].parent = p
			linked++
		}
	}
	return clients, linked
}

// covered returns how much of each span's interval its children cover
// (overlapping children counted once, clipped to the parent).
func covered(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for p, ks := range kids {
		if len(ks) == 0 {
			continue
		}
		iv := make([][2]time.Duration, 0, len(ks))
		for _, k := range ks {
			a, b := max(spans[k].start, spans[p].start), min(spans[k].end, spans[p].end)
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		slices.SortFunc(iv, func(x, y [2]time.Duration) int { return cmp.Compare(x[0], y[0]) })
		var sum, curA, curB time.Duration
		for i, v := range iv {
			if i == 0 || v[0] > curB {
				sum += curB - curA
				curA, curB = v[0], v[1]
			} else if v[1] > curB {
				curB = v[1]
			}
		}
		sum += curB - curA
		out[p] = sum
	}
	return out
}

// selfTimes returns, per span name, the summed span time not covered
// by the span's children.
func selfTimes(spans []span) map[string]time.Duration {
	cov := covered(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.name] += s.dur() - cov[i]
	}
	return out
}

// coverage returns the share of the named container spans' time that
// their children cover: 1 means every instant inside them is
// attributed to a named layer call.
func coverage(spans []span, containers ...string) float64 {
	cov := covered(spans)
	var in, total time.Duration
	for i, s := range spans {
		if slices.Contains(containers, s.name) {
			in += cov[i]
			total += s.dur()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// total returns the summed duration of the spans named name.
func total(spans []span, name string) time.Duration {
	var t time.Duration
	for _, s := range spans {
		if s.name == name {
			t += s.dur()
		}
	}
	return t
}
