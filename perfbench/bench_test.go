package main

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"

	"c2knn"
	"c2knn/internal/synth"
)

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 2.0}, [3]float64{1.6, 3.1, 7.15}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if xs[0] != 10 {
		t.Error("statistics reordered their input")
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "a", parent: 0, start: 20 * ms, end: 50 * ms},  // overlaps the first child
		{name: "b", parent: 0, start: 90 * ms, end: 120 * ms}, // runs past its parent
		{name: "c", parent: 2, start: 25 * ms, end: 35 * ms},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"root": 100*ms - 40*ms - 10*ms, // children cover [10,50) and [90,100)
		"a":    20*ms + (30*ms - 10*ms),
		"b":    30 * ms,
		"c":    10 * ms,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if got := coverage(spans, "root"); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
}

func TestLinkRequests(t *testing.T) {
	spans := []span{
		{name: "http.read", parent: -1, start: 0, end: 10, rid: "r1"},
		{name: "server.handler", parent: -1, start: 2, end: 8, rid: "r1"},
		{name: "http.read", parent: -1, start: 20, end: 30, rid: "r2"},
	}
	clients, linked := linkRequests(spans, "http.read")
	if clients != 2 || linked != 1 || spans[1].parent != 0 {
		t.Fatalf("clients %d linked %d parent %d, want 2, 1, 0", clients, linked, spans[1].parent)
	}
	if self := selfTimes(spans); self["http.read"] != 14 {
		t.Errorf("client self time = %v, want 14", self["http.read"])
	}
}

func testDataset(t *testing.T) *c2knn.Dataset {
	t.Helper()
	cfg := synth.ML1M().Scale(0.04)
	cfg.Seed = 7
	return c2knn.GenerateConfig(cfg)
}

func TestOpsDependOnlyOnSeed(t *testing.T) {
	d := testDataset(t)
	stream := func(seed int64) []op {
		pop := newPopularity(seed, d.NumUsers(), 1.1)
		out := pop.reads(phaseRNG(seed, phaseReads), 50)
		out = append(out, writes(phaseRNG(seed, phaseWrites), 20, d.Profiles)...)
		return append(out, mixed(phaseRNG(seed, phaseSaturation), 60, 5, pop, d.Profiles)...)
	}
	equal := func(a, b []op) bool {
		return slices.EqualFunc(a, b, func(x, y op) bool {
			return x.write == y.write && x.user == y.user && slices.Equal(x.items, y.items)
		})
	}
	a, b := stream(3), stream(3)
	if !equal(a, b) {
		t.Fatal("one seed gave two different operation sequences")
	}
	if equal(a, stream(4)) {
		t.Fatal("two seeds gave the same operation sequence")
	}
	for i, o := range a[70:] {
		if o.write != ((i+1)%6 == 0) {
			t.Fatalf("mixed op %d: write=%v, want one write after every 5 reads", i, o.write)
		}
	}
}

func TestQualityMatchesC2knnQuality(t *testing.T) {
	d := testDataset(t)
	const k = 10
	sim := c2knn.ExactJaccard(d)
	approx, _ := c2knn.BuildC2(d, sim, c2knn.BuildOptions{K: k, B: 64, T: 2})
	exact := c2knn.BuildBruteForce(d, sim, k)
	want := c2knn.Quality(approx, exact, sim)
	x := newExactIndex(d.Profiles, int(d.NumItems))
	got := x.quality(allUsers(d.NumUsers()), k, func(u int32) []int32 {
		var ids []int32
		for _, nb := range approx.Lists[u].H {
			ids = append(ids, nb.ID)
		}
		return ids
	})
	if math.Abs(got-want) > 1e-9 || want >= 1 || want <= 0.5 {
		t.Fatalf("Eq. 2 = %v, c2knn.Quality = %v", got, want)
	}
}

func TestBodyChecker(t *testing.T) {
	for _, items := range [][]int32{nil, {7}, {3, 1, 2}} {
		want, err := json.Marshal(struct {
			User  int32   `json:"user"`
			Items []int32 `json:"items"`
		}{5, append([]int32{}, items...)})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRecommendBody(nil, 5, items); string(got) != string(want) {
			t.Errorf("body %s, want %s", got, want)
		}
	}

	d := testDataset(t)
	sim := c2knn.ExactJaccard(d)
	g, _ := c2knn.BuildC2(d, sim, c2knn.BuildOptions{K: 10, B: 64, T: 2})
	ix, err := c2knn.NewIndex(g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	items := ix.Recommend(3, recN)
	if len(items) < 2 {
		t.Fatalf("user 3 has %d recommendations", len(items))
	}
	r := &run{}
	var b bodies
	b.add(3, appendRecommendBody(nil, 3, items))
	changed := slices.Clone(items)
	changed[1]++
	b.add(3, appendRecommendBody(nil, 3, changed))
	r.checkBodies(ix, &b, "read")
	if r.attempted != 2 || r.failed != 1 || len(r.problems) != 1 {
		t.Fatalf("attempted %d failed %d problems %v, want the changed body alone rejected",
			r.attempted, r.failed, r.problems)
	}
}
