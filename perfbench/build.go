package main

import (
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"time"

	"c2knn"
	"c2knn/internal/bruteforce"
	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/hyrec"
	"c2knn/internal/knng"
	"c2knn/internal/schedule"
	"c2knn/internal/similarity"
)

const (
	gfBits = 1024   // the paper's GoldFinger width
	gfSeed = 0x60fd // the item-hash seed c2knn.NewGoldFinger uses
)

// buildOnce runs the timed unit of build_s: fingerprints, the C² build
// and the freeze to the serving form.
func (r *run) buildOnce(d *c2knn.Dataset) (*c2knn.Graph, c2knn.Similarity, *c2knn.FrozenGraph, c2knn.C2Stats, float64) {
	start := time.Now()
	gf, err := c2knn.NewGoldFinger(d, gfBits)
	if err != nil {
		panic(err) // gfBits is a positive multiple of 64
	}
	g, st := c2knn.BuildC2(d, gf, c2knn.BuildOptions{T: r.wl.t})
	f := c2knn.Freeze(g)
	return g, gf, f, st, time.Since(start).Seconds()
}

// checkFrozen checks a built graph: n·k edges and a valid CSR.
func (r *run) checkFrozen(f *knng.Frozen, n int) {
	err := f.Validate()
	r.op(err == nil && f.NumEdges() == n*f.K,
		"build: %d edges for %d users at k=%d, validate: %v", f.NumEdges(), n, f.K, err)
}

// timedBuild runs one timed build and records its time and allocation.
func (r *run) timedBuild(d *c2knn.Dataset) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0, pause0 := ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	_, _, f, _, secs := r.buildOnce(d)
	runtime.ReadMemStats(&ms)
	r.checkFrozen(f, d.NumUsers())
	r.buildTimes = append(r.buildTimes, secs)
	r.buildAllocs = append(r.buildAllocs, float64(ms.TotalAlloc-alloc0)/(1<<20))
	r.layer("runtime.build_gc_cycles", float64(ms.NumGC-gc0), "count")
	r.layer("runtime.build_gc_pause_ms", float64(ms.PauseTotalNs-pause0)/1e6, "ms")
}

// roundBuild is the build step of a round. Untraced runs time one build
// per round; a traced run times one untraced build in its first round
// and replays the pipeline with spans in its second.
func (r *run) roundBuild(d *c2knn.Dataset, round int) {
	switch {
	case r.tr == nil || round == 0:
		r.timedBuild(d)
	case round == 1:
		r.replayLedger(d, r.buildStats, r.buildTimes[0])
	}
}

// replayLedger runs the traced replay, checks it against the untraced
// build's statistics and frh.Build's cluster set, and reports the build
// ledger.
func (r *run) replayLedger(d *dataset.Dataset, want core.Stats, untraced float64) {
	runtime.GC()
	rp := replay(d, r.wl.t, runtime.GOMAXPROCS(0), r.tr)
	r.checkFrozen(rp.frozen, d.NumUsers())
	got := rp.stats
	r.check(got.Clusters == want.Clusters && got.Splits == want.Splits && got.MaxCluster == want.MaxCluster &&
		got.BruteForced == want.BruteForced && got.Hyreced == want.Hyreced && got.Skipped == want.Skipped,
		"replay stats %+v differ from core.Build's %+v", got, want)
	clusters, _ := frh.Build(d, frh.Options{T: r.wl.t})
	ref := make([]uint64, len(clusters))
	for i, c := range clusters {
		ref[i] = clusterKey(c)
	}
	slices.Sort(ref)
	r.check(slices.Equal(ref, rp.clusterKeys), "replay cluster set differs from frh.Build's")

	spans := r.tr.spans
	self := selfTimes(spans)
	workers := float64(runtime.GOMAXPROCS(0))
	pool := total(spans, "core.pipeline").Seconds()
	solve := self["bruteforce.solve"] + self["hyrec.solve"]
	r.layer("goldfinger.new_s", self["goldfinger.new"].Seconds(), "s")
	r.layer("frh.cluster_s", self["frh.stream"].Seconds(), "s")
	r.layer("frh.clusters", float64(got.Clusters), "count")
	r.layer("frh.splits", float64(got.Splits), "count")
	r.layer("frh.max_cluster", float64(got.MaxCluster), "count")
	r.layer("schedule.wait_s", self["schedule.pop"].Seconds(), "s")
	r.layer("schedule.depth_max", float64(rp.maxDepth), "count")
	r.layer("core.overlap_s", rp.overlap.Seconds(), "s")
	r.layer("similarity.gather_s", self["similarity.gather"].Seconds(), "s")
	r.layer("similarity.pairs", float64(rp.pairs), "count")
	r.layer("bruteforce.solve_s", self["bruteforce.solve"].Seconds(), "s")
	r.layer("bruteforce.clusters", float64(got.BruteForced), "count")
	r.layer("hyrec.clusters", float64(got.Hyreced), "count")
	r.layer("knng.merge_s", self["knng.merge"].Seconds(), "s")
	r.layer("knng.freeze_s", self["knng.freeze"].Seconds(), "s")
	r.layer("share.solve", solve.Seconds()/(workers*pool), "ratio")
	r.layer("share.merge", self["knng.merge"].Seconds()/(workers*pool), "ratio")
	r.layer("trace.build_coverage", coverage(spans, "build", "core.worker"), "ratio")
	r.buildOverhead = rp.wall.Seconds()/untraced - 1
}

// replayed is what a traced replay of core.Build observed.
type replayed struct {
	frozen      *knng.Frozen
	stats       core.Stats
	clusterKeys []uint64 // sorted keys of every emitted cluster
	maxDepth    int
	overlap     time.Duration
	pairs       int64
	wall        time.Duration
}

// replay re-runs core.Build's pipelined C² build at the paper's defaults
// through the layers' public functions — frh.Stream → schedule.Queue →
// similarity.GatherInto → bruteforce/hyrec.LocalInto →
// knng.Shared.MergeUser → Graph.Freeze — with a span around every call.
// It mirrors core.Build step for step, including the per-cluster solver
// seeds, so its cluster set and counts equal core.Build's.
func replay(d *dataset.Dataset, t, workers int, tr *tracer) replayed {
	const (
		k       = 30
		rho     = 5
		delta   = 0.001
		maxSize = frh.DefaultMaxSize
	)
	start := time.Now()
	root := tr.begin("build", -1, "")
	sp := tr.begin("goldfinger.new", root, "")
	gf, err := goldfinger.New(d, gfBits, gfSeed)
	tr.end(sp)
	if err != nil {
		panic(err) // gfBits is a positive multiple of 64
	}

	type job struct {
		users []int32
		seed  int64
	}
	pipe := tr.begin("core.pipeline", root, "")
	q := schedule.NewQueue[job](false)
	// seqs[fn] and keys[fn] are only touched by configuration fn's
	// producer goroutine.
	seqs := make([]int64, t)
	keys := make([][]uint64, t)
	emit := func(c frh.Cluster) {
		// core.Build's jobSeed with Options.Seed 0.
		seed := int64(c.Fn+1)<<32 + seqs[c.Fn]
		seqs[c.Fn]++
		keys[c.Fn] = append(keys[c.Fn], clusterKey(c))
		q.Push(job{users: c.Users, seed: seed}, len(c.Users))
	}
	var fst frh.Stats
	var clusterEnd time.Time
	var producer sync.WaitGroup
	producer.Add(1)
	go func() {
		defer producer.Done()
		sp := tr.begin("frh.stream", pipe, "")
		fst = frh.Stream(d, frh.Options{B: frh.DefaultB, T: t, MaxSize: maxSize}, emit)
		tr.end(sp)
		clusterEnd = time.Now()
		q.Close()
	}()

	g := knng.New(d.NumUsers(), k)
	shared := knng.NewShared(g)
	type worker struct {
		loc                     similarity.Local
		bf                      bruteforce.Scratch
		hy                      hyrec.Scratch
		brute, hyreced, skipped int
		pairs                   int64
		firstPop                time.Time
	}
	ws := make([]worker, workers)
	var pool sync.WaitGroup
	for w := range ws {
		pool.Add(1)
		go func(s *worker) {
			defer pool.Done()
			lane := tr.begin("core.worker", pipe, "")
			defer tr.end(lane)
			for {
				sp := tr.begin("schedule.pop", lane, "")
				jb, ok := q.Pop()
				tr.end(sp)
				if !ok {
					return
				}
				if s.firstPop.IsZero() {
					s.firstPop = time.Now()
				}
				n := len(jb.users)
				if n < 2 {
					s.skipped++
					continue
				}
				sp = tr.begin("similarity.gather", lane, "")
				similarity.GatherInto(gf, jb.users, &s.loc)
				tr.end(sp)
				var lists []knng.List
				if n > k+1 && n >= rho*k*k {
					s.hyreced++
					s.pairs += hyrec.SimBound(n, k, rho)
					sp = tr.begin("hyrec.solve", lane, "")
					lists = hyrec.LocalInto(&s.loc, k, hyrec.Options{Delta: delta, MaxIter: rho, Seed: jb.seed}, &s.hy)
				} else {
					s.brute++
					s.pairs += bruteforce.PairCount(n)
					sp = tr.begin("bruteforce.solve", lane, "")
					lists = bruteforce.LocalInto(&s.loc, k, &s.bf)
				}
				tr.end(sp)
				sp = tr.begin("knng.merge", lane, "")
				for i := range lists {
					shared.MergeUser(jb.users[i], lists[i].H)
				}
				tr.end(sp)
			}
		}(&ws[w])
	}
	pool.Wait()
	producer.Wait()
	tr.end(pipe)
	sp = tr.begin("knng.freeze", root, "")
	f := g.Freeze()
	tr.end(sp)
	tr.end(root)

	out := replayed{frozen: f, maxDepth: q.MaxDepth(), wall: time.Since(start)}
	out.stats = core.Stats{Clusters: fst.Clusters, Splits: fst.Splits, MaxCluster: fst.MaxCluster}
	var firstPop time.Time
	for _, s := range ws {
		out.stats.BruteForced += s.brute
		out.stats.Hyreced += s.hyreced
		out.stats.Skipped += s.skipped
		out.pairs += s.pairs
		if !s.firstPop.IsZero() && (firstPop.IsZero() || s.firstPop.Before(firstPop)) {
			firstPop = s.firstPop
		}
	}
	if !firstPop.IsZero() {
		out.overlap = max(clusterEnd.Sub(firstPop), 0)
	}
	for _, ks := range keys {
		out.clusterKeys = append(out.clusterKeys, ks...)
	}
	slices.Sort(out.clusterKeys)
	return out
}

// clusterKey identifies a cluster by its configuration and members.
func clusterKey(c frh.Cluster) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	put(uint32(c.Fn))
	for _, u := range c.Users {
		put(uint32(u))
	}
	return h.Sum64()
}
