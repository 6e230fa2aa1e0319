package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"c2knn"
	"c2knn/internal/persist"
	"c2knn/internal/synth"
)

// prepared is what the serving phases start from: the snapshot on disk
// and the index the set-up loaded from it.
type prepared struct {
	path string
	ix   *c2knn.Index
	d    *c2knn.Dataset // for the timed builds of the rounds
}

// prepare generates the dataset, builds the graph, saves and loads the
// snapshot, and measures the set-up (setup_s) and the served graph's
// quality (build_quality). The dataset is the preset's own, from its
// calibrated generator seed, so every run builds the same graph; the
// run's seed drives the operation streams and samples.
func (r *run) prepare() (prepared, error) {
	cfg, ok := synth.ByName(r.wl.preset)
	if !ok {
		return prepared{}, fmt.Errorf("unknown preset %q", r.wl.preset)
	}
	reps := setupReps
	if r.tr != nil {
		reps = 1
	}

	var gen []float64
	var d *c2knn.Dataset
	for range reps {
		start := time.Now()
		d = c2knn.GenerateConfig(cfg)
		gen = append(gen, time.Since(start).Seconds())
	}

	r.mark("generate")
	// The first build of a process runs markedly slower than the rest
	// while the heap grows, so it is not timed; its graph is served.
	g, gf, f, st, _ := r.buildOnce(d)
	r.checkFrozen(f, d.NumUsers())
	r.buildStats = st
	r.mark("build")
	ix0, err := c2knn.NewIndex(g, d, gf)
	if err != nil {
		return prepared{}, err
	}
	path := r.snapshotPath()
	if r.tr != nil {
		if err := r.persistLedger(ix0, path); err != nil {
			return prepared{}, err
		}
	}

	// Save, load and warm the snapshot's pages: the rest of set-up.
	var load []float64
	var ix *c2knn.Index
	for i := range reps {
		runtime.GC()
		start := time.Now()
		if err := ix0.Save(path); err != nil {
			return prepared{}, err
		}
		next, err := c2knn.LoadIndex(path)
		if err != nil {
			return prepared{}, err
		}
		warmPages(next)
		load = append(load, time.Since(start).Seconds())
		if i < reps-1 {
			next.Close()
		}
		ix = next
	}
	r.endToEnd("setup_s", median(gen)+median(load), "s")
	mode := "copy"
	if ix.Mapped() {
		mode = "mmap"
	}
	stamp(os.Stdout, r.wl, mode)

	r.mark("persist")
	r.buildQuality(ix)
	r.mark("build-quality")
	return prepared{path: path, ix: ix, d: d}, nil
}

// warmSink keeps warmPages' reads live.
var warmSink int64

// warmPages reads every profile, adjacency and fingerprint of ix so the
// snapshot's pages are resident before anything is timed.
func warmPages(ix *c2knn.Index) {
	var s int64
	for _, p := range ix.Train().Profiles {
		for _, it := range p {
			s += int64(it)
		}
	}
	f := ix.Graph()
	for _, v := range f.IDs {
		s += int64(v)
	}
	for _, v := range f.Sims {
		s += int64(v)
	}
	if gf, ok := ix.Similarity().(interface{ Signatures() []uint64 }); ok {
		for _, w := range gf.Signatures() {
			s += int64(w)
		}
	}
	warmSink += s
}

// buildQuality measures Eq. 2 of the served graph on a seeded sample.
func (r *run) buildQuality(ix *c2knn.Index) {
	train := ix.Train()
	users := make([]int32, train.NumUsers())
	for i := range users {
		users[i] = int32(i)
	}
	x := newExactIndex(train.Profiles, int(train.NumItems))
	q := x.quality(sample(phaseRNG(r.seed, phaseSample), users, qualityUsers), ix.K(),
		func(u int32) []int32 { ids, _ := ix.Neighbors(u); return ids })
	r.endToEnd("build_quality", q, "ratio")
}

// persistLedger measures the snapshot layer in isolation (traced runs).
func (r *run) persistLedger(ix *c2knn.Index, path string) error {
	var save, mapMs, copyMs, first []float64
	for range 3 {
		start := time.Now()
		if err := ix.Save(path); err != nil {
			return err
		}
		save = append(save, time.Since(start).Seconds())

		start = time.Now()
		snap, err := persist.MapFile(path)
		if err != nil {
			return err
		}
		mapMs = append(mapMs, float64(time.Since(start))/1e6)
		snap.Close()

		start = time.Now()
		if _, err := persist.LoadFileMode(path, persist.LoadCopy); err != nil {
			return err
		}
		copyMs = append(copyMs, float64(time.Since(start))/1e6)

		start = time.Now()
		lx, err := c2knn.LoadIndexMode(path, c2knn.LoadMMap)
		if err != nil {
			return err
		}
		lx.Recommend(0, recN)
		first = append(first, float64(time.Since(start))/1e6)
		lx.Close()
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.layer("persist.save_s", median(save), "s")
	r.layer("persist.snapshot_mb", float64(st.Size())/(1<<20), "MB")
	r.layer("persist.map_ms", median(mapMs), "ms")
	r.layer("persist.copy_ms", median(copyMs), "ms")
	r.layer("persist.first_answer_ms", median(first), "ms")
	return nil
}
