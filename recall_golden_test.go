package c2knn_test

import (
	"math"
	"testing"

	"c2knn/internal/core"
	"c2knn/internal/goldfinger"
	"c2knn/internal/recommend"
	"c2knn/internal/synth"
)

// TestRecallGolden pins end-to-end recommendation quality as a tier-1
// regression gate: a fixed-seed synthetic preset, a deterministic C²
// build, and a pinned EvalRecall value. Any change that silently
// degrades graph quality — a kernel bug, a clustering change, a merge
// tie-break regression — moves this number and fails `go test ./...`
// rather than waiting for someone to read a benchmark report.
//
// The pinned value was measured on the deterministic configuration
// below (single worker: bit-identical across runs
// and platforms, since every stage is seeded and no map iteration or
// goroutine interleaving reaches the result). The ±0.005 band absorbs
// legitimate float-ordering jitter if the evaluation is ever
// parallelized, while still catching quality drift an order of
// magnitude smaller than any change worth worrying about.
//
// If this fails because of an *intentional* quality-affecting change,
// re-measure with the probe below and update the constant in the same
// commit, saying why:
//
//	go test -run TestRecallGolden -v .   # logs the measured value
const (
	goldenRecall    = 0.5155
	goldenTolerance = 0.005
)

func TestRecallGolden(t *testing.T) {
	cfg, ok := synth.ByName("ml1M")
	if !ok {
		t.Fatal("ml1M preset missing")
	}
	d := synth.Generate(cfg.Scale(0.05))
	folds := recommend.Split(d, 5, 42)
	f := folds[0]
	gf, err := goldfinger.New(f.Train, 1024, 0x60fd)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := core.Build(f.Train, gf, core.Options{
		K: 30, Workers: 1, Seed: 42,
	})
	got := recommend.EvalRecall(f, g, 30, 1)
	t.Logf("recall@30 = %.16f (pinned %.4f ± %.3f)", got, goldenRecall, goldenTolerance)
	if math.Abs(got-goldenRecall) > goldenTolerance {
		t.Fatalf("recall@30 = %.4f, pinned %.4f ± %.3f — quality drifted; if intentional, re-pin the constant and justify it in the commit",
			got, goldenRecall, goldenTolerance)
	}

	// The multi-worker build must deliver the same quality: it clusters
	// and solves identically and only the merge interleaving may differ,
	// so it shares the golden band.
	gp, _ := core.Build(f.Train, gf, core.Options{K: 30, Workers: 4, Seed: 42})
	gotP := recommend.EvalRecall(f, gp, 30, 4)
	if math.Abs(gotP-goldenRecall) > goldenTolerance {
		t.Fatalf("4-worker recall@30 = %.4f, pinned %.4f ± %.3f", gotP, goldenRecall, goldenTolerance)
	}
}
