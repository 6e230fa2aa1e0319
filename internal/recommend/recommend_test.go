package recommend

import (
	"math/rand"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/dataset"
	"c2knn/internal/delta"
	"c2knn/internal/knng"
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
	"c2knn/internal/synth"
)

func TestSplitPartitionsProfiles(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	const folds = 5
	fs := Split(d, folds, 1)
	if len(fs) != folds {
		t.Fatalf("got %d folds", len(fs))
	}
	for u := 0; u < d.NumUsers(); u++ {
		orig := d.Profiles[u]
		var rebuilt []int32
		for fi, f := range fs {
			train := f.Train.Profiles[u]
			test := f.Test[u]
			if len(train)+len(test) != len(orig) {
				t.Fatalf("fold %d user %d: train %d + test %d != profile %d",
					fi, u, len(train), len(test), len(orig))
			}
			// Train and test are disjoint.
			for _, it := range test {
				if sets.Contains(train, it) {
					t.Fatalf("fold %d user %d: item %d in both train and test", fi, u, it)
				}
			}
			rebuilt = append(rebuilt, test...)
		}
		// Across folds, the test parts cover the profile exactly once
		// (users with ≥ folds items).
		if len(orig) >= folds {
			rebuilt = sets.Normalize(rebuilt)
			if !sets.Equal(rebuilt, orig) {
				t.Fatalf("user %d: test folds do not cover the profile", u)
			}
		}
	}
}

func TestSplitSmallProfilesStayInTrain(t *testing.T) {
	d := dataset.New("tiny", [][]int32{{1, 2}, {3, 4, 5, 6, 7, 8}}, 9)
	fs := Split(d, 5, 2)
	for _, f := range fs {
		if len(f.Test[0]) != 0 {
			t.Error("2-item profile should never be split into 5 folds")
		}
		if len(f.Train.Profiles[0]) != 2 {
			t.Error("small profile should remain fully in train")
		}
	}
}

func TestSplitPanicsOnOneFold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Split with 1 fold should panic")
		}
	}()
	Split(dataset.New("x", [][]int32{{1}}, 2), 1, 1)
}

func TestRecommendExcludesOwnItems(t *testing.T) {
	// u0 and u1 are similar; u1 has an extra item that should be
	// recommended to u0; u0's own items must not be.
	d := dataset.New("r", [][]int32{
		{0, 1, 2},
		{0, 1, 2, 3},
		{7, 8},
	}, 9)
	g := knng.New(3, 2)
	g.Insert(0, 1, 0.75)
	g.Insert(0, 2, 0.01)
	recs := Recommend(d, g, 0, 5)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	if recs[0] != 3 {
		t.Errorf("top recommendation = %d, want 3", recs[0])
	}
	for _, it := range recs {
		if sets.Contains(d.Profiles[0], it) {
			t.Errorf("recommended an item u0 already has: %d", it)
		}
	}
}

func TestRecommendScoresBySimilaritySum(t *testing.T) {
	d := dataset.New("s", [][]int32{
		{0},
		{1}, // neighbor A recommends 1
		{2}, // neighbor B recommends 2
		{2}, // neighbor C also recommends 2
	}, 3)
	g := knng.New(4, 3)
	g.Insert(0, 1, 0.5)
	g.Insert(0, 2, 0.3)
	g.Insert(0, 3, 0.3)
	recs := Recommend(d, g, 0, 2)
	// Item 2 scores 0.6 > item 1 at 0.5.
	if len(recs) != 2 || recs[0] != 2 || recs[1] != 1 {
		t.Errorf("recs = %v, want [2 1]", recs)
	}
}

func TestRecall(t *testing.T) {
	if got := Recall([]int32{1, 2, 3}, []int32{2, 3, 9}); got != 2.0/3.0 {
		t.Errorf("Recall = %v, want 2/3", got)
	}
	if got := Recall(nil, []int32{1}); got != 0 {
		t.Errorf("Recall with no recs = %v, want 0", got)
	}
	if got := Recall([]int32{1}, nil); got != -1 {
		t.Errorf("Recall with empty test = %v, want -1 (excluded)", got)
	}
}

// TestEndToEndRecallBeatsRandom: a KNN-graph recommender must beat a
// random-graph recommender on clustered data.
func TestEndToEndRecallBeatsRandom(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.05))
	folds := Split(d, 5, 3)
	f := folds[0]
	raw := similarity.NewJaccard(f.Train)
	exact := bruteforce.Build(f.Train.NumUsers(), 10, raw, 2)
	random := knng.New(f.Train.NumUsers(), 10)
	knng.RandomInit(random, raw, 4)
	exactRecall := EvalRecall(f, exact, 20, 2)
	randomRecall := EvalRecall(f, random, 20, 2)
	if exactRecall <= randomRecall {
		t.Errorf("exact-graph recall %.4f not better than random-graph %.4f",
			exactRecall, randomRecall)
	}
	if exactRecall <= 0 {
		t.Error("exact-graph recall is zero — recommender broken")
	}
}

// frozenTestGraph builds a random graph whose similarities are exact
// float32 values (multiples of 1/256), so the float64 map path and the
// float32 frozen path must agree bit-for-bit.
func frozenTestGraph(n, k int, seed int64) *knng.Graph {
	g := knng.New(n, k)
	rng := rand.New(rand.NewSource(seed))
	knng.FillRandom(g.Lists, rng, func(u, v int) float64 {
		return float64(rng.Intn(256)) / 256
	})
	return g
}

func TestScorerMatchesMapRecommend(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	g := frozenTestGraph(d.NumUsers(), 8, 11)
	src := delta.NewView(g.Freeze(), d, nil)
	sc := NewScorer(d.NumItems)
	var rec []int32
	for _, n := range []int{-1, 0, 1, 5, 30} {
		for u := 0; u < d.NumUsers(); u++ {
			want := Recommend(d, g, int32(u), n)
			rec = sc.Recommend(src, int32(u), n, rec[:0])
			if len(rec) != len(want) {
				t.Fatalf("n=%d user %d: frozen returned %d items, map path %d", n, u, len(rec), len(want))
			}
			for i := range want {
				if rec[i] != want[i] {
					t.Fatalf("n=%d user %d item %d: frozen %d, map path %d (frozen %v, map %v)",
						n, u, i, rec[i], want[i], rec, want)
				}
			}
		}
	}
}

func TestScorerScratchCleanBetweenQueries(t *testing.T) {
	// Two consecutive queries for the same user through one Scorer must
	// be identical: leftover scores would double-count.
	d := synth.Generate(synth.ML1M().Scale(0.03))
	g := frozenTestGraph(d.NumUsers(), 8, 12)
	src := delta.NewView(g.Freeze(), d, nil)
	sc := NewScorer(d.NumItems)
	for u := 0; u < 50; u++ {
		first := append([]int32(nil), sc.Recommend(src, int32(u), 20, nil)...)
		second := sc.Recommend(src, int32(u), 20, nil)
		if len(first) != len(second) {
			t.Fatalf("user %d: repeat query returned %d items, first %d", u, len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("user %d: repeat query diverged at %d: %v vs %v", u, i, first, second)
			}
		}
	}
}

func TestScorerGrowsToLargerUniverse(t *testing.T) {
	small := dataset.New("small", [][]int32{{0}, {1}}, 2)
	sc := NewScorer(small.NumItems)
	big := dataset.New("big", [][]int32{{0, 90}, {91, 95}}, 100)
	g := knng.New(2, 1)
	g.Insert(0, 1, 0.5)
	rec := sc.Recommend(delta.NewView(g.Freeze(), big, nil), 0, 5, nil)
	if len(rec) != 2 || rec[0] != 91 || rec[1] != 95 {
		t.Errorf("recs after growth = %v, want [91 95]", rec)
	}
}

func TestEvalRecallFrozenMatchesEvalRecall(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	f := Split(d, 4, 6)[0]
	g := frozenTestGraph(f.Train.NumUsers(), 8, 13)
	if a, b := EvalRecall(f, g, 10, 2), EvalRecallFrozen(f, g.Freeze(), 10, 2); a != b {
		t.Errorf("EvalRecall %v != EvalRecallFrozen %v", a, b)
	}
}

func TestEvalRecallDeterministicAcrossWorkers(t *testing.T) {
	d := synth.Generate(synth.ML1M().Scale(0.03))
	f := Split(d, 4, 5)[0]
	raw := similarity.NewJaccard(f.Train)
	g := bruteforce.Build(f.Train.NumUsers(), 5, raw, 2)
	r1 := EvalRecall(f, g, 10, 1)
	r4 := EvalRecall(f, g, 10, 4)
	// Per-worker partial sums reassociate float additions; allow ULP-level
	// drift but nothing structural.
	if diff := r1 - r4; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("recall depends on worker count: %v vs %v", r1, r4)
	}
}

// TestScorerRowMergeExclusion stresses the merge-based own-item
// exclusion of the row-batched scoring loop on adversarial overlap
// shapes: own empty, own a superset of the row, overlap only at the
// row's ends, and interleaved runs — each compared against the
// reference map path item by item.
func TestScorerRowMergeExclusion(t *testing.T) {
	profiles := [][]int32{
		0: {},                 // empty own profile: nothing excluded
		1: {0, 1, 2, 3, 4, 5}, // superset of neighbor rows
		2: {0, 9},             // overlap at both ends only
		3: {2, 4, 6},          // interleaved
		4: {1, 2, 3},          // the recommending neighbor
		5: {0, 3, 5, 7, 9},    // another neighbor, wider row
		6: {100, 101},         // disjoint high items
		7: {5},
	}
	d := dataset.New("merge", profiles, 128)
	g := knng.New(len(profiles), 3)
	for u := 0; u < 4; u++ {
		g.Lists[u].Insert(4, 0.9)
		g.Lists[u].Insert(5, 0.8)
		g.Lists[u].Insert(6, 0.7)
	}
	src := delta.NewView(g.Freeze(), d, nil)
	sc := NewScorer(d.NumItems)
	var rec []int32
	for u := int32(0); u < 4; u++ {
		want := Recommend(d, g, u, 10)
		rec = sc.Recommend(src, u, 10, rec[:0])
		if len(rec) != len(want) {
			t.Fatalf("user %d: %d items vs %d (%v vs %v)", u, len(rec), len(want), rec, want)
		}
		for i := range want {
			if rec[i] != want[i] {
				t.Fatalf("user %d rank %d: %d vs %d", u, i, rec[i], want[i])
			}
		}
	}
}
