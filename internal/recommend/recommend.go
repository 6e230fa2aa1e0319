// Package recommend implements the item-recommendation application of
// §V-B: a user-based collaborative filtering procedure on top of a KNN
// graph, evaluated by recall under 5-fold cross-validation. It is how the
// paper demonstrates that C²'s approximate graphs can replace exact ones
// "with almost no discernible impact".
package recommend

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"

	"c2knn/internal/dataset"
	"c2knn/internal/delta"
	"c2knn/internal/knng"
	"c2knn/internal/sets"
)

// Fold is one train/test split of a cross-validation: Train is a dataset
// with the test items removed from each profile, Test[u] holds user u's
// held-out items (sorted).
type Fold struct {
	Train *dataset.Dataset
	Test  [][]int32
}

// Split produces a k-fold cross-validation of d: each user's profile is
// shuffled once and partitioned into folds; fold i holds out part i.
// Users with fewer items than folds keep everything in Train (their Test
// is empty) so training profiles never vanish.
func Split(d *dataset.Dataset, folds int, seed int64) []Fold {
	if folds < 2 {
		panic("recommend: need at least 2 folds")
	}
	rng := rand.New(rand.NewSource(seed))
	n := d.NumUsers()
	// One shuffled copy per user, partitioned identically across folds.
	shuffled := make([][]int32, n)
	for u, p := range d.Profiles {
		cp := make([]int32, len(p))
		copy(cp, p)
		rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
		shuffled[u] = cp
	}
	out := make([]Fold, folds)
	for f := 0; f < folds; f++ {
		train := make([][]int32, n)
		test := make([][]int32, n)
		for u, cp := range shuffled {
			if len(cp) < folds {
				train[u] = append([]int32(nil), cp...)
				continue
			}
			lo := len(cp) * f / folds
			hi := len(cp) * (f + 1) / folds
			test[u] = append([]int32(nil), cp[lo:hi]...)
			train[u] = append(append([]int32(nil), cp[:lo]...), cp[hi:]...)
		}
		for u := range test {
			test[u] = sets.Normalize(test[u])
		}
		out[f] = Fold{
			Train: dataset.New(d.Name, train, d.NumItems),
			Test:  test,
		}
	}
	return out
}

// scored pairs an item with its aggregated neighbor score.
type scored struct {
	item  int32
	score float64
}

// rankScored orders ranked by decreasing score, ties by ascending item
// id (deterministic), truncates to n (callers pass n > 0), and extracts
// the item ids into dst. Shared by the map-based reference path and the
// serving scorer.
func rankScored(ranked []scored, n int, dst []int32) []int32 {
	slices.SortFunc(ranked, func(a, b scored) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.item, b.item)
	})
	if len(ranked) > n {
		ranked = ranked[:n]
	}
	for _, r := range ranked {
		dst = append(dst, r.item)
	}
	return dst
}

// Recommend returns up to n items for user u: every item appearing in a
// neighbor's training profile but not in u's own, scored by the sum of
// the recommending neighbors' similarities (classic user-based CF).
// This is the build-structure reference path — it walks the mutable
// graph and allocates a scoring map per call — and the test oracle for
// the serving Scorer, which reads a frozen Source and reuses all
// scratch. n <= 0 yields an empty result.
func Recommend(train *dataset.Dataset, g *knng.Graph, u int32, n int) []int32 {
	if n <= 0 {
		return []int32{}
	}
	scores := make(map[int32]float64)
	own := train.Profiles[u]
	for _, nb := range g.Lists[u].H {
		if nb.Sim <= 0 {
			continue
		}
		for _, it := range train.Profiles[nb.ID] {
			if sets.Contains(own, it) {
				continue
			}
			scores[it] += nb.Sim
		}
	}
	ranked := make([]scored, 0, len(scores))
	for it, s := range scores {
		ranked = append(ranked, scored{it, s})
	}
	return rankScored(ranked, n, make([]int32, 0, min(n, len(ranked))))
}

// Source is the read surface a Scorer scores over: neighbor rows and
// training profiles. delta.View implements it — the patch-free view of
// a frozen snapshot and an overlay's merged base + patch view alike.
// Neighbors must return rows sorted by decreasing similarity, Profile a
// sorted duplicate-free item set, and NumItems a bound on every item id
// either returns.
type Source interface {
	NumItems() int32
	Profile(u int32) []int32
	Neighbors(u int32) ([]int32, []float32)
}

// Scorer is the reusable per-worker scratch of the serving path: a
// dense per-item score accumulator plus the touched-item and ranking
// buffers. After the first few queries a Scorer stops allocating
// (beyond the caller's result slice). A Scorer is not safe for
// concurrent use; give each goroutine its own (c2knn.Index pools them).
type Scorer struct {
	scores  []float64 // dense accumulator, indexed by item id
	touched []int32   // items with non-zero score this query
	ranked  []scored
}

// NewScorer returns a Scorer for datasets with up to numItems items;
// it grows transparently if a query meets a larger universe.
func NewScorer(numItems int32) *Scorer {
	return &Scorer{scores: make([]float64, numItems)}
}

// Recommend is the serving scoring path over src: identical semantics
// to the package-level Recommend (score = sum of recommending
// neighbors' similarities, u's own items excluded, ties by ascending
// item id, n <= 0 yields nothing) but reading CSR-style rows and
// accumulating into the dense scratch — no per-query map, no per-query
// allocation when dst is recycled. u must be a user of src. The item
// ids are appended to dst; the extended slice is returned.
//
// Neighbor profiles are scored as whole rows: each row is merged
// against u's own (both sorted, duplicate-free) in one linear pass, the
// row-batched counterpart of the per-item binary search the reference
// path runs. Items are visited in the same order either way, so the
// accumulated scores — and the final ranking — are bit-identical.
func (s *Scorer) Recommend(src Source, u int32, n int, dst []int32) []int32 {
	if n <= 0 {
		return dst
	}
	if int(src.NumItems()) > len(s.scores) {
		s.scores = make([]float64, src.NumItems())
	}
	own := src.Profile(u)
	ids, sims := src.Neighbors(u)
	for i, v := range ids {
		sim := float64(sims[i])
		if sim <= 0 {
			continue
		}
		s.accumulateRow(own, src.Profile(v), sim)
	}
	s.ranked = s.ranked[:0]
	for _, it := range s.touched {
		s.ranked = append(s.ranked, scored{it, s.scores[it]})
		s.scores[it] = 0 // reset as we drain: scratch is clean for the next query
	}
	s.touched = s.touched[:0]
	return rankScored(s.ranked, n, dst)
}

// accumulateRow adds sim to the dense score of every item of row not
// present in own. Both slices are sorted and duplicate-free, so the
// exclusion runs as a single merge — own's cursor only ever advances —
// instead of one binary search per item.
func (s *Scorer) accumulateRow(own, row []int32, sim float64) {
	oi := 0
	for _, it := range row {
		for oi < len(own) && own[oi] < it {
			oi++
		}
		if oi < len(own) && own[oi] == it {
			continue
		}
		// Accumulated similarities are strictly positive, so a zero
		// score means "first touch" — no separate seen-set needed.
		if s.scores[it] == 0 {
			s.touched = append(s.touched, it)
		}
		s.scores[it] += sim
	}
}

// Recall returns |rec ∩ test| / |test|, or -1 when test is empty (the
// user does not participate in the average).
func Recall(rec, test []int32) float64 {
	if len(test) == 0 {
		return -1
	}
	hits := 0
	for _, it := range rec {
		if sets.Contains(test, it) {
			hits++
		}
	}
	return float64(hits) / float64(len(test))
}

// EvalRecall recommends n items to every user of the fold and returns the
// mean recall over users with a non-empty test set. The graph is frozen
// once and evaluation runs on the CSR serving path; pass an existing
// Frozen to EvalRecallFrozen to skip the flattening.
func EvalRecall(f Fold, g *knng.Graph, n, workers int) float64 {
	return EvalRecallFrozen(f, g.Freeze(), n, workers)
}

// EvalRecallFrozen is EvalRecall over a frozen graph, scored through
// its patch-free view — the serving read path. Each worker owns a
// Scorer and a recycled result slice, so the whole evaluation performs a
// constant number of allocations regardless of user count.
func EvalRecallFrozen(f Fold, g *knng.Frozen, n, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	src := delta.NewView(g, f.Train, nil)
	users := f.Train.NumUsers()
	partial := make([]float64, workers)
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewScorer(f.Train.NumItems)
			rec := make([]int32, 0, n)
			for u := w; u < users; u += workers {
				if len(f.Test[u]) == 0 {
					continue
				}
				rec = sc.Recommend(src, int32(u), n, rec[:0])
				if r := Recall(rec, f.Test[u]); r >= 0 {
					partial[w] += r
					counts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total, cnt := 0.0, 0
	for w := range partial {
		total += partial[w]
		cnt += counts[w]
	}
	if cnt == 0 {
		return 0
	}
	return total / float64(cnt)
}
