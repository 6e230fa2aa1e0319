package delta

import (
	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
)

// View is one immutable published state of an overlay: the base
// artifacts plus the patch maps of every user an upsert has touched
// (none, for a view made by NewView).
// All methods are read-only, lock-free and allocation-free, and a View
// stays internally consistent forever — readers resolve one View per
// request and see a single point in the upsert sequence, whatever
// writers do meanwhile.
type View struct {
	graph *knng.Frozen
	train *dataset.Dataset
	gf    *goldfinger.Set

	baseN    int32 // users covered by the base snapshot
	numUsers int32 // baseN + delta users
	numItems int32 // item-universe bound across base and delta profiles
	seq      uint64

	// rows holds materialized absolute neighbor rows for every patched
	// base user and every delta user; profiles and sigs likewise. An
	// entry's content supersedes the base arrays wholesale (it is a full
	// row, not a diff), which is what makes compaction pruning safe: a
	// stale entry is always a superset-in-time of the base content.
	rows     map[int32]rowEntry
	profiles map[int32]profEntry
	sigs     map[int32]sigEntry
}

type rowEntry struct {
	ids  []int32
	sims []float32
	seq  uint64
}

type profEntry struct {
	items []int32
	seq   uint64
}

type sigEntry struct {
	words []uint64
	ones  int32
	seq   uint64
}

// NewView returns the patch-free view of a base snapshot: every read
// resolves straight to graph and train. It is an overlay's initial view
// and the read path of an index without one; gf may be nil when the
// view only serves reads (it backs upsert scoring, not queries).
func NewView(graph *knng.Frozen, train *dataset.Dataset, gf *goldfinger.Set) *View {
	n := int32(train.NumUsers())
	return &View{graph: graph, train: train, gf: gf, baseN: n, numUsers: n, numItems: train.NumItems}
}

// NumUsers returns the number of users served: base plus delta.
func (v *View) NumUsers() int { return int(v.numUsers) }

// BaseUsers returns the number of users the base snapshot covers.
func (v *View) BaseUsers() int { return int(v.baseN) }

// NumItems returns the item-universe bound across base and delta
// profiles (every item id is below it). It implements part of
// recommend.Source.
func (v *View) NumItems() int32 { return v.numItems }

// Seq returns the upsert sequence number this view reflects.
func (v *View) Seq() uint64 { return v.seq }

// Valid reports whether u is a served user id.
func (v *View) Valid(u int32) bool { return u >= 0 && u < v.numUsers }

// Neighbors returns u's merged neighbor row — the patched row when an
// upsert touched u, the base CSR row otherwise — sorted in the
// canonical (sim desc, id asc) order. Out-of-range users get empty
// views. Zero allocations; the slices alias view storage and must not
// be mutated.
func (v *View) Neighbors(u int32) ([]int32, []float32) {
	if !v.Valid(u) {
		return nil, nil
	}
	if e, ok := v.rows[u]; ok {
		return e.ids, e.sims
	}
	if u < v.baseN {
		return v.graph.Neighbors(u)
	}
	return nil, nil
}

// Profile returns u's merged training profile (sorted, duplicate-free).
// Out-of-range users get nil. Zero allocations.
func (v *View) Profile(u int32) []int32 {
	if !v.Valid(u) {
		return nil
	}
	if e, ok := v.profiles[u]; ok {
		return e.items
	}
	if u < v.baseN {
		return v.train.Profiles[u]
	}
	return nil
}

// signature returns u's fingerprint words and popcount, preferring the
// delta entry. Callers guarantee u is valid and fingerprinted (base
// users by construction, delta users by Upsert).
func (v *View) signature(u int32) ([]uint64, int32) {
	if e, ok := v.sigs[u]; ok {
		return e.words, e.ones
	}
	return v.gf.Signature(u), int32(v.gf.Ones(u))
}
