// Package frh implements FastRandomHash, the clustering scheme at the
// heart of Cluster-and-Conquer (§II-D). A generative hash function
// h : I → [1, b] maps items to a small bounded range; a user's hash is the
// minimum hash over her profile, H(u) = min_{i∈P_u} h(i). Each of t
// independent generative functions yields one clustering configuration of
// b clusters, so similar users — who share items — collide in at least one
// configuration with probability growing exponentially in t (Theorem 1).
//
// The min aggregation biases users towards low cluster indices, so
// oversized clusters are recursively split (§II-D, Fig. 3): a cluster C
// with index η_C larger than MaxSize redistributes its users by
// H\η_C(u) = min{h(i) : i ∈ P_u, h(i) > η_C}. Users with no item hashed
// above η_C (in particular single-item users) and users who would land
// alone in their new cluster remain in C.
package frh

import (
	"sort"

	"c2knn/internal/dataset"
	"c2knn/internal/jenkins"
	"c2knn/internal/schedule"
)

// Options parameterizes the clustering. Zero fields take the paper's
// defaults.
type Options struct {
	// B is the number of clusters per hash function (default 4096).
	B int
	// T is the number of hash functions, i.e. clustering configurations
	// (default 8; the paper uses 15 on DBLP and Gowalla).
	T int
	// MaxSize is the recursive-splitting threshold N (default 2000).
	// Negative disables splitting.
	MaxSize int
	// Seed selects the family of generative hash functions.
	Seed int64
}

// DefaultB, DefaultT and DefaultMaxSize are the paper's default
// parameters (§IV-C).
const (
	DefaultB       = 4096
	DefaultT       = 8
	DefaultMaxSize = 2000
)

func (o *Options) setDefaults() {
	if o.B == 0 {
		o.B = DefaultB
	}
	if o.T == 0 {
		o.T = DefaultT
	}
	if o.MaxSize == 0 {
		o.MaxSize = DefaultMaxSize
	}
}

// Cluster is one cluster of one clustering configuration.
type Cluster struct {
	// Fn identifies the generative hash function (configuration) in
	// [0, T).
	Fn int
	// Index is the FastRandomHash value η_C shared by the cluster's
	// users, in [1, B]. After a split, the index of a child cluster is
	// the (higher) hash value that formed it.
	Index uint32
	// Users lists the member user ids.
	Users []int32
}

// Stats describes the outcome of a clustering run.
type Stats struct {
	// Clusters is the total number of clusters across all configurations.
	Clusters int
	// Splits counts split operations performed.
	Splits int
	// MaxCluster is the size of the largest final cluster.
	MaxCluster int
	// Depth is the deepest recursion reached by the splitting.
	Depth int
	// PerFn is the number of clusters per configuration.
	PerFn []int
}

// Hasher precomputes, for each configuration, the hash of every item, so
// user hashes are simple scans of profile-indexed tables.
type Hasher struct {
	b      int
	t      int
	tables [][]uint16 // tables[fn][item] ∈ [1, b]
	seeds  []uint32   // per-configuration seeds, for items beyond the tables
}

// NewHasher builds the per-item hash tables for a dataset. b must be at
// most 65535 (values are stored in uint16; the paper's default is 4096).
func NewHasher(numItems int32, o Options) *Hasher {
	o.setDefaults()
	if o.B > 0xffff {
		panic("frh: B must fit in 16 bits")
	}
	fam := jenkins.NewFamily(o.T, o.Seed)
	h := &Hasher{b: o.B, t: o.T, tables: make([][]uint16, o.T), seeds: make([]uint32, o.T)}
	for fn := 0; fn < o.T; fn++ {
		tab := make([]uint16, numItems)
		seed := fam.Seed(fn)
		h.seeds[fn] = seed
		for it := int32(0); it < numItems; it++ {
			tab[it] = uint16(jenkins.Hash32(uint32(it), seed)%uint32(o.B)) + 1
		}
		h.tables[fn] = tab
	}
	return h
}

// itemHashAny returns h_fn(item) for any non-negative item id: a table
// lookup inside the precomputed universe, a direct hash beyond it.
// Profiles arriving through the delta-overlay path may reference items
// the build never saw; both ranges use the same seeded hash, so the two
// paths agree wherever they overlap.
func (h *Hasher) itemHashAny(fn int, item int32) uint32 {
	if tab := h.tables[fn]; int(item) < len(tab) {
		return uint32(tab[item])
	}
	return jenkins.Hash32(uint32(item), h.seeds[fn])%uint32(h.b) + 1
}

// UserHashAny is UserHash for profiles that may carry item ids beyond
// the precomputed tables (incremental upserts with new items). On
// profiles inside the build universe it returns exactly UserHash's
// value.
func (h *Hasher) UserHashAny(fn int, profile []int32) (uint32, bool) {
	if len(profile) == 0 {
		return 0, false
	}
	best := h.itemHashAny(fn, profile[0])
	for _, it := range profile[1:] {
		if v := h.itemHashAny(fn, it); v < best {
			best = v
		}
	}
	return best, true
}

// UserHashAboveAny is UserHashAbove for profiles that may carry item
// ids beyond the precomputed tables; see UserHashAny.
func (h *Hasher) UserHashAboveAny(fn int, profile []int32, eta uint32) (uint32, bool) {
	best := uint32(0)
	for _, it := range profile {
		v := h.itemHashAny(fn, it)
		if v > eta && (best == 0 || v < best) {
			best = v
		}
	}
	return best, best != 0
}

// B returns the number of clusters per configuration.
func (h *Hasher) B() int { return h.b }

// T returns the number of configurations.
func (h *Hasher) T() int { return h.t }

// ItemHash returns h_fn(item) ∈ [1, B].
func (h *Hasher) ItemHash(fn int, item int32) uint32 {
	return uint32(h.tables[fn][item])
}

// UserHash returns H_fn(u) = min over the profile's item hashes. Empty
// profiles report ok=false.
func (h *Hasher) UserHash(fn int, profile []int32) (uint32, bool) {
	if len(profile) == 0 {
		return 0, false
	}
	tab := h.tables[fn]
	best := tab[profile[0]]
	for _, it := range profile[1:] {
		if v := tab[it]; v < best {
			best = v
		}
	}
	return uint32(best), true
}

// UserHashAbove returns H\η(u) = min{h(i) : h(i) > η}, the splitting hash
// of §II-D. ok is false when no item hashes above η (such users remain in
// the cluster being split).
func (h *Hasher) UserHashAbove(fn int, profile []int32, eta uint32) (uint32, bool) {
	tab := h.tables[fn]
	best := uint32(0)
	for _, it := range profile {
		v := uint32(tab[it])
		if v > eta && (best == 0 || v < best) {
			best = v
		}
	}
	return best, best != 0
}

// Build runs the full clustering of d: t configurations of b clusters
// each, recursively splitting clusters larger than MaxSize. Users with an
// empty profile are skipped: their hash is undefined, and since they
// cannot share an item with anyone their similarity to every other user
// is zero, so clustering them (historically into cluster 1 of every
// configuration) only inflated that cluster's O(|C|²) local work with
// guaranteed-zero-similarity pairs. The algorithm's guarantees only
// concern users that share items, so skipping preserves them.
func Build(d *dataset.Dataset, o Options) ([]Cluster, Stats) {
	o.setDefaults()
	h := NewHasher(d.NumItems, o)
	return BuildWithHasher(d, h, o)
}

// BuildWithHasher is Build with a caller-provided Hasher, so experiments
// sweeping MaxSize (Fig. 7 and 8) reuse the same hash tables across runs.
// The t configurations are clustered concurrently; the returned slice is
// always in the same deterministic configuration-major order.
func BuildWithHasher(d *dataset.Dataset, h *Hasher, o Options) ([]Cluster, Stats) {
	o.setDefaults()
	return Collect(h.t, func(fn int, emit func(Cluster)) Stats {
		return buildFn(d, h, o, fn, emit)
	})
}

// Collect runs build for every configuration concurrently (ForEachFn)
// and returns the clusters each one emits, concatenated in
// configuration-major order, with the merged stats. It is how Build and
// core's MinHash clustering materialize their cluster lists.
func Collect(t int, build func(fn int, emit func(Cluster)) Stats) ([]Cluster, Stats) {
	perFn := make([][]Cluster, t)
	stats := MergeStats(ForEachFn(t, func(fn int) Stats {
		return build(fn, func(c Cluster) { perFn[fn] = append(perFn[fn], c) })
	}))
	clusters := make([]Cluster, 0, stats.Clusters)
	for _, cs := range perFn {
		clusters = append(clusters, cs...)
	}
	return clusters, stats
}

// Stream clusters d like Build but emits each cluster as soon as it is
// finalized instead of materializing the full list. emit is invoked
// concurrently from the configuration goroutines and must be safe for
// concurrent use. Within one configuration, clusters arrive in the same
// deterministic order BuildWithHasher would list them; the interleaving
// across configurations is scheduling-dependent, but the emitted cluster
// *set* is identical to Build's for the same seed. Stream returns once
// every configuration has finished emitting.
func Stream(d *dataset.Dataset, o Options, emit func(Cluster)) Stats {
	o.setDefaults()
	h := NewHasher(d.NumItems, o)
	return MergeStats(ForEachFn(h.t, func(fn int) Stats {
		return buildFn(d, h, o, fn, emit)
	}))
}

// ForEachFn runs build for every configuration, one goroutine each —
// the t configurations are independent — and returns the per-
// configuration stats. It is the fan-out shared by Build, Stream and
// the delta overlay's bucket index.
func ForEachFn(t int, build func(fn int) Stats) []Stats {
	fnStats := make([]Stats, t)
	schedule.Run(t, schedule.FIFO(t), func(_, fn int) {
		fnStats[fn] = build(fn)
	})
	return fnStats
}

// buildFn clusters one configuration, invoking emit for every finalized
// cluster in a deterministic order (buckets by increasing index, split
// children depth-first by increasing split hash). The returned Stats
// describe this configuration only; PerFn is left nil for the caller to
// assemble.
func buildFn(d *dataset.Dataset, h *Hasher, o Options, fn int, emit func(Cluster)) Stats {
	var stats Stats
	buckets := make([][]int32, h.b+1) // index 0 unused; hashes ∈ [1, b]
	for u, p := range d.Profiles {
		idx, ok := h.UserHash(fn, p)
		if !ok {
			continue // empty profile: see Build
		}
		buckets[idx] = append(buckets[idx], int32(u))
	}
	for idx, users := range buckets {
		if len(users) == 0 {
			continue
		}
		final := splitRecursive(d, h, &stats, o, fn, Cluster{Fn: fn, Index: uint32(idx), Users: users}, 0)
		for _, c := range final {
			if len(c.Users) > stats.MaxCluster {
				stats.MaxCluster = len(c.Users)
			}
			stats.Clusters++
			emit(c)
		}
	}
	return stats
}

// MergeStats folds per-configuration stats into the aggregate view
// Build has always reported.
func MergeStats(fnStats []Stats) Stats {
	merged := Stats{PerFn: make([]int, len(fnStats))}
	for fn, s := range fnStats {
		merged.Clusters += s.Clusters
		merged.Splits += s.Splits
		merged.PerFn[fn] = s.Clusters
		if s.MaxCluster > merged.MaxCluster {
			merged.MaxCluster = s.MaxCluster
		}
		if s.Depth > merged.Depth {
			merged.Depth = s.Depth
		}
	}
	return merged
}

// splitRecursive applies the recursive splitting rule to c and returns the
// final clusters it decomposes into. The remainder cluster — users with no
// item hashed above c.Index plus users returned from singleton children —
// keeps c's index and is final: re-splitting it with the same η would
// reproduce the same partition and never terminate, which is why the paper
// leaves those users in C.
func splitRecursive(d *dataset.Dataset, h *Hasher, stats *Stats, o Options, fn int, c Cluster, depth int) []Cluster {
	if o.MaxSize < 0 || len(c.Users) <= o.MaxSize {
		if depth > stats.Depth {
			stats.Depth = depth
		}
		return []Cluster{c}
	}
	stats.Splits++
	children := make(map[uint32][]int32)
	var remainder []int32
	for _, u := range c.Users {
		idx, ok := h.UserHashAbove(fn, d.Profiles[u], c.Index)
		if !ok {
			remainder = append(remainder, u)
			continue
		}
		children[idx] = append(children[idx], u)
	}
	// Iterate children in index order: map iteration order would make
	// the cluster list differ between identical runs.
	indices := make([]uint32, 0, len(children))
	for idx := range children {
		indices = append(indices, idx)
	}
	sort.Slice(indices, func(i, j int) bool { return indices[i] < indices[j] })
	var out []Cluster
	for _, idx := range indices {
		users := children[idx]
		if len(users) == 1 {
			// Singleton children return to C (§II-D).
			remainder = append(remainder, users[0])
			continue
		}
		out = append(out, splitRecursive(d, h, stats, o, fn, Cluster{Fn: fn, Index: idx, Users: users}, depth+1)...)
	}
	if len(remainder) > 0 {
		if depth > stats.Depth {
			stats.Depth = depth
		}
		out = append(out, Cluster{Fn: fn, Index: c.Index, Users: remainder})
	}
	return out
}

// Sizes returns the sizes of the given clusters.
func Sizes(clusters []Cluster) []int {
	s := make([]int, len(clusters))
	for i := range clusters {
		s[i] = len(clusters[i].Users)
	}
	return s
}

// TopSizes returns the sizes of the m largest clusters in decreasing
// order (fewer if there are fewer clusters) — the series plotted in
// Fig. 8.
func TopSizes(clusters []Cluster, m int) []int {
	s := Sizes(clusters)
	sort.Sort(sort.Reverse(sort.IntSlice(s)))
	if len(s) > m {
		s = s[:m]
	}
	return s
}
