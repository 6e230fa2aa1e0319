// Package core implements Cluster-and-Conquer (C²), the paper's primary
// contribution (§II). C² computes an approximate KNN graph in three
// steps:
//
//  1. Clustering — FastRandomHash partitions users into t×b clusters
//     (recursively split above MaxClusterSize), giving the computation a
//     high initial graph locality instead of the greedy algorithms'
//     random start.
//  2. Scheduling and local KNN — clusters are processed largest-first by
//     a worker pool; each cluster's partial KNN graph is computed in
//     isolation, by brute force when |C| < ρ·k² and by Hyrec otherwise
//     (Algorithm 2).
//  3. Merging — partial graphs are folded user-by-user into bounded
//     k-heaps, reusing the similarities already computed (Algorithm 3).
//
// Step 1 clusters the t configurations concurrently (they are
// independent) and materializes every cluster; step 2 then orders the
// whole cluster list by decreasing size (schedule.LargestFirst) and a
// schedule.Run worker pool drains it, each worker merging the cluster it
// just solved. This is the paper's synchronized decreasing-size queue
// (§II-F) with a global order, so a single-worker build is
// bit-deterministic for a fixed Seed.
//
// The package also exposes the ablations evaluated by the paper and by
// this repository's benchmarks: MinHash clustering in place of
// FastRandomHash (Table IV), splitting disabled, FIFO scheduling, and
// forced local solvers.
package core

import (
	"fmt"
	"time"

	"c2knn/internal/bruteforce"
	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/hyrec"
	"c2knn/internal/knng"
	"c2knn/internal/minhash"
	"c2knn/internal/schedule"
	"c2knn/internal/similarity"
)

// LocalSolver selects how each cluster's partial KNN graph is computed.
type LocalSolver int

const (
	// SolverHybrid applies the paper's rule: brute force when
	// |C| < ρ·k², Hyrec otherwise (Algorithm 2).
	SolverHybrid LocalSolver = iota
	// SolverBruteForce always brute-forces clusters (ablation).
	SolverBruteForce
	// SolverHyrec always runs Hyrec on clusters of more than k+1 users
	// (ablation).
	SolverHyrec
)

// String implements fmt.Stringer.
func (s LocalSolver) String() string {
	switch s {
	case SolverHybrid:
		return "hybrid"
	case SolverBruteForce:
		return "bruteforce"
	case SolverHyrec:
		return "hyrec"
	}
	return fmt.Sprintf("LocalSolver(%d)", int(s))
}

// Scheduling selects the order clusters are fed to the worker pool.
type Scheduling int

const (
	// ScheduleLargestFirst is the paper's decreasing-size priority
	// queue over every cluster of every configuration (ties in
	// production order).
	ScheduleLargestFirst Scheduling = iota
	// ScheduleFIFO processes clusters in production order —
	// configuration by configuration, each in its clustering order
	// (ablation).
	ScheduleFIFO
)

// String implements fmt.Stringer.
func (s Scheduling) String() string {
	if s == ScheduleFIFO {
		return "fifo"
	}
	return "largest-first"
}

// Options parameterizes a C² run. The zero value (after defaulting) is
// the paper's configuration: k=30, b=4096, t=8, N=2000, ρ=5, hybrid local
// solver, largest-first scheduling, recursive splitting on.
type Options struct {
	// K is the neighborhood size (default 30).
	K int
	// B is the number of clusters per hash function (default 4096).
	B int
	// T is the number of hash functions (default 8).
	T int
	// MaxClusterSize is the recursive-splitting threshold N
	// (default 2000). Ignored when DisableSplitting or UseMinHash is set.
	MaxClusterSize int
	// Rho is the ρ of the brute-force/Hyrec switch: brute force is chosen
	// when |C| < ρ·k² (default 5). It also caps the local Hyrec
	// iteration count, matching the cost model of §II-F.
	Rho int
	// Delta is the local Hyrec termination threshold (default 0.001).
	Delta float64
	// Workers sizes the cluster-processing pool (default 1). For a
	// fixed Seed the cluster set and every cluster's local solution do
	// not depend on it; with more than one worker the merge
	// interleaving, and so tie-breaking among equal-similarity
	// neighbors, can differ between runs.
	Workers int
	// Seed drives the hash family and local Hyrec initializations.
	Seed int64
	// DisableSplitting turns recursive splitting off (ablation).
	DisableSplitting bool
	// Scheduling selects the cluster processing order.
	Scheduling Scheduling
	// LocalSolver selects the per-cluster algorithm.
	LocalSolver LocalSolver
	// UseMinHash replaces FastRandomHash with classic MinHash functions
	// (one bucket per distinct min-hash value, no splitting) — the
	// C²/MinHash variant of Table IV.
	UseMinHash bool
}

func (o *Options) setDefaults() {
	if o.K == 0 {
		o.K = 30
	}
	if o.B == 0 {
		o.B = frh.DefaultB
	}
	if o.T == 0 {
		o.T = frh.DefaultT
	}
	if o.MaxClusterSize == 0 {
		o.MaxClusterSize = frh.DefaultMaxSize
	}
	if o.Rho == 0 {
		o.Rho = 5
	}
	if o.Delta == 0 {
		o.Delta = 0.001
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// Stats reports how a C² run unfolded, including the per-phase timings
// the paper's performance analysis (§II-F) rests on.
type Stats struct {
	// Clusters is the number of clusters produced by step 1.
	Clusters int
	// Splits counts recursive split operations.
	Splits int
	// MaxCluster is the largest produced cluster.
	MaxCluster int
	// BruteForced and Hyreced count solved clusters per local solver;
	// Skipped counts clusters of fewer than two users, which have no
	// pairs to evaluate. BruteForced + Hyreced + Skipped == Clusters.
	BruteForced int
	Hyreced     int
	Skipped     int
	// ClusterTime is the wall-clock duration of step 1 (hashing and
	// splitting every configuration). KNNTime is the wall-clock
	// duration of steps 2+3, from ordering the clusters to the last
	// merge (local KNN and merging interleave: each worker merges the
	// cluster it just solved). ClusterTime + KNNTime == TotalTime.
	ClusterTime time.Duration
	KNNTime     time.Duration
	// TotalTime is the end-to-end wall-clock time of Build.
	TotalTime time.Duration
}

// jobSeed derives the local-solver seed of the seq-th cluster produced
// by configuration fn. Configurations are spaced 2³² apart, far beyond
// any per-configuration cluster count. The seed depends only on the
// cluster's configuration and rank, never on the worker count or the
// processing order.
func jobSeed(seed int64, fn int, seq int64) int64 {
	return seed + int64(fn+1)<<32 + seq
}

// Build computes the approximate KNN graph of d under options o, using p
// for all similarity evaluations (GoldFinger estimates in the paper's
// default setup, exact Jaccard for the Table V "raw data" variant).
func Build(d *dataset.Dataset, p similarity.Provider, o Options) (*knng.Graph, Stats) {
	o.setDefaults()
	start := time.Now()
	clusters, cs := cluster(d, o)
	clusterEnd := time.Now()

	seeds := make([]int64, len(clusters))
	seqs := make([]int64, o.T)
	for i, c := range clusters {
		seeds[i] = jobSeed(o.Seed, c.Fn, seqs[c.Fn])
		seqs[c.Fn]++
	}
	var order []int
	if o.Scheduling == ScheduleFIFO {
		order = schedule.FIFO(len(clusters))
	} else {
		order = schedule.LargestFirst(frh.Sizes(clusters))
	}

	g := knng.New(d.NumUsers(), o.K)
	shared := knng.NewShared(g)
	// Each worker owns a scratch bundle — the gathered cluster-local
	// similarity kernel plus the local solvers' reusable buffers, so
	// steady-state cluster processing allocates nothing — and private
	// counters aggregated after the pool drains.
	workers := make([]workerState, o.Workers)
	schedule.Run(o.Workers, order, func(worker, job int) {
		ws := &workers[worker]
		users := clusters[job].Users
		if len(users) < 2 {
			ws.skipped++
			return
		}
		similarity.GatherInto(p, users, &ws.loc)
		var lists []knng.List
		if useHyrec(o, len(users)) {
			ws.hyreced++
			lists = hyrec.LocalInto(&ws.loc, o.K, hyrec.Options{
				Delta:   o.Delta,
				MaxIter: o.Rho,
				Seed:    seeds[job],
			}, &ws.hy)
		} else {
			ws.bruteForced++
			lists = bruteforce.LocalInto(&ws.loc, o.K, &ws.bf)
		}
		for i := range lists {
			shared.MergeUser(users[i], lists[i].H)
		}
	})
	end := time.Now()

	stats := Stats{
		Clusters:    cs.Clusters,
		Splits:      cs.Splits,
		MaxCluster:  cs.MaxCluster,
		ClusterTime: clusterEnd.Sub(start),
		KNNTime:     end.Sub(clusterEnd),
		TotalTime:   end.Sub(start),
	}
	for i := range workers {
		stats.BruteForced += workers[i].bruteForced
		stats.Hyreced += workers[i].hyreced
		stats.Skipped += workers[i].skipped
	}
	return g, stats
}

// cluster runs step 1: FastRandomHash (or, for the MinHash ablation,
// MinHash bucketing), every configuration concurrently, returning the
// clusters in configuration-major order.
func cluster(d *dataset.Dataset, o Options) ([]frh.Cluster, frh.Stats) {
	if o.UseMinHash {
		return minhashClusters(d, o)
	}
	fo := frh.Options{B: o.B, T: o.T, MaxSize: o.MaxClusterSize, Seed: o.Seed}
	if o.DisableSplitting {
		fo.MaxSize = -1
	}
	return frh.Build(d, fo)
}

// workerState is one worker's reusable state: the gathered similarity
// kernel, both local solvers' scratch buffers (each carrying the scored
// similarity row of its blocked sweep alongside the neighbor lists),
// and private counters.
type workerState struct {
	loc similarity.Local
	bf  bruteforce.Scratch
	hy  hyrec.Scratch

	bruteForced int
	hyreced     int
	skipped     int
}

// useHyrec applies Algorithm 2's switch rule under the configured solver
// policy. Tiny clusters (≤ k+1 users) are always brute-forced: Hyrec's
// random initialization already connects everyone to everyone there.
func useHyrec(o Options, size int) bool {
	if size <= o.K+1 {
		return false
	}
	switch o.LocalSolver {
	case SolverBruteForce:
		return false
	case SolverHyrec:
		return true
	default:
		return size >= o.Rho*o.K*o.K
	}
}

// minhashClusters builds the clusters of the C²/MinHash ablation
// (§V-C): users bucketed by t MinHash functions, one bucket set per
// function, without splitting. Each configuration lists its buckets in
// increasing hash order (minhash.Buckets), collected through the same
// per-configuration fan-out as FastRandomHash.
func minhashClusters(d *dataset.Dataset, o Options) ([]frh.Cluster, frh.Stats) {
	fam := minhash.New(o.T, o.Seed)
	return frh.Collect(o.T, func(fn int, emit func(frh.Cluster)) frh.Stats {
		var s frh.Stats
		for _, b := range fam.Buckets(fn, d.Profiles) {
			s.Clusters++
			s.MaxCluster = max(s.MaxCluster, len(b.Users))
			emit(frh.Cluster{Fn: fn, Index: b.Value, Users: b.Users})
		}
		return s
	})
}
