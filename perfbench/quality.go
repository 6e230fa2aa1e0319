package main

import (
	"math/rand"
	"slices"
)

// exactIndex answers exact raw-profile Jaccard similarities of one user
// against every other user through an item → users posting list, so a
// user's scan costs the summed popularity of its items rather than a
// pass over the whole dataset. It is the benchmark's own reference,
// independent of the fingerprints the graph was built with.
type exactIndex struct {
	profiles [][]int32
	postings [][]int32
	counts   []int32 // per-user intersection scratch
	touched  []int32
}

func newExactIndex(profiles [][]int32, numItems int) *exactIndex {
	pop := make([]int32, numItems)
	for _, p := range profiles {
		for _, it := range p {
			pop[it]++
		}
	}
	postings := make([][]int32, numItems)
	for it, c := range pop {
		postings[it] = make([]int32, 0, c)
	}
	for u, p := range profiles {
		for _, it := range p {
			postings[it] = append(postings[it], int32(u))
		}
	}
	return &exactIndex{profiles: profiles, postings: postings, counts: make([]int32, len(profiles))}
}

// scan fills x.counts with |P_u ∩ P_v| for every v sharing an item with
// u (listed in x.touched); the caller must call reset afterwards.
func (x *exactIndex) scan(u int32) {
	for _, it := range x.profiles[u] {
		for _, v := range x.postings[it] {
			if v == u {
				continue
			}
			if x.counts[v] == 0 {
				x.touched = append(x.touched, v)
			}
			x.counts[v]++
		}
	}
}

func (x *exactIndex) reset() {
	for _, v := range x.touched {
		x.counts[v] = 0
	}
	x.touched = x.touched[:0]
}

func (x *exactIndex) jaccard(u, v int32) float64 {
	inter := float64(x.counts[v])
	if inter == 0 {
		return 0
	}
	return inter / (float64(len(x.profiles[u])+len(x.profiles[v])) - inter)
}

// quality is the paper's Eq. 2 restricted to users: the summed exact
// similarity of each user's served neighbors over the summed exact
// similarity of its k truly most similar users. Over every user it
// equals c2knn.Quality against the exact graph.
func (x *exactIndex) quality(users []int32, k int, neighbors func(u int32) []int32) float64 {
	var approx, exact float64
	var best []float64
	for _, u := range users {
		x.scan(u)
		for _, v := range neighbors(u) {
			approx += x.jaccard(u, v)
		}
		// best keeps the k largest similarities, ascending once full.
		best = best[:0]
		for _, v := range x.touched {
			s := x.jaccard(u, v)
			if len(best) < k {
				best = append(best, s)
				if len(best) == k {
					slices.Sort(best)
				}
				continue
			}
			if s <= best[0] {
				continue
			}
			i := 1
			for ; i < k && best[i] < s; i++ {
				best[i-1] = best[i]
			}
			best[i-1] = s
		}
		for _, s := range best {
			exact += s
		}
		x.reset()
	}
	if exact == 0 {
		return 0
	}
	return approx / exact
}

// sample returns up to m distinct users of pool, drawn from rng.
func sample(rng *rand.Rand, pool []int32, m int) []int32 {
	if len(pool) <= m {
		return slices.Clone(pool)
	}
	out := make([]int32, m)
	for i, j := range rng.Perm(len(pool))[:m] {
		out[i] = pool[j]
	}
	return out
}
