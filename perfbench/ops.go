package main

import (
	"math/rand"
)

// An op is one request of a closed-loop stream: a recommendation read
// for user, or (write) an upsert of items, where user -1 inserts a new
// user and any other id adds the items to that user's profile.
type op struct {
	write bool
	user  int32
	items []int32
}

// Phase numbers give every operation stream its own random stream, so
// changing one phase's length never shifts another phase's inputs.
const (
	phasePopularity = iota
	phaseReads
	phaseSaturation
	phaseWrites
	phaseQuiesce
	phaseSample
	phaseDeep
	phaseShallow
)

// phaseRNG returns the random stream of one phase of a run.
func phaseRNG(seed int64, phase int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(phase)))
}

// popularity draws the users reads go to: uniformly, or Zipf-distributed
// (exponent s > 1) over a seeded permutation of the users, so the hot
// users are spread over the id space rather than being the low ids.
type popularity struct {
	n    int
	perm []int32
	s    float64
}

func newPopularity(seed int64, n int, s float64) popularity {
	p := popularity{n: n, s: s}
	if s > 0 {
		p.perm = make([]int32, n)
		for i, v := range phaseRNG(seed, phasePopularity).Perm(n) {
			p.perm[i] = int32(v)
		}
	}
	return p
}

// drawer returns a function drawing read targets from rng.
func (p popularity) drawer(rng *rand.Rand) func() int32 {
	if p.s == 0 {
		return func() int32 { return int32(rng.Intn(p.n)) }
	}
	z := rand.NewZipf(rng, p.s, 1, uint64(p.n-1))
	return func() int32 { return p.perm[z.Uint64()] }
}

// reads returns count read ops drawn from rng.
func (p popularity) reads(rng *rand.Rand, count int) []op {
	draw := p.drawer(rng)
	out := make([]op, count)
	for i := range out {
		out[i] = op{user: draw()}
	}
	return out
}

// newUpsert draws one write over the base profiles. Three in four
// insert a new user whose profile is a perturbed copy of a random
// user's, so it lands in populated clusters as a newcomer similar to
// someone would; the rest add a few items to an existing user.
func newUpsert(rng *rand.Rand, profiles [][]int32) op {
	n := len(profiles)
	if rng.Intn(4) == 0 {
		u := int32(rng.Intn(n))
		return op{write: true, user: u, items: pick(rng, profiles[rng.Intn(n)], 5)}
	}
	src, other := profiles[rng.Intn(n)], profiles[rng.Intn(n)]
	items := make([]int32, 0, len(src)+8)
	for _, it := range src {
		if rng.Intn(5) != 0 {
			items = append(items, it)
		}
	}
	items = append(items, pick(rng, other, 8)...)
	if len(items) == 0 {
		items = append(items, src[0])
	}
	return op{write: true, user: -1, items: items}
}

// pick returns m items drawn from profile with replacement.
func pick(rng *rand.Rand, profile []int32, m int) []int32 {
	out := make([]int32, m)
	for i := range out {
		out[i] = profile[rng.Intn(len(profile))]
	}
	return out
}

// writes returns count upserts drawn from rng.
func writes(rng *rand.Rand, count int, profiles [][]int32) []op {
	out := make([]op, count)
	for i := range out {
		out[i] = newUpsert(rng, profiles)
	}
	return out
}

// mixed returns a stream of count ops in which every run of every reads
// is followed by one upsert.
func mixed(rng *rand.Rand, count, every int, pop popularity, profiles [][]int32) []op {
	draw := pop.drawer(rng)
	out := make([]op, 0, count)
	for len(out) < count {
		if (len(out)+1)%(every+1) == 0 {
			out = append(out, newUpsert(rng, profiles))
		} else {
			out = append(out, op{user: draw()})
		}
	}
	return out
}
