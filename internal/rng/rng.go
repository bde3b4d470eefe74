// Package rng centralises every source of randomness in the placer.
//
// Reproducibility is a hard requirement for placement experiments: two
// runs with the same seed must produce bit-identical placements so that
// a paper table can be regenerated. This package wraps math/rand with a
// splittable, explicitly-seeded generator: each subsystem derives its
// own child stream from a parent, so adding randomness to one module
// never perturbs the draw sequence seen by another.
package rng

import (
	"math/rand"
)

// RNG is a deterministic random stream. It is not safe for concurrent
// use; derive one stream per goroutine with Split.
type RNG struct {
	src *rand.Rand
}

// New returns a stream seeded with seed.
func New(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream. The child's seed depends
// on the parent's state and the supplied label, so distinct labels
// yield distinct streams even when requested back-to-back.
func (r *RNG) Split(label string) *RNG {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return New(h ^ r.src.Int63())
}

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Intn returns an integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Float64 returns a float in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// NormFloat64 returns a standard-normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Range returns a float uniformly drawn from [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// IntRange returns an integer uniformly drawn from [lo, hi]. It panics
// if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.src.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle randomises the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Choice returns an index in [0, len(weights)) drawn proportionally to
// the non-negative weights. If every weight is zero (or the slice is
// empty) it returns -1.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	x := r.src.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}
