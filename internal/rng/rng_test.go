package rng

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must yield identical streams")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/50 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children with different labels must differ; same construction
	// must reproduce.
	p1, p2 := New(7), New(7)
	a1 := p1.Split("alpha")
	b1 := p1.Split("beta")
	a2 := p2.Split("alpha")
	b2 := p2.Split("beta")
	if a1.Int63() != a2.Int63() {
		t.Error("same-label splits from identical parents must match")
	}
	if b1.Int63() != b2.Int63() {
		t.Error("same-label splits from identical parents must match")
	}
	c1, c2 := New(7).Split("x"), New(7).Split("y")
	if c1.Int63() == c2.Int63() {
		t.Error("different labels should yield different streams")
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestIntRangeBounds(t *testing.T) {
	r := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange out of bounds: %v", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Errorf("IntRange never produced %d", v)
		}
	}
}

func TestIntRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IntRange(5, 3) should panic")
		}
	}()
	New(1).IntRange(5, 3)
}

func TestChoiceWeighted(t *testing.T) {
	r := New(5)
	counts := [3]int{}
	w := []float64{0, 1, 3}
	for i := 0; i < 8000; i++ {
		c := r.Choice(w)
		if c < 0 || c > 2 {
			t.Fatalf("Choice out of range: %d", c)
		}
		counts[c]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.5 {
		t.Errorf("weight-3 / weight-1 ratio = %v, want ≈3", ratio)
	}
}

func TestChoiceDegenerate(t *testing.T) {
	r := New(6)
	if got := r.Choice(nil); got != -1 {
		t.Errorf("Choice(nil) = %d, want -1", got)
	}
	if got := r.Choice([]float64{0, 0, 0}); got != -1 {
		t.Errorf("Choice(all zero) = %d, want -1", got)
	}
	if got := r.Choice([]float64{0, 0, 5}); got != 2 {
		t.Errorf("Choice(single positive) = %d, want 2", got)
	}
	// Negative weights are ignored.
	if got := r.Choice([]float64{-1, 0, 2}); got != 2 {
		t.Errorf("Choice(negative ignored) = %d, want 2", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(10)
	s := []int{1, 2, 3, 4, 5}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 15 {
		t.Errorf("shuffle lost elements: %v", s)
	}
}

func TestNormFloat64Distribution(t *testing.T) {
	r := New(12)
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("variance = %v, want ≈1", variance)
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(14)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
}

// TestTapeReadersReplayTheSource: readers from any offset, created in
// any order and interleaved, return the source's own draws from that
// offset on — raw, through Float64 and Intn, and across a retry that
// Float64 takes on a value that rounds to 1.
func TestTapeReadersReplayTheSource(t *testing.T) {
	want := New(3)
	var raw [64]int64
	for i := range raw {
		raw[i] = want.Int63()
	}
	raw[9] = 1<<63 - 1 // Float64 rejects it and draws again
	tape := NewTape(&script{vals: raw[:]})
	late, early := tape.Reader(40), tape.Reader(2)
	for i := 0; i < 10; i++ {
		if v := late.Int63(); v != raw[40+i] {
			t.Fatalf("reader from 40, draw %d: %d, want %d", i, v, raw[40+i])
		}
		if v := early.Int63(); v != raw[2+i] {
			t.Fatalf("reader from 2, draw %d: %d, want %d", i, v, raw[2+i])
		}
	}
	if late.Off() != 50 || early.Off() != 12 {
		t.Fatalf("offsets %d and %d, want 50 and 12", late.Off(), early.Off())
	}
	retry := tape.Reader(9)
	if f, want := retry.Float64(), float64(raw[10])/(1<<63); f != want || retry.Off() != 11 {
		t.Fatalf("Float64 over a rejected draw = %v at offset %d, want %v at 11", f, retry.Off(), want)
	}
	if n, want := tape.Reader(20).Intn(7), int(int32(raw[20]>>32)%7); n != want {
		t.Fatalf("Intn(7) from 20 = %d, want %d", n, want)
	}
}

// TestTapeConcurrentReaders: readers on several goroutines, which
// between them extend the recording, each see the source's sequence
// (run under -race).
func TestTapeConcurrentReaders(t *testing.T) {
	src := New(11)
	var raw [400]int64
	for i := range raw {
		raw[i] = src.Int63()
	}
	tape := NewTape(New(11))
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := tape.Reader(g * 100)
			for i := 0; i < 100; i++ {
				if v := rd.Int63(); v != raw[g*100+i] {
					errs <- fmt.Sprintf("reader %d draw %d differs from the source", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// script is a Source that returns fixed values.
type script struct {
	vals []int64
	n    int
}

func (s *script) Int63() int64 {
	v := s.vals[s.n]
	s.n++
	return v
}
