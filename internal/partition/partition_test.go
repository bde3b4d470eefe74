package partition

import (
	"math"
	"testing"

	"macroplace/internal/rng"
)

// twoClusters builds a hypergraph with two densely-connected groups
// joined by a single bridging net: the optimal cut is 1.
func twoClusters() *Hypergraph {
	h := NewHypergraph(8)
	for i := range h.Areas {
		h.Areas[i] = 1
	}
	// Clique-ish nets inside {0..3} and {4..7}.
	h.AddNet([]int{0, 1}, 1)
	h.AddNet([]int{1, 2}, 1)
	h.AddNet([]int{2, 3}, 1)
	h.AddNet([]int{0, 3}, 1)
	h.AddNet([]int{4, 5}, 1)
	h.AddNet([]int{5, 6}, 1)
	h.AddNet([]int{6, 7}, 1)
	h.AddNet([]int{4, 7}, 1)
	h.AddNet([]int{3, 4}, 1) // bridge
	h.Finalize()
	return h
}

func TestBipartitionFindsNaturalCut(t *testing.T) {
	h := twoClusters()
	res := Bipartition(h, Config{Seed: 1})
	if res.Cut != 1 {
		t.Errorf("cut = %v, want 1 (the bridge)", res.Cut)
	}
	// The two cliques must land on opposite sides, intact.
	for i := 1; i < 4; i++ {
		if res.Part[i] != res.Part[0] {
			t.Errorf("vertex %d split from cluster A", i)
		}
	}
	for i := 5; i < 8; i++ {
		if res.Part[i] != res.Part[4] {
			t.Errorf("vertex %d split from cluster B", i)
		}
	}
	if res.Part[0] == res.Part[4] {
		t.Error("clusters on the same side")
	}
}

func TestBipartitionRespectsBalance(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		n := 30
		h := NewHypergraph(n)
		var total float64
		for i := range h.Areas {
			h.Areas[i] = r.Range(1, 5)
			total += h.Areas[i]
		}
		for e := 0; e < 60; e++ {
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				h.AddNet([]int{a, b}, 1)
			}
		}
		h.Finalize()
		cfg := Config{Balance: 0.6, Seed: int64(trial)}
		res := Bipartition(h, cfg)
		var side0 float64
		for v, p := range res.Part {
			if p == 0 {
				side0 += h.Areas[v]
			}
		}
		if side0 > 0.6*total+1e-9 || total-side0 > 0.6*total+1e-9 {
			t.Fatalf("trial %d: balance violated: %v / %v of %v", trial, side0, total-side0, total)
		}
	}
}

func TestBipartitionNeverWorseThanInitial(t *testing.T) {
	// FM with best-prefix rollback can only improve or match the
	// starting cut. Bipartition always runs a pass, so its initial
	// assignment is not observable; assert final <= a freshly computed
	// random-assignment cut averaged over seeds instead.
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		n := 24
		h := NewHypergraph(n)
		for i := range h.Areas {
			h.Areas[i] = 1
		}
		for e := 0; e < 50; e++ {
			a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
			h.AddNet([]int{a, b, c}, 1)
		}
		h.Finalize()
		res := Bipartition(h, Config{Seed: int64(trial)})
		// Random balanced assignment for comparison.
		part := make([]int, n)
		for i := range part {
			part[i] = i % 2
		}
		if res.Cut > h.CutSize(part)+1e-9 {
			// Not a strict guarantee (different initial assignments),
			// but FM collapsing to worse-than-naive signals a bug.
			t.Errorf("trial %d: FM cut %v worse than naive alternating %v", trial, res.Cut, h.CutSize(part))
		}
	}
}

func TestCutSize(t *testing.T) {
	h := NewHypergraph(4)
	for i := range h.Areas {
		h.Areas[i] = 1
	}
	h.AddNet([]int{0, 1}, 2)
	h.AddNet([]int{2, 3}, 1)
	h.AddNet([]int{0, 3}, 1)
	h.Finalize()
	part := []int{0, 0, 1, 1}
	if got := h.CutSize(part); got != 1 {
		t.Errorf("cut = %v, want 1 (only the 0-3 net)", got)
	}
	part = []int{0, 1, 0, 1}
	if got := h.CutSize(part); got != 4 {
		t.Errorf("cut = %v, want 4 (2+1+1)", got)
	}
}

func TestAddNetDedupsAndDropsDegenerate(t *testing.T) {
	h := NewHypergraph(3)
	if e := h.AddNet([]int{1, 1, 1}, 1); e != -1 {
		t.Error("single-vertex net should be dropped")
	}
	e := h.AddNet([]int{0, 1, 1, 2}, 1)
	if e != 0 || len(h.Nets[0]) != 3 {
		t.Errorf("dedup failed: %v", h.Nets)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		h := twoClusters()
		return Bipartition(h, Config{Seed: 5}).Cut
	}
	if a, b := run(), run(); a != b || math.IsNaN(a) {
		t.Errorf("not deterministic: %v vs %v", a, b)
	}
}
