package nn

import (
	"math"
	"testing"

	"macroplace/internal/rng"
)

// The blocked/unrolled matmul kernels carry a bit-identity contract:
// for every output element the k-axis contributions accumulate in
// strictly increasing p order, exactly like the naive oracle, so
// blocking must be invisible at the float32 bit level. The tests below
// pin exact equality (not tolerance) on shapes chosen to exercise
// every tile-remainder and unroll-remainder path: primes and odd sizes
// straddling the mmTileK/mmTileN boundaries and the 4-wide unroll.

var exactShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {3, 5, 7}, {7, 3, 5}, {13, 11, 17},
	{2, 129, 3}, {3, 131, 259}, {5, 257, 31}, {1, 128, 256},
	{4, 130, 258}, {29, 37, 41},
	// Above matmulParallelThreshold: MatMul's row fan-out engages
	// (when GOMAXPROCS > 1) with an uneven last chunk.
	{33, 200, 161},
}

func fillNorm(r *rng.RNG, s []float32) {
	for i := range s {
		s[i] = float32(r.NormFloat64())
	}
}

func requireExact(t *testing.T, what string, shape [3]int, got, want []float32) {
	t.Helper()
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s %v: element %d = %v (bits %x), oracle %v (bits %x)",
				what, shape, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestMatMulExactlyMatchesNaiveOnOddShapes(t *testing.T) {
	r := rng.New(21)
	for _, sh := range exactShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fillNorm(r, a)
		fillNorm(r, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMul(got, a, b, m, k, n)
		naiveMatMul(want, a, b, m, k, n)
		requireExact(t, "MatMul", sh, got, want)
	}
}

func TestMatMulBiasExactlyMatchesSeparateEpilogues(t *testing.T) {
	r := rng.New(22)
	for _, sh := range exactShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		bias := make([]float32, m)
		fillNorm(r, a)
		fillNorm(r, b)
		fillNorm(r, bias)
		for _, relu := range []bool{false, true} {
			got := make([]float32, m*n)
			MatMulBias(got, a, b, bias, m, k, n, relu)
			want := make([]float32, m*n)
			naiveMatMul(want, a, b, m, k, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					v := want[i*n+j] + bias[i]
					if relu && v < 0 {
						v = 0
					}
					want[i*n+j] = v
				}
			}
			requireExact(t, "MatMulBias", sh, got, want)
		}
	}
}

// naiveATB is the pre-blocking MatMulATB: contributions accumulate in
// increasing p order per output element.
func naiveATB(c, a, b []float32, m, k, n int) {
	for x := 0; x < m*n; x++ {
		c[x] = 0
	}
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += av * b[p*n+j]
			}
		}
	}
}

func TestMatMulATBExactlyMatchesNaive(t *testing.T) {
	r := rng.New(23)
	for _, sh := range exactShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, k*m)
		b := make([]float32, k*n)
		fillNorm(r, a)
		fillNorm(r, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMulATB(got, a, b, m, k, n)
		naiveATB(want, a, b, m, k, n)
		requireExact(t, "MatMulATB", sh, got, want)
	}
}

func TestMatMulABTAccExactlyMatchesNaive(t *testing.T) {
	r := rng.New(24)
	for _, sh := range exactShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, n*k)
		fillNorm(r, a)
		fillNorm(r, b)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		fillNorm(r, got) // accumulation must add onto prior contents
		copy(want, got)
		MatMulABTAcc(got, a, b, m, k, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float32
				for p := 0; p < k; p++ {
					s += a[i*k+p] * b[j*k+p]
				}
				want[i*n+j] += s
			}
		}
		requireExact(t, "MatMulABTAcc", sh, got, want)
	}
}

func TestWorkspaceVariantsBitIdenticalToAllocating(t *testing.T) {
	const cin, cout, kk, h, w, batch = 3, 4, 3, 5, 5, 3
	hw := h * w
	r := rng.New(25)
	conv := NewConv2D("c", cin, cout, kk, r)
	fillNorm(r, conv.Bias.W)
	bn := NewBatchNorm2D("b", cout)
	fillNorm(r, bn.Gamma.W)
	fillNorm(r, bn.Beta.W)
	rb := NewResBlock("r", cout, r)
	lin := NewLinear("l", hw, 7, r)

	x := make([]float32, cin*batch*hw)
	fillNorm(r, x)

	var ws Workspace
	for pass := 0; pass < 3; pass++ { // pass 0 warms the arena
		ws.Reset()
		co := conv.ForwardBatchWS(&ws, x, batch, h, w, false)
		requireExact(t, "Conv2D.ForwardBatchWS", [3]int{pass, 0, 0},
			co, conv.ForwardBatch(x, batch, h, w))

		bo := bn.ForwardBatchWS(&ws, co, batch, hw, true)
		requireExact(t, "BatchNorm2D.ForwardBatchWS+ReLU", [3]int{pass, 0, 0},
			bo, ReLUBatch(bn.ForwardBatch(co, batch, hw)))

		ro := rb.ForwardBatchWS(&ws, bo, batch, h, w)
		requireExact(t, "ResBlock.ForwardBatchWS", [3]int{pass, 0, 0},
			ro, rb.ForwardBatch(bo, batch, h, w))

		li := lin.ApplyInto(ws.Take(7), ro[:hw], true)
		requireExact(t, "Linear.ApplyInto+ReLU", [3]int{pass, 0, 0},
			li, ReLUBatch(lin.Apply(ro[:hw])))
	}
}

func TestWorkspaceZeroAllocationsAfterWarmup(t *testing.T) {
	const cin, cout, h, w, batch = 2, 3, 6, 6, 4
	r := rng.New(26)
	conv := NewConv2D("c", cin, cout, 3, r)
	x := make([]float32, cin*batch*h*w)
	fillNorm(r, x)

	var ws Workspace
	ws.Reset()
	conv.ForwardBatchWS(&ws, x, batch, h, w, true) // warm-up pass
	allocs := testing.AllocsPerRun(20, func() {
		ws.Reset()
		conv.ForwardBatchWS(&ws, x, batch, h, w, true)
	})
	if allocs != 0 {
		t.Fatalf("warm workspace pass allocates %v times, want 0", allocs)
	}
}

func TestWorkspaceNilIsValid(t *testing.T) {
	var ws *Workspace
	ws.Reset() // must not panic
	buf := ws.Take(5)
	if len(buf) != 5 {
		t.Fatalf("nil workspace Take returned len %d", len(buf))
	}
}
