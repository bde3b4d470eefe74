package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"macroplace/internal/rng"
)

// The register-blocked matmul kernels carry a bit-identity contract:
// every output element sums its products from +0 in strictly
// increasing p in one float32 accumulator, exactly like the naive
// oracles, so blocking must be invisible at the float32 bit level. The
// tests below pin exact equality (not tolerance) on the daemon tower's
// real products and on shapes that hit every row and column remainder
// of the 4×2 and 2×4 blocks, at several GOMAXPROCS so MatMul's row
// fan-out and its chunk boundaries are covered on any host.

var exactShapes = func() [][3]int {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {3, 5, 7}, {7, 3, 5}, {13, 11, 17},
		{2, 129, 3}, {3, 131, 259}, {5, 257, 31}, {1, 128, 256},
		{4, 130, 258}, {29, 37, 41},
		// The daemon tower (ζ=16, 16 channels) as m×k×n of each
		// kernel. Forward (MatMul): residual conv, input conv, policy
		// and value heads.
		{16, 144, 256}, {16, 9, 256}, {2, 16, 256}, {1, 18, 256},
		// Input gradient (MatMulATB).
		{144, 16, 256}, {9, 16, 256}, {16, 2, 256}, {18, 1, 256},
		// Weight gradient (MatMulABTAcc).
		{16, 256, 144}, {16, 256, 9}, {2, 256, 16}, {1, 256, 18},
		// Above matmulParallelThreshold: MatMul's row fan-out engages
		// (when GOMAXPROCS > 1) with a last chunk that ends in a row
		// remainder.
		{33, 200, 161}, {30, 200, 175},
	}
	// Every row and column remainder of both block shapes, including
	// outputs smaller than one block.
	for m := 1; m <= 9; m++ {
		for n := 1; n <= 9; n++ {
			shapes = append(shapes, [3]int{m, 3 + (m+n)%5, n})
		}
	}
	return shapes
}()

// atProcs runs f as one subtest per GOMAXPROCS setting, restoring the
// caller's setting afterwards.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
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
	atProcs(t, func(t *testing.T) {
		r := rng.New(21)
		for _, sh := range exactShapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			fillNorm(r, a)
			fillNorm(r, b)
			got := make([]float32, m*n)
			want := make([]float32, m*n)
			fillNorm(r, got) // C is overwritten, not accumulated
			MatMul(got, a, b, m, k, n)
			naiveMatMul(want, a, b, m, k, n)
			requireExact(t, "MatMul", sh, got, want)
		}
	})
}

func TestMatMulBiasExactlyMatchesSeparateEpilogues(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		r := rng.New(22)
		for _, sh := range exactShapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			bias := make([]float32, m)
			fillNorm(r, a)
			fillNorm(r, b)
			fillNorm(r, bias)
			got := make([]float32, m*n)
			MatMulBias(got, a, b, bias, m, k, n)
			want := make([]float32, m*n)
			naiveMatMul(want, a, b, m, k, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					want[i*n+j] += bias[i]
				}
			}
			requireExact(t, "MatMulBias", sh, got, want)
		}
	})
}

// naiveATB is the definition of C = Aᵀ·B with A of shape (k×m): each
// element sums its products from +0 in increasing p.
func naiveATB(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a[p*m+i] * b[p*n+j])
			}
			c[i*n+j] = s
		}
	}
}

// naiveABTAcc is the definition of C += A·Bᵀ with B of shape (n×k):
// each element's sum starts from +0, runs over increasing p, and is
// added to C once.
func naiveABTAcc(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a[i*k+p] * b[j*k+p])
			}
			c[i*n+j] += s
		}
	}
}

func TestMatMulATBExactlyMatchesNaive(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		r := rng.New(23)
		for _, sh := range exactShapes {
			m, k, n := sh[0], sh[1], sh[2]
			a := make([]float32, k*m)
			b := make([]float32, k*n)
			fillNorm(r, a)
			fillNorm(r, b)
			got := make([]float32, m*n)
			want := make([]float32, m*n)
			fillNorm(r, got) // C is overwritten, not accumulated
			MatMulATB(got, a, b, m, k, n)
			naiveATB(want, a, b, m, k, n)
			requireExact(t, "MatMulATB", sh, got, want)
		}
	})
}

func TestMatMulABTAccExactlyMatchesNaive(t *testing.T) {
	atProcs(t, func(t *testing.T) {
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
			naiveABTAcc(want, a, b, m, k, n)
			requireExact(t, "MatMulABTAcc", sh, got, want)
		}
	})
}

// TestMatMulZeroTimesNonFiniteIsNaN pins the kernels to the naive
// definition when an exact 0 in A meets an Inf or NaN in B: the
// product is NaN and so is the element's sum. No kernel skips a == 0
// terms, so all three return NaN in exactly the oracle's elements, and
// every other element keeps the oracle's bits.
func TestMatMulZeroTimesNonFiniteIsNaN(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	const m, k, n = 9, 7, 11
	r := rng.New(27)
	// a is A for MatMul and MatMulABTAcc (m×k) and, read as k×m, for
	// MatMulATB; b is B for MatMul and MatMulATB (k×n) and, read as
	// n×k, for MatMulABTAcc. All three outputs are m×n. Every third element of a is an exact
	// zero, and a few elements of b are non-finite.
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fillNorm(r, a)
	fillNorm(r, b)
	for x := 0; x < len(a); x += 3 {
		a[x] = 0
	}
	for x, v := range []float32{inf, -inf, nan, inf} {
		b[x*17+5] = v
	}

	check := func(what string, got, want []float32) {
		t.Helper()
		nans := 0
		for x := range want {
			if math.IsNaN(float64(want[x])) {
				nans++
				if !math.IsNaN(float64(got[x])) {
					t.Fatalf("%s element %d = %v, oracle NaN", what, x, got[x])
				}
				continue
			}
			if math.Float32bits(got[x]) != math.Float32bits(want[x]) {
				t.Fatalf("%s element %d = %v, oracle %v", what, x, got[x], want[x])
			}
		}
		if nans == 0 || nans == len(want) {
			t.Fatalf("%s: oracle has %d NaN elements of %d; the inputs no longer separate skipping from not", what, nans, len(want))
		}
	}

	got, want := make([]float32, m*n), make([]float32, m*n)
	MatMul(got, a, b, m, k, n)
	naiveMatMul(want, a, b, m, k, n)
	check("MatMul", got, want)

	got, want = make([]float32, m*n), make([]float32, m*n)
	MatMulATB(got, a, b, m, k, n)
	naiveATB(want, a, b, m, k, n)
	check("MatMulATB", got, want)

	got, want = make([]float32, m*n), make([]float32, m*n)
	MatMulABTAcc(got, a, b, m, k, n)
	naiveABTAcc(want, a, b, m, k, n)
	check("MatMulABTAcc", got, want)
}

// naiveIm2col is the element-by-element lowering: every column element
// tests its own input coordinate.
func naiveIm2col(cols, x []float32, cin, h, w, k, pad int) {
	hw := h * w
	row := 0
	for ci := 0; ci < cin; ci++ {
		xc := x[ci*hw : (ci+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := cols[row*hw : (row+1)*hw]
				row++
				for oy := 0; oy < h; oy++ {
					for ox := 0; ox < w; ox++ {
						iy, ix := oy+ky-pad, ox+kx-pad
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							dst[oy*w+ox] = 0
						} else {
							dst[oy*w+ox] = xc[iy*w+ix]
						}
					}
				}
			}
		}
	}
}

// naiveCol2im is the element-by-element scatter, adding into dx in
// (ci, ky, kx, oy, ox) order.
func naiveCol2im(dx, dcols []float32, cin, h, w, k, pad int) {
	hw := h * w
	row := 0
	for ci := 0; ci < cin; ci++ {
		xc := dx[ci*hw : (ci+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := dcols[row*hw : (row+1)*hw]
				row++
				for oy := 0; oy < h; oy++ {
					for ox := 0; ox < w; ox++ {
						iy, ix := oy+ky-pad, ox+kx-pad
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							xc[iy*w+ix] += src[oy*w+ox]
						}
					}
				}
			}
		}
	}
}

// lowerShapes are (h, w) feature maps for the lowering tests: square,
// ragged, and narrower or shorter than a 5×5 kernel.
var lowerShapes = [][2]int{{1, 1}, {1, 4}, {4, 1}, {2, 3}, {3, 2}, {2, 6}, {5, 7}, {6, 6}}

func TestIm2colExactlyMatchesNaive(t *testing.T) {
	r := rng.New(28)
	const cin = 2
	for _, k := range []int{1, 3, 5} {
		for _, hw := range lowerShapes {
			h, w := hw[0], hw[1]
			x := make([]float32, cin*h*w)
			fillNorm(r, x)
			got := make([]float32, cin*k*k*h*w)
			want := make([]float32, len(got))
			// Workspace buffers are not zeroed: every element of the
			// destination must be written.
			for i := range got {
				got[i] = float32(math.NaN())
			}
			im2col(got, x, cin, h, w, k, k/2)
			naiveIm2col(want, x, cin, h, w, k, k/2)
			requireExact(t, fmt.Sprintf("im2col k=%d", k), [3]int{cin, h, w}, got, want)
		}
	}
}

func TestCol2imExactlyMatchesNaive(t *testing.T) {
	r := rng.New(29)
	const cin = 2
	for _, k := range []int{1, 3, 5} {
		for _, hw := range lowerShapes {
			h, w := hw[0], hw[1]
			dcols := make([]float32, cin*k*k*h*w)
			fillNorm(r, dcols)
			got := make([]float32, cin*h*w)
			fillNorm(r, got) // col2im adds onto prior contents
			want := append([]float32(nil), got...)
			col2im(got, dcols, cin, h, w, k, k/2)
			naiveCol2im(want, dcols, cin, h, w, k, k/2)
			requireExact(t, fmt.Sprintf("col2im k=%d", k), [3]int{cin, h, w}, got, want)
		}
	}
}

// BenchmarkConvKernels times one residual-block convolution step at
// the daemon tower's shape (16 channels, 3×3, a 16×16 map): the
// forward lowering and product, the weight gradient, the input
// gradient and its scatter. The kernel=oracle row runs the naive
// oracles above on the same operands; scripts/benchgate.sh requires
// the kernel=blocked row to be faster by a fixed ratio in the same
// run.
func BenchmarkConvKernels(b *testing.B) {
	const c, k, h, w = 16, 3, 16, 16
	const ck, hw = c * k * k, h * w
	r := rng.New(30)
	x := make([]float32, c*hw)
	wt := make([]float32, c*ck)
	dy := make([]float32, c*hw)
	fillNorm(r, x)
	fillNorm(r, wt)
	fillNorm(r, dy)
	cols := make([]float32, ck*hw)
	out := make([]float32, c*hw)
	grad := make([]float32, c*ck)
	dx := make([]float32, c*hw)

	for _, row := range []struct {
		name string
		step func()
	}{
		{"blocked", func() {
			im2col(cols, x, c, h, w, k, k/2)
			MatMul(out, wt, cols, c, ck, hw)
			MatMulABTAcc(grad, dy, cols, c, hw, ck)
			MatMulATB(cols, wt, dy, ck, c, hw)
			clear(dx)
			col2im(dx, cols, c, h, w, k, k/2)
		}},
		{"oracle", func() {
			naiveIm2col(cols, x, c, h, w, k, k/2)
			naiveMatMul(out, wt, cols, c, ck, hw)
			naiveABTAcc(grad, dy, cols, c, hw, ck)
			naiveATB(cols, wt, dy, ck, c, hw)
			clear(dx)
			naiveCol2im(dx, cols, c, h, w, k, k/2)
		}},
	} {
		b.Run("kernel="+row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row.step()
			}
		})
	}
}

// TestWorkspaceVariantsBitIdenticalToAllocating: a recycled arena
// holds the previous pass's values, and every kernel must overwrite or
// clear what it takes. Forward and Backward of every layer through a
// warm workspace must match a nil workspace bit for bit, gradients
// included.
func TestWorkspaceVariantsBitIdenticalToAllocating(t *testing.T) {
	const cin, cout, kk, h, w = 3, 4, 3, 5, 5
	hw := h * w
	r := rng.New(25)
	conv := NewConv2D("c", cin, cout, kk, r)
	fillNorm(r, conv.Bias.W)
	bn := NewBatchNorm2D("b", cout)
	fillNorm(r, bn.Gamma.W)
	fillNorm(r, bn.Beta.W)
	rb := NewResBlock("r", cout, r)
	lin := NewLinear("l", cout*hw, 7, r)
	params := append(append(append(conv.Params(), bn.Params()...), rb.Params()...), lin.Params()...)

	// step runs every layer forward and backward through ws and returns
	// the outputs, the input gradient and the parameter gradients.
	step := func(ws *Workspace, x []float32) [][]float32 {
		ws.Reset()
		for _, p := range params {
			p.ZeroGrad()
		}
		co := conv.Forward(ws, x, h, w)
		bo := bn.Forward(ws, co, hw, true)
		var acts ResActs
		ro := rb.Forward(ws, bo, h, w, &acts)
		li := lin.Forward(ws, ro, true)
		dli := lin.Backward(ws, ro, li, true)
		dro := rb.Backward(ws, &acts, dli, h, w)
		dbo := bn.Backward(ws, co, dro, hw, true)
		dx := conv.Backward(ws, x, dbo, h, w)
		got := [][]float32{co, bo, ro, li, dx}
		for _, p := range params {
			got = append(got, append([]float32(nil), p.G...))
		}
		return got
	}

	var ws Workspace
	for pass := 0; pass < 3; pass++ { // pass 0 warms the arena
		x := randSlice(r, cin*hw)
		got := step(&ws, x)
		want := step(nil, x)
		for i := range want {
			requireExact(t, fmt.Sprintf("pass %d buffer %d", pass, i), [3]int{cin, h, w}, got[i], want[i])
		}
	}
}

// TestWorkspaceZeroAllocationsAfterWarmup: one convolution's forward
// and backward through a warm workspace allocate nothing.
func TestWorkspaceZeroAllocationsAfterWarmup(t *testing.T) {
	const cin, cout, h, w = 2, 3, 6, 6
	r := rng.New(26)
	conv := NewConv2D("c", cin, cout, 3, r)
	x := randSlice(r, cin*h*w)
	dy := randSlice(r, cout*h*w)

	var ws Workspace
	pass := func() {
		ws.Reset()
		conv.Forward(&ws, x, h, w)
		conv.Backward(&ws, x, dy, h, w)
	}
	pass() // warm-up pass
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
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
