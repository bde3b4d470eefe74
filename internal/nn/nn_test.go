package nn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"macroplace/internal/rng"
)

// ---------------------------------------------------------------------------
// Matmul

// naiveMatMul is the definition of C = A·B: each element sums its
// products from +0 in increasing p, each product rounded to float32.
func naiveMatMul(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a[i*k+p] * b[p*n+j])
			}
			c[i*n+j] = s
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		m, k, n := r.IntRange(1, 12), r.IntRange(1, 12), r.IntRange(1, 12)
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		for i := range b {
			b[i] = float32(r.NormFloat64())
		}
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		MatMul(got, a, b, m, k, n)
		naiveMatMul(want, a, b, m, k, n)
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("trial %d: got[%d]=%v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestMatMulATB(t *testing.T) {
	// A (k×m) = [[1,2],[3,4]], B (k×n) = [[5],[6]] → AᵀB = [[1*5+3*6],[2*5+4*6]] = [[23],[34]].
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6}
	c := make([]float32, 2)
	MatMulATB(c, a, b, 2, 2, 1)
	if c[0] != 23 || c[1] != 34 {
		t.Errorf("ATB = %v, want [23 34]", c)
	}
}

func TestMatMulABTAccAccumulates(t *testing.T) {
	// A (m×k) = [1,2], B (n×k) = [3,4] → ABᵀ = [1*3+2*4] = [11].
	c := []float32{100}
	MatMulABTAcc(c, []float32{1, 2}, []float32{3, 4}, 1, 2, 1)
	if c[0] != 111 {
		t.Errorf("ABTAcc = %v, want 111 (accumulated)", c[0])
	}
}

// ---------------------------------------------------------------------------
// Softmax

func TestSoftmaxSumsToOne(t *testing.T) {
	out := Softmax(nil, []float32{1, 2, 3, 4})
	var sum float32
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Error("softmax must be monotone in logits")
		}
	}
	for _, v := range out {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-6 {
		t.Errorf("sum = %v", sum)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	out := Softmax(nil, []float32{1000, 1000, 1000})
	for _, v := range out {
		if math.Abs(float64(v)-1.0/3) > 1e-6 {
			t.Errorf("huge logits: %v", out)
		}
	}
}

func TestMaskedSoftmax(t *testing.T) {
	logits := []float32{5, 1, 1, 1}
	mask := []float32{0, 1, 0.5, 0}
	out := MaskedSoftmax(nil, logits, mask)
	if out[0] != 0 || out[3] != 0 {
		t.Error("masked entries must have zero probability")
	}
	var sum float32
	for _, v := range out {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-6 {
		t.Errorf("sum = %v", sum)
	}
	// Equal logits: probability proportional to mask weight.
	if math.Abs(float64(out[1]/out[2]-2)) > 1e-5 {
		t.Errorf("mask weighting: %v", out)
	}
	// All-zero mask falls back to plain softmax.
	out2 := MaskedSoftmax(nil, []float32{0, 0}, []float32{0, 0})
	if math.Abs(float64(out2[0]-0.5)) > 1e-6 {
		t.Errorf("fallback: %v", out2)
	}
}

// ---------------------------------------------------------------------------
// Gradient checks

// lossOf computes 0.5 Σ y². Its gradient w.r.t. y is y itself, which
// makes analytic/numeric comparison simple for any layer.
func lossOf(y []float32) float64 {
	var s float64
	for _, v := range y {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

// layer is one layer under a gradient check: its parameters, its
// Forward, and its Backward for the output gradient dy of Forward(x).
type layer struct {
	params   []*Param
	forward  func(x []float32) []float32
	backward func(x, dy []float32) []float32
}

func convLayer(c *Conv2D, h, w int) layer {
	return layer{c.Params(),
		func(x []float32) []float32 { return c.Forward(nil, x, h, w) },
		func(x, dy []float32) []float32 { return c.Backward(nil, x, dy, h, w) }}
}

func bnLayer(bn *BatchNorm2D, hw int, relu bool) layer {
	return layer{bn.Params(),
		func(x []float32) []float32 { return bn.Forward(nil, x, hw, relu) },
		func(x, dy []float32) []float32 { return bn.Backward(nil, x, dy, hw, relu) }}
}

func linearLayer(l *Linear, relu bool) layer {
	return layer{l.Params(),
		func(x []float32) []float32 { return l.Forward(nil, x, relu) },
		func(x, dy []float32) []float32 { return l.Backward(nil, x, dy, relu) }}
}

func resLayer(rb *ResBlock, h, w int) layer {
	return layer{rb.Params(),
		func(x []float32) []float32 { return rb.Forward(nil, x, h, w, nil) },
		func(x, dy []float32) []float32 {
			var acts ResActs
			rb.Forward(nil, x, h, w, &acts)
			return rb.Backward(nil, &acts, dy, h, w)
		}}
}

// analytic zeroes l's gradients, runs Forward and Backward on x under
// the quadratic loss, and returns the input gradient.
func (l layer) analytic(x []float32) []float32 {
	for _, p := range l.params {
		p.ZeroGrad()
	}
	y := l.forward(x)
	return l.backward(x, append([]float32(nil), y...))
}

// checkParamGradients verifies analytic parameter gradients against
// central differences for a layer under the quadratic loss.
func checkParamGradients(t *testing.T, l layer, x []float32, tol float64) {
	t.Helper()
	l.analytic(x)
	const eps = 1e-3
	for _, p := range l.params {
		// Probe a handful of weights per parameter.
		stride := len(p.W)/7 + 1
		for i := 0; i < len(p.W); i += stride {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := lossOf(l.forward(x))
			p.W[i] = orig - eps
			lm := lossOf(l.forward(x))
			p.W[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.G[i])
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

// checkInputGradient verifies dL/dx against central differences.
func checkInputGradient(t *testing.T, l layer, x []float32, tol float64) {
	t.Helper()
	dx := l.analytic(x)
	const eps = 1e-3
	stride := len(x)/7 + 1
	for i := 0; i < len(x); i += stride {
		orig := x[i]
		x[i] = orig + eps
		lp := lossOf(l.forward(x))
		x[i] = orig - eps
		lm := lossOf(l.forward(x))
		x[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dx[i])
		if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
	}
}

func randSlice(r *rng.RNG, n int) []float32 {
	x := make([]float32, n)
	fillNorm(r, x)
	return x
}

func TestConv2DGradients(t *testing.T) {
	r := rng.New(5)
	conv := convLayer(NewConv2D("c", 2, 3, 3, r), 5, 5)
	x := randSlice(r, 2*5*5)
	checkParamGradients(t, conv, x, 2e-2)
	checkInputGradient(t, conv, x, 2e-2)
}

func TestConv1x1Gradients(t *testing.T) {
	r := rng.New(6)
	conv := convLayer(NewConv2D("c", 3, 2, 1, r), 4, 4)
	x := randSlice(r, 3*4*4)
	checkParamGradients(t, conv, x, 2e-2)
	checkInputGradient(t, conv, x, 2e-2)
}

func TestLinearGradients(t *testing.T) {
	r := rng.New(7)
	lin := NewLinear("l", 10, 6, r)
	x := randSlice(r, 10)
	for _, relu := range []bool{false, true} {
		checkParamGradients(t, linearLayer(lin, relu), x, 1e-2)
		checkInputGradient(t, linearLayer(lin, relu), x, 1e-2)
	}
}

func TestBatchNormGradients(t *testing.T) {
	r := rng.New(8)
	bn := NewBatchNorm2D("bn", 2)
	// Scale/offset away from identity so gradients are non-trivial.
	bn.Gamma.W[0], bn.Gamma.W[1] = 1.5, 0.7
	bn.Beta.W[0], bn.Beta.W[1] = 0.2, -0.4
	x := randSlice(r, 2*4*4)
	for _, relu := range []bool{false, true} {
		checkParamGradients(t, bnLayer(bn, 16, relu), x, 3e-2)
		checkInputGradient(t, bnLayer(bn, 16, relu), x, 3e-2)
	}
}

// TestReLUGradient: a fused rectifier zeroes exactly the outputs whose
// pre-activation is negative, and Backward passes the gradient of
// every other output unchanged.
func TestReLUGradient(t *testing.T) {
	r := rng.New(9)
	lin := NewLinear("l", 6, 20, r)
	fillNorm(r, lin.Bias.W)
	x := randSlice(r, 6)
	pre := lin.Forward(nil, x, false)
	y := lin.Forward(nil, x, true)
	requireExact(t, "fused rectifier", [3]int{6, 20, 0}, y, ReLUBatch(append([]float32(nil), pre...)))
	dy := make([]float32, 20)
	for i := range dy {
		dy[i] = 1
	}
	lin.Backward(nil, x, dy, true)
	for o, v := range pre {
		want := float32(0)
		if v >= 0 {
			want = 1
		}
		if lin.Bias.G[o] != want {
			t.Errorf("bias grad[%d] = %v for pre-activation %v", o, lin.Bias.G[o], v)
		}
	}
}

// TestFusedReLUPassesGradientAtZero: a BatchNorm channel that is
// constant over its map normalises to exactly β. With β = 0 the
// rectified output is exactly 0, and the rectifier passes the gradient
// there (the value is not negative): β's gradient is Σdy. With β < 0
// the gradient stops and β's gradient is 0.
func TestFusedReLUPassesGradientAtZero(t *testing.T) {
	const hw = 9
	x := make([]float32, hw)
	for i := range x {
		x[i] = 0.75
	}
	dy := make([]float32, hw)
	var sum float32
	for i := range dy {
		dy[i] = float32(i+1) / 8
		sum += dy[i]
	}
	for _, tc := range []struct {
		beta, wantGrad float32
	}{{0, sum}, {-0.5, 0}} {
		bn := NewBatchNorm2D("bn", 1)
		bn.Beta.W[0] = tc.beta
		for i, v := range bn.Forward(nil, x, hw, true) {
			if math.Float32bits(v) != 0 {
				t.Fatalf("β=%v: output[%d] = %v, want +0", tc.beta, i, v)
			}
		}
		bn.Backward(nil, x, dy, hw, true)
		if got := bn.Beta.G[0]; got != tc.wantGrad {
			t.Errorf("β=%v: β gradient %v, want %v", tc.beta, got, tc.wantGrad)
		}
	}
}

// ReLUBatch rectifies x in place and returns it: the separate ReLU
// sweep the fused rectifiers are checked against.
func ReLUBatch(x []float32) []float32 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x
}

func TestReLUBatch(t *testing.T) {
	x := []float32{-1, 0, 2.5, -0.001, 7}
	ReLUBatch(x)
	want := []float32{0, 0, 2.5, 0, 7}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("elem %d: %v != %v", i, x[i], want[i])
		}
	}
}

func TestResBlockGradients(t *testing.T) {
	r := rng.New(10)
	rb := resLayer(NewResBlock("rb", 2, r), 4, 4)
	x := randSlice(r, 2*4*4)
	checkParamGradients(t, rb, x, 5e-2)
	checkInputGradient(t, rb, x, 5e-2)
}

func TestEmbedding(t *testing.T) {
	r := rng.New(12)
	e := NewEmbedding("e", 4, 3, r)
	if v := e.At(2); len(v) != 3 || &v[0] != &e.Weight.W[6] {
		t.Fatalf("At(2) is not row 2 of the table")
	}
	// Gradient accumulates into the row At reads, clamped the same way.
	e.Accumulate(1, []float32{1, 2, 3})
	e.Accumulate(99, []float32{4, 5, 6})
	if e.Weight.G[3] != 1 || e.Weight.G[4] != 2 || e.Weight.G[5] != 3 {
		t.Errorf("grad row 1 = %v", e.Weight.G[3:6])
	}
	if e.Weight.G[9] != 4 || e.Weight.G[10] != 5 || e.Weight.G[11] != 6 {
		t.Errorf("grad row 3 = %v", e.Weight.G[9:12])
	}
}

// TestEmbeddingAtClampsAndMatchesLookup: At, the embedding lookup,
// clamps every id into the table and returns exactly the row the
// clamped id names.
func TestEmbeddingAtClampsAndMatchesLookup(t *testing.T) {
	e := NewEmbedding("e", 4, 6, rng.New(4))
	for _, tc := range []struct{ id, row int }{{-2, 0}, {0, 0}, {3, 3}, {9, 3}} {
		requireExact(t, fmt.Sprintf("At(%d)", tc.id), [3]int{tc.id, tc.row, 0},
			e.At(tc.id), e.Weight.W[tc.row*6:(tc.row+1)*6])
	}
}

// ---------------------------------------------------------------------------
// Optimizers

// quadraticParams builds a parameter holding 8 scalars with loss
// Σ (w - target)²; gradient = 2(w - target).
func optimizerConverges(t *testing.T, makeOpt func(p *Param) *Adam) {
	t.Helper()
	p := NewParam("w", 8)
	target := []float32{1, -2, 3, 0.5, -0.25, 2, -1, 0}
	for i := range p.W {
		p.W[i] = 5
	}
	opt := makeOpt(p)
	for step := 0; step < 500; step++ {
		for i := range p.W {
			p.G[i] = 2 * (p.W[i] - target[i])
		}
		opt.Step()
	}
	for i := range p.W {
		if math.Abs(float64(p.W[i]-target[i])) > 0.05 {
			t.Errorf("w[%d] = %v, want %v", i, p.W[i], target[i])
		}
	}
}

func TestAdamConverges(t *testing.T) {
	optimizerConverges(t, func(p *Param) *Adam { return NewAdam([]*Param{p}, 0.05) })
}

func TestAdamClipsGradients(t *testing.T) {
	p := NewParam("w", 2)
	a := NewAdam([]*Param{p}, 0.1)
	a.ClipNorm = 1
	p.G[0], p.G[1] = 300, 400 // norm 500 → scaled to 1
	before := [2]float32{p.W[0], p.W[1]}
	a.Step()
	// First Adam step magnitude is ≈ lr regardless, but direction must
	// match the clipped gradient ratio 3:4.
	d0 := float64(before[0] - p.W[0])
	d1 := float64(before[1] - p.W[1])
	if d0 <= 0 || d1 <= 0 {
		t.Fatal("weights should decrease")
	}
	// Gradients must be cleared after Step.
	if p.G[0] != 0 || p.G[1] != 0 {
		t.Error("Step must clear gradients")
	}
}

func TestStepClearsGradients(t *testing.T) {
	p := NewParam("w", 1)
	a := NewAdam([]*Param{p}, 0.1)
	p.G[0] = 2
	a.Step()
	if p.G[0] != 0 {
		t.Error("Adam.Step must clear gradients")
	}
	p.G[0] = 3
	p.ZeroGrad()
	if p.G[0] != 0 {
		t.Error("ZeroGrad must clear gradients")
	}
}

// ---------------------------------------------------------------------------
// Properties

func TestIm2colCol2imAdjointProperty(t *testing.T) {
	// ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ — the defining adjoint identity
	// that conv backward relies on.
	r := rng.New(21)
	f := func(seed int64) bool {
		rr := rng.New(seed ^ r.Int63())
		cin, h, w, k := rr.IntRange(1, 3), rr.IntRange(2, 6), rr.IntRange(2, 6), 3
		x := make([]float32, cin*h*w)
		for i := range x {
			x[i] = float32(rr.NormFloat64())
		}
		ck := cin * k * k
		cols := make([]float32, ck*h*w)
		im2col(cols, x, cin, h, w, k, k/2)
		y := make([]float32, ck*h*w)
		for i := range y {
			y[i] = float32(rr.NormFloat64())
		}
		back := make([]float32, cin*h*w)
		col2im(back, y, cin, h, w, k, k/2)
		var lhs, rhs float64
		for i := range cols {
			lhs += float64(cols[i]) * float64(y[i])
		}
		for i := range x {
			rhs += float64(x[i]) * float64(back[i])
		}
		return math.Abs(lhs-rhs) < 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
