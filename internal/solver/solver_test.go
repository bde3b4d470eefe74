package solver

import (
	"math"
	"testing"
	"testing/quick"

	"macroplace/internal/rng"
)

func TestSparseSymMulVec(t *testing.T) {
	// M = [2 -1; -1 2], x = [1, 2] → Mx = [0, 3].
	m := NewSparseSym(2)
	m.AddDiag(0, 2)
	m.AddDiag(1, 2)
	m.Add(0, 1, -1)
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 2})
	if dst[0] != 0 || dst[1] != 3 {
		t.Errorf("MulVec = %v, want [0 3]", dst)
	}
}

func TestSparseSymAccumulates(t *testing.T) {
	m := NewSparseSym(2)
	m.Add(0, 1, -1)
	m.Add(1, 0, -1) // mirrored add accumulates
	m.Add(0, 0, 3)  // diagonal through Add
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1})
	// Row 0: 3*1 + (-2)*1 = 1; Row 1: (-2)*1 = -2.
	if dst[0] != 1 || dst[1] != -2 {
		t.Errorf("MulVec = %v, want [1 -2]", dst)
	}
	if m.Diag(0) != 3 {
		t.Errorf("Diag(0) = %v", m.Diag(0))
	}
}

func TestCGSolvesKnownSystem(t *testing.T) {
	// Laplacian chain + regularization: tridiag(-1, 2+eps, -1).
	n := 50
	m := NewSparseSym(n)
	for i := 0; i < n; i++ {
		m.AddDiag(i, 2.1)
		if i+1 < n {
			m.Add(i, i+1, -1)
		}
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(float64(i))
	}
	b := make([]float64, n)
	m.MulVec(b, want)

	x := make([]float64, n)
	res := CG(m, x, b, 1e-10, 0)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := NewSparseSym(3)
	for i := 0; i < 3; i++ {
		m.AddDiag(i, 1)
	}
	x := []float64{5, -3, 2}
	res := CG(m, x, make([]float64, 3), 1e-8, 0)
	if !res.Converged {
		t.Fatalf("CG failed on zero RHS: %+v", res)
	}
	for _, v := range x {
		if math.Abs(v) > 1e-6 {
			t.Errorf("x = %v, want 0", x)
		}
	}
}

func TestCGWarmStart(t *testing.T) {
	m := NewSparseSym(4)
	for i := 0; i < 4; i++ {
		m.AddDiag(i, 3)
	}
	b := []float64{3, 6, 9, 12}
	x := []float64{1, 2, 3, 4} // exact solution as a starting guess
	res := CG(m, x, b, 1e-12, 0)
	if res.Iterations != 0 {
		t.Errorf("warm start from exact solution took %d iterations", res.Iterations)
	}
}

func TestCGDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	CG(NewSparseSym(3), make([]float64, 2), make([]float64, 3), 1e-6, 0)
}

func TestCGRandomSPDProperty(t *testing.T) {
	r := rng.New(99)
	f := func(seed int64) bool {
		rr := rng.New(seed ^ r.Int63())
		n := 5 + rr.Intn(30)
		m := NewSparseSym(n)
		// Random graph Laplacian + strong diagonal = SPD.
		for i := 0; i < n; i++ {
			m.AddDiag(i, 1)
		}
		for e := 0; e < 3*n; e++ {
			i, j := rr.Intn(n), rr.Intn(n)
			if i == j {
				continue
			}
			w := rr.Range(0.1, 2)
			m.AddDiag(i, w)
			m.AddDiag(j, w)
			m.Add(i, j, -w)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rr.Range(-10, 10)
		}
		b := make([]float64, n)
		m.MulVec(b, want)
		x := make([]float64, n)
		res := CG(m, x, b, 1e-10, 10*n)
		if !res.Converged {
			return false
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// refSparseSym is the per-row adjacency-list matrix that SparseSym's
// flat CSR rows replaced, kept as the reference for their bits: Add
// probes row i for column j and accumulates into it, or appends it.
type refSparseSym struct {
	n    int
	diag []float64
	cols [][]int32
	vals [][]float64
}

func newRefSparseSym(n int) *refSparseSym {
	return &refSparseSym{n: n, diag: make([]float64, n), cols: make([][]int32, n), vals: make([][]float64, n)}
}

func (m *refSparseSym) AddDiag(i int, v float64) { m.diag[i] += v }

func (m *refSparseSym) Add(i, j int, v float64) {
	if i == j {
		m.diag[i] += v
		return
	}
	m.addHalf(i, j, v)
	m.addHalf(j, i, v)
}

func (m *refSparseSym) addHalf(i, j int, v float64) {
	for k, c := range m.cols[i] {
		if int(c) == j {
			m.vals[i][k] += v
			return
		}
	}
	m.cols[i] = append(m.cols[i], int32(j))
	m.vals[i] = append(m.vals[i], v)
}

func (m *refSparseSym) MulVec(dst, x []float64) {
	for i := 0; i < m.n; i++ {
		s := m.diag[i] * x[i]
		cols := m.cols[i]
		vals := m.vals[i]
		for k := range cols {
			s += vals[k] * x[cols[k]]
		}
		dst[i] = s
	}
}

// refCG is CG over refSparseSym with freshly allocated scratch, as CG
// ran before it kept its scratch in the matrix.
func refCG(m *refSparseSym, x, b []float64, tol float64, maxIter int) CGResult {
	n := m.n
	if maxIter <= 0 {
		maxIter = 2 * n
	}
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	pre := make([]float64, n)
	for i := 0; i < n; i++ {
		d := m.diag[i]
		if d <= 0 {
			d = 1
		}
		pre[i] = 1 / d
	}
	m.MulVec(r, x)
	var bnorm float64
	for i := 0; i < n; i++ {
		r[i] = b[i] - r[i]
		bnorm += b[i] * b[i]
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		bnorm = 1
	}
	var rz float64
	for i := 0; i < n; i++ {
		z[i] = pre[i] * r[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}
	res := math.Sqrt(dot(r, r)) / bnorm
	if res <= tol {
		return CGResult{Iterations: 0, Residual: res, Converged: true}
	}
	for it := 1; it <= maxIter; it++ {
		m.MulVec(ap, p)
		pap := dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return CGResult{Iterations: it, Residual: res, Converged: false}
		}
		alpha := rz / pap
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		res = math.Sqrt(dot(r, r)) / bnorm
		if res <= tol {
			return CGResult{Iterations: it, Residual: res, Converged: true}
		}
		var rzNew float64
		for i := 0; i < n; i++ {
			z[i] = pre[i] * r[i]
			rzNew += r[i] * z[i]
		}
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			p[i] = z[i] + beta*p[i]
		}
	}
	return CGResult{Iterations: maxIter, Residual: res, Converged: false}
}

// twinMatrices applies one random sequence of ops Adds, with their
// AddDiags, to m and to ref (both n×n) the way B2B assembly does: each
// negative off-diagonal weight also goes onto both diagonal entries,
// over a positive diagonal, so the matrix is SPD. Pairs repeat, in both
// orders and with i == j, and at random points between Adds the two
// MulVecs must agree bit for bit. With nan, one Add carries a NaN.
func twinMatrices(t *testing.T, r *rng.RNG, m *SparseSym, ref *refSparseSym, ops int, nan bool) {
	t.Helper()
	n := ref.n
	for i := 0; i < n; i++ {
		v := r.Range(0.01, 1)
		m.AddDiag(i, v)
		ref.AddDiag(i, v)
	}
	nanAt := -1
	if nan {
		nanAt = r.Intn(ops)
	}
	var pairs [][2]int
	for op := 0; op < ops; op++ {
		var i, j int
		switch k := r.Intn(10); {
		case k < 3 && len(pairs) > 0:
			// A pair already added, in either order.
			p := pairs[r.Intn(len(pairs))]
			i, j = p[0], p[1]
			if r.Float64() < 0.5 {
				i, j = j, i
			}
		case k == 3:
			i = r.Intn(n)
			j = i
		default:
			i, j = r.Intn(n), r.Intn(n)
		}
		pairs = append(pairs, [2]int{i, j})
		w := r.Range(0.1, 2)
		if op == nanAt {
			w = math.NaN()
		}
		m.AddDiag(i, w)
		ref.AddDiag(i, w)
		m.AddDiag(j, w)
		ref.AddDiag(j, w)
		m.Add(i, j, -w)
		ref.Add(i, j, -w)
		if r.Intn(ops/4+1) == 0 {
			sameMulVec(t, r, m, ref)
		}
	}
}

// sameMulVec checks that m and ref return the same bits for one random
// vector.
func sameMulVec(t *testing.T, r *rng.RNG, m *SparseSym, ref *refSparseSym) {
	t.Helper()
	n := ref.n
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Range(-10, 10)
	}
	got, want := make([]float64, n), make([]float64, n)
	m.MulVec(got, x)
	ref.MulVec(want, x)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: MulVec row %d = %v (%#x), reference %v (%#x)",
				n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameCG checks that a CG solve on m returns the reference's bits.
func sameCG(t *testing.T, r *rng.RNG, m *SparseSym, ref *refSparseSym) {
	t.Helper()
	n := ref.n
	x0, b := make([]float64, n), make([]float64, n)
	for i := range b {
		x0[i] = r.Range(-5, 5)
		b[i] = r.Range(-10, 10)
	}
	got, want := append([]float64(nil), x0...), append([]float64(nil), x0...)
	gres := CG(m, got, b, 1e-12, 0)
	wres := refCG(ref, want, b, 1e-12, 0)
	if gres.Iterations != wres.Iterations || gres.Converged != wres.Converged ||
		math.Float64bits(gres.Residual) != math.Float64bits(wres.Residual) {
		t.Fatalf("n=%d: CG %+v, reference %+v", n, gres, wres)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: CG x[%d] = %v, reference %v", n, i, got[i], want[i])
		}
	}
}

// TestSparseSymMatchesReference checks that the CSR rows compiled from
// random Add/AddDiag sequences (duplicate pairs in both orders, i == j,
// MulVec between Adds, one sequence with a NaN) give MulVec and a full
// CG solve the per-row reference's exact bits.
func TestSparseSymMatchesReference(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		m, ref := NewSparseSym(n), newRefSparseSym(n)
		twinMatrices(t, r, m, ref, 1+r.Intn(6*n), trial == 17)
		sameMulVec(t, r, m, ref)
		sameCG(t, r, m, ref)
	}
}

// TestSparseSymResetReuses checks a used matrix after Reset to a
// smaller and then a larger dimension against fresh references.
func TestSparseSymResetReuses(t *testing.T) {
	r := rng.New(7)
	m := NewSparseSym(30)
	for _, n := range []int{30, 12, 55, 1, 55} {
		m.Reset(n)
		if m.N() != n {
			t.Fatalf("N() = %d after Reset(%d)", m.N(), n)
		}
		ref := newRefSparseSym(n)
		twinMatrices(t, r, m, ref, 4*n, false)
		sameMulVec(t, r, m, ref)
		sameCG(t, r, m, ref)
	}
}

// TestSparseSymAddOutsidePanics checks that an out-of-range Add panics
// on the call, not on a later MulVec.
func TestSparseSymAddOutsidePanics(t *testing.T) {
	for _, ij := range [][2]int{{0, 3}, {3, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d, %d) on a 3×3 matrix did not panic", ij[0], ij[1])
				}
			}()
			NewSparseSym(3).Add(ij[0], ij[1], 1)
		}()
	}
}

// ---------------------------------------------------------------------------
// Simplex

func TestLPSimpleOptimum(t *testing.T) {
	// minimize -x - y s.t. x <= 3, y <= 2, x + y <= 4 → optimum at
	// (2,2) or (3,1), value -4.
	lp := LP{
		C: []float64{-1, -1},
		A: [][]float64{{1, 0}, {0, 1}, {1, 1}},
		B: []float64{3, 2, 4},
	}
	x, v, err := lp.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(v-(-4)) > 1e-7 {
		t.Errorf("objective = %v, want -4", v)
	}
	if x[0]+x[1] > 4+1e-7 || x[0] > 3+1e-7 || x[1] > 2+1e-7 {
		t.Errorf("x = %v violates constraints", x)
	}
}

func TestLPNegativeRHSPhase1(t *testing.T) {
	// minimize x s.t. -x <= -5 (i.e. x >= 5) → x = 5.
	lp := LP{C: []float64{1}, A: [][]float64{{-1}}, B: []float64{-5}}
	x, v, err := lp.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[0]-5) > 1e-7 || math.Abs(v-5) > 1e-7 {
		t.Errorf("x = %v v = %v, want 5", x, v)
	}
}

func TestLPInfeasible(t *testing.T) {
	// x <= 1 and x >= 3 cannot both hold.
	lp := LP{C: []float64{1}, A: [][]float64{{1}, {-1}}, B: []float64{1, -3}}
	if _, _, err := lp.Solve(); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestLPUnbounded(t *testing.T) {
	// minimize -x with no upper bound on x.
	lp := LP{C: []float64{-1}, A: [][]float64{{-1}}, B: []float64{0}}
	if _, _, err := lp.Solve(); err != ErrUnbounded {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestLPDifferenceConstraints(t *testing.T) {
	// The legalization pattern: two blocks of width 2 on a line of
	// length 10, x0 + 2 <= x1, minimize |x0 - 4| + |x1 - 4| via
	// u-variables: vars x0 x1 u0 u1.
	lp := LP{
		C: []float64{0, 0, 1, 1},
		A: [][]float64{
			{1, -1, 0, 0},  // x0 - x1 <= -2
			{1, 0, 0, 0},   // x0 <= 8
			{0, 1, 0, 0},   // x1 <= 8
			{1, 0, -1, 0},  // x0 - u0 <= 4
			{-1, 0, -1, 0}, // -x0 - u0 <= -4
			{0, 1, 0, -1},  // x1 - u1 <= 4
			{0, -1, 0, -1}, // -x1 - u1 <= -4
		},
		B: []float64{-2, 8, 8, 4, -4, 4, -4},
	}
	x, v, err := lp.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Optimum: x0=3, x1=5 (or x0=4,x1=6 etc.) with total deviation 2.
	if math.Abs(v-2) > 1e-6 {
		t.Errorf("objective = %v, want 2", v)
	}
	if x[1]-x[0] < 2-1e-7 {
		t.Errorf("spacing violated: %v", x[:2])
	}
}

func TestLPEqualityViaTwoInequalities(t *testing.T) {
	// x + y = 3 (two inequalities), minimize x → x=0, y=3... but y
	// has upper bound 2 → x=1.
	lp := LP{
		C: []float64{1, 0},
		A: [][]float64{
			{1, 1},
			{-1, -1},
			{0, 1},
		},
		B: []float64{3, -3, 2},
	}
	x, _, err := lp.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[0]-1) > 1e-7 || math.Abs(x[1]-2) > 1e-7 {
		t.Errorf("x = %v, want [1 2]", x)
	}
}

func TestLPMatchesBruteForceProperty(t *testing.T) {
	// Random 2-var LPs with small integer data: compare against a
	// dense grid search over the feasible region.
	r := rng.New(31)
	for trial := 0; trial < 40; trial++ {
		nc := 2 + r.Intn(3)
		lp := LP{C: []float64{float64(r.IntRange(-3, 3)), float64(r.IntRange(-3, 3))}}
		for i := 0; i < nc; i++ {
			lp.A = append(lp.A, []float64{float64(r.IntRange(0, 3)), float64(r.IntRange(0, 3))})
			lp.B = append(lp.B, float64(r.IntRange(1, 12)))
		}
		// Bound the region so grid search (and the LP) stay finite.
		lp.A = append(lp.A, []float64{1, 0}, []float64{0, 1})
		lp.B = append(lp.B, 10, 10)

		x, v, err := lp.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v (lp=%+v)", trial, err, lp)
		}
		// Grid search.
		best := math.Inf(1)
		for xi := 0.0; xi <= 10; xi += 0.25 {
			for yi := 0.0; yi <= 10; yi += 0.25 {
				ok := true
				for ci := range lp.A {
					if lp.A[ci][0]*xi+lp.A[ci][1]*yi > lp.B[ci]+1e-9 {
						ok = false
						break
					}
				}
				if ok {
					if val := lp.C[0]*xi + lp.C[1]*yi; val < best {
						best = val
					}
				}
			}
		}
		if v > best+1e-6 {
			t.Fatalf("trial %d: simplex %v worse than grid %v (x=%v, lp=%+v)", trial, v, best, x, lp)
		}
	}
}

func TestLPZeroObjective(t *testing.T) {
	// Feasibility-only LP: any feasible x is optimal at value 0.
	lp := LP{C: []float64{0, 0}, A: [][]float64{{1, 1}}, B: []float64{4}}
	x, v, err := lp.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if v != 0 {
		t.Errorf("value = %v, want 0", v)
	}
	if x[0]+x[1] > 4+1e-9 || x[0] < -1e-9 || x[1] < -1e-9 {
		t.Errorf("infeasible x = %v", x)
	}
}

func TestLPDegenerateTies(t *testing.T) {
	// Multiple optima along an edge; Bland's rule must terminate.
	lp := LP{
		C: []float64{-1, -1},
		A: [][]float64{{1, 1}, {1, 1}, {1, 1}}, // redundant rows
		B: []float64{2, 2, 2},
	}
	x, v, err := lp.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(v-(-2)) > 1e-9 {
		t.Errorf("value = %v, want -2 (x=%v)", v, x)
	}
}

func TestLPRedundantEqualityPhase1(t *testing.T) {
	// x = 1 expressed twice: phase 1 must drive out artificials even
	// with redundant rows.
	lp := LP{
		C: []float64{1},
		A: [][]float64{{1}, {-1}, {1}, {-1}},
		B: []float64{1, -1, 1, -1},
	}
	x, _, err := lp.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[0]-1) > 1e-9 {
		t.Errorf("x = %v, want 1", x)
	}
}

func TestCGNonConvergenceReported(t *testing.T) {
	// One iteration allowed on a hard-ish system: must report
	// Converged=false rather than lying.
	n := 40
	m := NewSparseSym(n)
	for i := 0; i < n; i++ {
		m.AddDiag(i, 2)
		if i+1 < n {
			m.Add(i, i+1, -1)
		}
	}
	b := make([]float64, n)
	b[0] = 1
	x := make([]float64, n)
	res := CG(m, x, b, 1e-14, 1)
	if res.Converged {
		t.Error("1-iteration CG cannot converge to 1e-14 here")
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}
