// Package solver provides the numerical kernels the placer relies on:
// a preconditioned conjugate-gradient solver for the sparse symmetric
// positive-definite systems arising in quadratic placement, and a
// dense simplex solver for the small linear programs used during
// sequence-pair macro legalization (Eq. 3 of the paper).
package solver

import (
	"fmt"
	"math"
)

// SparseSym is a symmetric sparse matrix specialised for
// quadratic-placement Laplacians: the diagonal is stored densely, the
// off-diagonal entries in flat CSR rows. Only one triangle needs to be
// Add-ed; entries are mirrored automatically.
//
// Add only records its entries, in call order. The first MulVec after
// an Add compiles them: a stable sort by row, then a merge of duplicate
// columns. Each row keeps its columns in the order they were first
// added and sums a column's values in call order, which is the layout
// and the summation order of per-row adjacency lists built by probing
// for the column on every Add; MulVec therefore adds the same terms in
// the same order, and every CG iterate keeps its bits. A SparseSym is
// not safe for concurrent use: MulVec may compile it, and CG keeps its
// scratch vectors in it.
type SparseSym struct {
	n    int
	diag []float64
	// adds holds the off-diagonal Adds in call order.
	adds []entry
	// compiled reports whether ptr, cols and vals hold adds: row i's
	// columns are cols[ptr[i]:ptr[i+1]], with values at the same
	// indices in vals.
	compiled bool
	ptr      []int32
	cols     []int32
	vals     []float64
	// mark is the compile step's per-row cursor and then its
	// per-column marker; work is CG's five scratch vectors.
	mark []int32
	work []float64
}

type entry struct {
	i, j int32
	v    float64
}

// NewSparseSym returns an n×n zero matrix.
func NewSparseSym(n int) *SparseSym {
	m := &SparseSym{}
	m.Reset(n)
	return m
}

// Reset makes m an n×n zero matrix, keeping its buffers for reuse.
func (m *SparseSym) Reset(n int) {
	m.n = n
	m.diag = resize(m.diag, n)
	clear(m.diag)
	m.adds = m.adds[:0]
	m.compiled = false
}

// N returns the dimension.
func (m *SparseSym) N() int { return m.n }

// AddDiag adds v to entry (i, i).
func (m *SparseSym) AddDiag(i int, v float64) { m.diag[i] += v }

// Add adds v to entries (i, j) and (j, i). Duplicate (i, j) pairs
// accumulate; i == j adds v to the diagonal once.
func (m *SparseSym) Add(i, j int, v float64) {
	if i == j {
		m.diag[i] += v
		return
	}
	if i < 0 || i >= m.n || j < 0 || j >= m.n {
		panic(fmt.Sprintf("solver: Add(%d, %d) outside a %d×%d matrix", i, j, m.n, m.n))
	}
	m.adds = append(m.adds, entry{int32(i), int32(j), v})
	m.compiled = false
}

// compile builds the CSR rows from adds (see SparseSym).
func (m *SparseSym) compile() {
	n := m.n
	m.ptr = resize(m.ptr, n+1)
	clear(m.ptr)
	for _, e := range m.adds {
		m.ptr[e.i+1]++
		m.ptr[e.j+1]++
	}
	for i := 0; i < n; i++ {
		m.ptr[i+1] += m.ptr[i]
	}
	// Counting sort of the half-entries (i, j) and (j, i) by row,
	// stable: each row's entries stay in call order.
	m.mark = resize(m.mark, n)
	next := m.mark
	copy(next, m.ptr[:n])
	m.cols = resize(m.cols, 2*len(m.adds))
	m.vals = resize(m.vals, 2*len(m.adds))
	for _, e := range m.adds {
		k := next[e.i]
		m.cols[k], m.vals[k] = e.j, e.v
		next[e.i]++
		k = next[e.j]
		m.cols[k], m.vals[k] = e.i, e.v
		next[e.j]++
	}
	// Merge duplicate columns in place. mark[c] is where column c
	// landed; a mark below the row's start is another row's.
	for i := range m.mark {
		m.mark[i] = -1
	}
	w := int32(0)
	for i := 0; i < n; i++ {
		lo, hi := m.ptr[i], m.ptr[i+1]
		m.ptr[i] = w
		for k := lo; k < hi; k++ {
			c := m.cols[k]
			if at := m.mark[c]; at >= m.ptr[i] {
				m.vals[at] += m.vals[k]
				continue
			}
			m.mark[c] = w
			m.cols[w], m.vals[w] = c, m.vals[k]
			w++
		}
	}
	m.ptr[n] = w
	m.cols, m.vals = m.cols[:w], m.vals[:w]
	m.compiled = true
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Diag returns the diagonal entry (i, i).
func (m *SparseSym) Diag(i int) float64 { return m.diag[i] }

// MulVec computes dst = M * x. dst and x must have length N.
func (m *SparseSym) MulVec(dst, x []float64) {
	if !m.compiled {
		m.compile()
	}
	for i := 0; i < m.n; i++ {
		lo, hi := m.ptr[i], m.ptr[i+1]
		cols, vals := m.cols[lo:hi], m.vals[lo:hi]
		s := m.diag[i] * x[i]
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		dst[i] = s
	}
}

// CGResult reports how a conjugate-gradient solve terminated.
type CGResult struct {
	Iterations int
	Residual   float64
	Converged  bool
}

// CG solves M x = b for symmetric positive-definite M using Jacobi-
// preconditioned conjugate gradients. x is used as the starting guess
// and overwritten with the solution. tol is the relative residual
// target (e.g. 1e-6); maxIter caps iterations (0 means 2*N). Its
// scratch vectors live in m, so repeated solves allocate nothing.
func CG(m *SparseSym, x, b []float64, tol float64, maxIter int) CGResult {
	n := m.n
	if len(x) != n || len(b) != n {
		panic(fmt.Sprintf("solver: CG dimension mismatch: n=%d len(x)=%d len(b)=%d", n, len(x), len(b)))
	}
	if maxIter <= 0 {
		maxIter = 2 * n
	}
	m.work = resize(m.work, 5*n)
	r, z, p, ap, pre := m.work[:n], m.work[n:2*n], m.work[2*n:3*n], m.work[3*n:4*n], m.work[4*n:]

	// Jacobi preconditioner; guard against zero diagonals.
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
			// Matrix is not SPD numerically; bail out with what we have.
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

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
