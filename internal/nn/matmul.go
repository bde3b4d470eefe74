package nn

import (
	"runtime"
	"sync"
)

// matmulParallelThreshold is the operation count above which MatMul
// fans rows out across goroutines.
const matmulParallelThreshold = 1 << 20

// The three GEMM kernels are register-blocked: each holds a small
// block of C in local accumulators across the whole p loop and stores
// every element once, so the hot loop loads only A and B. Blocks are
// 4×2 for matmulRows and MatMulATB and 2×4 for MatMulABTAcc: with one
// scalar accumulator per element, the eight accumulators and six
// operands of one p step fit in amd64's fifteen allocatable XMM
// registers, where a 4×4 block's sixteen accumulators spill. Elements
// outside whole blocks (a ragged last row block or column) are
// computed a row segment at a time. In matmulRows and MatMulATB a
// segment starts at +0 and each p adds one product to every element,
// so the elements' sums run side by side in the same p order; in
// MatMulABTAcc, whose operands are rows in p, each is one dot product.
//
// Blocking must not change results bit for bit, and it changes only
// which elements are computed together. Every c[i][j] sums its
// products from +0 in strictly increasing p in one float32 accumulator
// — the naive definition. Each update is written acc += float32(a*b):
// the explicit conversion rounds the product before the add, so a
// platform that fuses multiply-add rounds like one that does not.
// Terms with a == 0 are not skipped: an accumulator that starts at +0
// never becomes −0, so for finite inputs adding ±0 leaves its bits
// alone, and a 0 against an Inf or NaN in B yields NaN, as the naive
// definition does. Tests pin equality against naive oracles on every
// block remainder.
const mmBlockRows = 4 // matmulRows and MatMulATB block height

// MatMul computes C = A·B with A of shape (m×k), B of shape (k×n),
// and C of shape (m×n), all row-major. C is overwritten.
func MatMul(c, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("nn: MatMul buffer too small")
	}
	work := m * k * n
	if work >= matmulParallelThreshold && runtime.GOMAXPROCS(0) > 1 {
		matmulParallel(c, a, b, m, k, n)
		return
	}
	matmulRows(c, a, b, k, n, 0, m)
}

// MatMulBias computes C = A·B + bias, bias[i] added to every element of
// output row i after the element's full k sum: the Conv2D writeback.
func MatMulBias(c, a, b, bias []float32, m, k, n int) {
	MatMul(c, a, b, m, k, n)
	for i := 0; i < m; i++ {
		bi := bias[i]
		ci := c[i*n : i*n+n]
		for j := range ci {
			ci[j] += bi
		}
	}
}

// matmulRows computes rows [r0, r1) of C = A·B in 4×2 blocks. B is
// read down its columns, n apart, in increasing p.
func matmulRows(c, a, b []float32, k, n, r0, r1 int) {
	iEnd := r0 + (r1-r0)/mmBlockRows*mmBlockRows
	jEnd := n &^ 1
	for i := r0; i < iEnd; i += mmBlockRows {
		a0 := a[i*k : i*k+k]
		a1 := a[(i+1)*k:][:len(a0)]
		a2 := a[(i+2)*k:][:len(a0)]
		a3 := a[(i+3)*k:][:len(a0)]
		c0 := c[i*n : i*n+n]
		c1 := c[(i+1)*n:][:len(c0)]
		c2 := c[(i+2)*n:][:len(c0)]
		c3 := c[(i+3)*n:][:len(c0)]
		for j := 0; j < jEnd; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float32
			o := j
			for p, x0 := range a0 {
				bp := b[o : o+2 : o+2]
				y0, y1 := bp[0], bp[1]
				o += n
				x1, x2, x3 := a1[p], a2[p], a3[p]
				s00 += float32(x0 * y0)
				s01 += float32(x0 * y1)
				s10 += float32(x1 * y0)
				s11 += float32(x1 * y1)
				s20 += float32(x2 * y0)
				s21 += float32(x2 * y1)
				s30 += float32(x3 * y0)
				s31 += float32(x3 * y1)
			}
			c0[j], c0[j+1] = s00, s01
			c1[j], c1[j+1] = s10, s11
			c2[j], c2[j+1] = s20, s21
			c3[j], c3[j+1] = s30, s31
		}
	}
	for i := r0; i < r1; i++ {
		j0 := edgeStart(i, iEnd, jEnd)
		if j0 == n {
			continue
		}
		ci := c[i*n+j0 : i*n+n]
		clear(ci)
		for p, x := range a[i*k : i*k+k] {
			for j, y := range b[p*n+j0 : p*n+n] {
				ci[j] += float32(x * y)
			}
		}
	}
}

// edgeStart returns the first column of row i that no whole block
// covers: 0 for rows at or past iEnd, where the blocked rows end, and
// jEnd, where the blocked columns end, for the others.
func edgeStart(i, iEnd, jEnd int) int {
	if i >= iEnd {
		return 0
	}
	return jEnd
}

// matmulParallel splits C's rows into one chunk per worker, each a
// multiple of the block height so only the last chunk has a row
// remainder. Every element is still computed by one goroutine in the
// same p order, so the result is independent of the split.
func matmulParallel(c, a, b []float32, m, k, n int) {
	workers := runtime.GOMAXPROCS(0)
	chunk := (m + workers - 1) / workers
	chunk = (chunk + mmBlockRows - 1) / mmBlockRows * mmBlockRows
	var wg sync.WaitGroup
	for r0 := 0; r0 < m; r0 += chunk {
		r1 := min(r0+chunk, m)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			matmulRows(c, a, b, k, n, r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

// MatMulATB computes C = Aᵀ·B with A of shape (k×m), B of shape
// (k×n): the gradient-w.r.t.-input kernel of Linear/Conv backward. C
// is computed in 4×2 blocks; both operands are read down their
// columns in increasing p.
func MatMulATB(c, a, b []float32, m, k, n int) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("nn: MatMulATB buffer too small")
	}
	iEnd := m / mmBlockRows * mmBlockRows
	jEnd := n &^ 1
	for i := 0; i < iEnd; i += mmBlockRows {
		c0 := c[i*n : i*n+n]
		c1 := c[(i+1)*n:][:len(c0)]
		c2 := c[(i+2)*n:][:len(c0)]
		c3 := c[(i+3)*n:][:len(c0)]
		for j := 0; j < jEnd; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float32
			oa, ob := i, j
			for p := 0; p < k; p++ {
				ap := a[oa : oa+4 : oa+4]
				bp := b[ob : ob+2 : ob+2]
				oa += m
				ob += n
				x0, x1, x2, x3 := ap[0], ap[1], ap[2], ap[3]
				y0, y1 := bp[0], bp[1]
				s00 += float32(x0 * y0)
				s01 += float32(x0 * y1)
				s10 += float32(x1 * y0)
				s11 += float32(x1 * y1)
				s20 += float32(x2 * y0)
				s21 += float32(x2 * y1)
				s30 += float32(x3 * y0)
				s31 += float32(x3 * y1)
			}
			c0[j], c0[j+1] = s00, s01
			c1[j], c1[j+1] = s10, s11
			c2[j], c2[j+1] = s20, s21
			c3[j], c3[j+1] = s30, s31
		}
	}
	for i := 0; i < m; i++ {
		j0 := edgeStart(i, iEnd, jEnd)
		if j0 == n {
			continue
		}
		ci := c[i*n+j0 : i*n+n]
		clear(ci)
		for p := 0; p < k; p++ {
			x := a[p*m+i]
			for j, y := range b[p*n+j0 : p*n+n] {
				ci[j] += float32(x * y)
			}
		}
	}
}

// MatMulABTAcc computes C += A·Bᵀ with A of shape (m×k), B of shape
// (n×k): the weight-gradient kernel (accumulating). C is computed in
// 2×4 blocks, so every operand is a contiguous row read in increasing
// p. Each element's sum starts from +0 and is added to C once, after
// its last product.
func MatMulABTAcc(c, a, b []float32, m, k, n int) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("nn: MatMulABTAcc buffer too small")
	}
	iEnd := m &^ 1
	jEnd := n / 4 * 4
	for i := 0; i < iEnd; i += 2 {
		a0 := a[i*k : i*k+k]
		a1 := a[(i+1)*k:][:len(a0)]
		c0 := c[i*n : i*n+n]
		c1 := c[(i+1)*n:][:len(c0)]
		for j := 0; j < jEnd; j += 4 {
			b0 := b[j*k:][:len(a0)]
			b1 := b[(j+1)*k:][:len(a0)]
			b2 := b[(j+2)*k:][:len(a0)]
			b3 := b[(j+3)*k:][:len(a0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float32
			for p, x0 := range a0 {
				x1 := a1[p]
				y0, y1, y2, y3 := b0[p], b1[p], b2[p], b3[p]
				s00 += float32(x0 * y0)
				s01 += float32(x0 * y1)
				s02 += float32(x0 * y2)
				s03 += float32(x0 * y3)
				s10 += float32(x1 * y0)
				s11 += float32(x1 * y1)
				s12 += float32(x1 * y2)
				s13 += float32(x1 * y3)
			}
			c0[j] += s00
			c0[j+1] += s01
			c0[j+2] += s02
			c0[j+3] += s03
			c1[j] += s10
			c1[j+1] += s11
			c1[j+2] += s12
			c1[j+3] += s13
		}
	}
	for i := 0; i < m; i++ {
		ai := a[i*k : i*k+k]
		for j := edgeStart(i, iEnd, jEnd); j < n; j++ {
			bj := b[j*k:][:len(ai)]
			var s float32
			for p, x := range ai {
				s += float32(x * bj[p])
			}
			c[i*n+j] += s
		}
	}
}
