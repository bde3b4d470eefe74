package nn

import (
	"fmt"
	"math"

	"macroplace/internal/rng"
)

// ---------------------------------------------------------------------------
// Conv2D

// Conv2D is a stride-1, same-padding 2-D convolution over [Cin, H, W]
// feature maps, implemented as im2col + matmul.
type Conv2D struct {
	Cin, Cout, K int
	Pad          int
	Weight       *Param // [Cout][Cin*K*K]
	Bias         *Param // [Cout]
}

// NewConv2D builds a K×K convolution with same padding (pad = K/2).
func NewConv2D(name string, cin, cout, k int, r *rng.RNG) *Conv2D {
	c := &Conv2D{
		Cin: cin, Cout: cout, K: k, Pad: k / 2,
		Weight: NewParam(name+".w", cout*cin*k*k),
		Bias:   NewParam(name+".b", cout),
	}
	c.Weight.InitHe(r, cin*k*k)
	return c
}

// Params returns the kernel and the bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Forward convolves x, a [Cin, H, W] map, into a [Cout, H, W] map
// drawn from ws.
func (c *Conv2D) Forward(ws *Workspace, x []float32, h, w int) []float32 {
	cols := c.lower(ws, x, h, w)
	out := ws.Take(c.Cout * h * w)
	MatMulBias(out, c.Weight.W, cols, c.Bias.W, c.Cout, c.Cin*c.K*c.K, h*w)
	return out
}

// Backward accumulates the kernel and bias gradients for the output
// gradient dy of Forward(x) and returns the input gradient, drawn from
// ws.
func (c *Conv2D) Backward(ws *Workspace, x, dy []float32, h, w int) []float32 {
	hw := h * w
	ck := c.Cin * c.K * c.K
	cols := c.lower(ws, x, h, w)

	// dW += dy · colsᵀ ; db += Σ dy
	MatMulABTAcc(c.Weight.G, dy, cols, c.Cout, hw, ck)
	for co := 0; co < c.Cout; co++ {
		var s float32
		for _, v := range dy[co*hw : (co+1)*hw] {
			s += v
		}
		c.Bias.G[co] += s
	}

	// dcols = Wᵀ · dy ; dx = col2im(dcols). The columns are spent once
	// dW has them, so dcols reuses their buffer.
	dcols := cols
	MatMulATB(dcols, c.Weight.W, dy, ck, c.Cout, hw)
	dx := ws.Take(c.Cin * hw)
	clear(dx)
	col2im(dx, dcols, c.Cin, h, w, c.K, c.Pad)
	return dx
}

// lower checks x's shape and returns its im2col columns, drawn from ws.
func (c *Conv2D) lower(ws *Workspace, x []float32, h, w int) []float32 {
	if len(x) != c.Cin*h*w {
		panic(fmt.Sprintf("nn: Conv2D expects [%d,%d,%d], got %d values", c.Cin, h, w, len(x)))
	}
	cols := ws.Take(c.Cin * c.K * c.K * h * w)
	im2col(cols, x, c.Cin, h, w, c.K, c.Pad)
	return cols
}

// im2col lowers x, a [Cin, H, W] map, into cols[Cin*K*K, H*W] for a
// stride-1 convolution with the given padding. Each output row copies
// its in-bounds span and zeroes the rest; every element of cols is
// written, so cols may hold garbage on entry.
func im2col(cols, x []float32, cin, h, w, k, pad int) {
	hw := h * w
	row := 0
	for ci := 0; ci < cin; ci++ {
		xc := x[ci*hw : (ci+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				lo, hi := convSpan(kx, pad, w)
				dst := cols[row*hw : (row+1)*hw]
				row++
				for oy := 0; oy < h; oy++ {
					d := dst[oy*w : oy*w+w]
					iy := oy + ky - pad
					if iy < 0 || iy >= h || lo == hi {
						clear(d)
						continue
					}
					clear(d[:lo])
					copy(d[lo:hi], xc[iy*w+lo+kx-pad:])
					clear(d[hi:])
				}
			}
		}
	}
}

// col2im is the adjoint of im2col: it scatters column gradients back
// into the input gradient, adding the in-bounds span of each column
// row. Every dx element receives its adds in the same (ci, ky, kx, oy,
// ox) order as an element-by-element scatter.
func col2im(dx, dcols []float32, cin, h, w, k, pad int) {
	hw := h * w
	row := 0
	for ci := 0; ci < cin; ci++ {
		xc := dx[ci*hw : (ci+1)*hw]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := dcols[row*hw : (row+1)*hw]
				row++
				lo, hi := convSpan(kx, pad, w)
				if lo == hi {
					continue
				}
				for oy := 0; oy < h; oy++ {
					iy := oy + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					s := src[oy*w+lo : oy*w+hi]
					d := xc[iy*w+lo+kx-pad:][:len(s)]
					for x, v := range s {
						d[x] += v
					}
				}
			}
		}
	}
}

// convSpan returns the output columns [lo, hi) of kernel column kx
// whose input column ox+kx-pad lies inside [0, w); lo == hi when none
// does.
func convSpan(kx, pad, w int) (lo, hi int) {
	lo = min(max(pad-kx, 0), w)
	hi = min(max(w+pad-kx, lo), w)
	return lo, hi
}

// ---------------------------------------------------------------------------
// BatchNorm2D

// BatchNorm2D normalises each channel over its spatial extent (the
// batch dimension is 1 throughout this codebase, so statistics come
// from the H×W samples of the channel). Every pass normalises with its
// own sample's statistics, so the layer's learned state is γ and β
// alone: no running estimates are kept.
type BatchNorm2D struct {
	C   int
	Eps float32

	Gamma, Beta *Param
}

// NewBatchNorm2D builds a BatchNorm over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C: c, Eps: 1e-5,
		Gamma: NewParam(name+".gamma", c),
		Beta:  NewParam(name+".beta", c),
	}
	bn.Gamma.Fill(1)
	return bn
}

// Params returns γ and β.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Forward normalises x, C maps of hw values each, into a map drawn
// from ws, rectified when relu is set.
func (bn *BatchNorm2D) Forward(ws *Workspace, x []float32, hw int, relu bool) []float32 {
	bn.check(x, hw)
	out := ws.Take(bn.C * hw)
	for c := 0; c < bn.C; c++ {
		xc := x[c*hw : (c+1)*hw]
		mean, inv := bn.stats(xc)
		g, b := bn.Gamma.W[c], bn.Beta.W[c]
		oc := out[c*hw : (c+1)*hw]
		for i, v := range xc {
			o := g*((v-mean)*inv) + b
			if relu && o < 0 {
				o = 0
			}
			oc[i] = o
		}
	}
	return out
}

// Backward accumulates the γ and β gradients for the output gradient
// dy of Forward(x, relu) and returns the input gradient, drawn from
// ws. A rectified output passes its gradient where the normalised
// value is not negative — zero included, which the rectified output
// itself cannot tell from a negative value — so the gate is the
// recomputed value, not the output.
func (bn *BatchNorm2D) Backward(ws *Workspace, x, dy []float32, hw int, relu bool) []float32 {
	bn.check(x, hw)
	n := float32(hw)
	dx := ws.Take(bn.C * hw)
	for c := 0; c < bn.C; c++ {
		xc := x[c*hw : (c+1)*hw]
		mean, inv := bn.stats(xc)
		g, b := bn.Gamma.W[c], bn.Beta.W[c]
		dxc := dx[c*hw : (c+1)*hw]
		var sumDy, sumDyXh float32
		for i, v := range xc {
			xh := (v - mean) * inv
			d := dy[c*hw+i]
			if relu && g*xh+b < 0 {
				d = 0
			}
			dxc[i] = d
			sumDy += d
			sumDyXh += d * xh
		}
		bn.Beta.G[c] += sumDy
		bn.Gamma.G[c] += sumDyXh
		for i, v := range xc {
			xh := (v - mean) * inv
			dxc[i] = g * inv * (dxc[i] - sumDy/n - xh*sumDyXh/n)
		}
	}
	return dx
}

func (bn *BatchNorm2D) check(x []float32, hw int) {
	if len(x) != bn.C*hw {
		panic(fmt.Sprintf("nn: BatchNorm2D expects %d maps of %d, got %d values", bn.C, hw, len(x)))
	}
}

// stats returns the mean of one channel's map and the inverse of its
// standard deviation.
func (bn *BatchNorm2D) stats(xc []float32) (mean, inv float32) {
	n := float32(len(xc))
	for _, v := range xc {
		mean += v
	}
	mean /= n
	var varv float32
	for _, v := range xc {
		d := v - mean
		varv += d * d
	}
	varv /= n
	return mean, 1 / float32(math.Sqrt(float64(varv+bn.Eps)))
}

// ---------------------------------------------------------------------------
// Linear

// Linear is a fully-connected layer y = W·x + b over flattened inputs.
type Linear struct {
	In, Out int
	Weight  *Param // [Out][In]
	Bias    *Param // [Out]
}

// NewLinear builds a fully-connected layer.
func NewLinear(name string, in, out int, r *rng.RNG) *Linear {
	l := &Linear{
		In: in, Out: out,
		Weight: NewParam(name+".w", out*in),
		Bias:   NewParam(name+".b", out),
	}
	l.Weight.InitHe(r, in)
	return l
}

// Params returns the weights and the bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Forward computes W·x + b into a buffer drawn from ws, rectified when
// relu is set; any input shape with In elements works.
func (l *Linear) Forward(ws *Workspace, x []float32, relu bool) []float32 {
	l.check(x)
	out := ws.Take(l.Out)
	for o := range out {
		s := l.pre(x, o)
		if relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
	return out
}

// Backward accumulates the weight and bias gradients for the output
// gradient dy of Forward(x, relu) and returns the input gradient,
// drawn from ws. A rectified output passes its gradient where the
// recomputed pre-activation is not negative.
func (l *Linear) Backward(ws *Workspace, x, dy []float32, relu bool) []float32 {
	l.check(x)
	dx := ws.Take(l.In)
	clear(dx)
	for o := 0; o < l.Out; o++ {
		g := dy[o]
		if relu && l.pre(x, o) < 0 {
			g = 0
		}
		l.Bias.G[o] += g
		if g == 0 {
			continue
		}
		wrow := l.Weight.W[o*l.In : (o+1)*l.In]
		grow := l.Weight.G[o*l.In : (o+1)*l.In]
		for i := 0; i < l.In; i++ {
			// The conversion rounds the product before the add, so no
			// platform fuses the two: a step's contribution reaches the
			// gradient unchanged however the steps are summed (agent.Fold).
			grow[i] += float32(g * x[i])
			dx[i] += g * wrow[i]
		}
	}
	return dx
}

func (l *Linear) check(x []float32) {
	if len(x) != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d inputs, got %d", l.In, len(x)))
	}
}

// pre returns output o before any rectifier: b_o + Σ W_oi·x_i.
func (l *Linear) pre(x []float32, o int) float32 {
	row := l.Weight.W[o*l.In : (o+1)*l.In]
	s := l.Bias.W[o]
	for i, v := range x {
		s += row[i] * v
	}
	return s
}

// ---------------------------------------------------------------------------
// Embedding

// Embedding maps an integer id to a learnable D-vector; the paper uses
// it as the position embedding of the sequence number t. Ids outside
// [0, N) clamp to the nearest row.
type Embedding struct {
	N, D   int
	Weight *Param // [N][D]
}

// NewEmbedding builds an embedding table with n rows of d dims.
func NewEmbedding(name string, n, d int, r *rng.RNG) *Embedding {
	e := &Embedding{N: n, D: d, Weight: NewParam(name+".w", n*d)}
	e.Weight.InitUniform(r, 0.05)
	return e
}

// Params returns the learnable table.
func (e *Embedding) Params() []*Param { return []*Param{e.Weight} }

// At returns the row of id. The slice aliases the weights: it is
// read-only.
func (e *Embedding) At(id int) []float32 {
	id = e.row(id)
	return e.Weight.W[id*e.D : (id+1)*e.D]
}

// Accumulate adds dy to the gradient of the row At(id) returns.
func (e *Embedding) Accumulate(id int, dy []float32) {
	id = e.row(id)
	row := e.Weight.G[id*e.D : (id+1)*e.D]
	for i := range row {
		row[i] += dy[i]
	}
}

func (e *Embedding) row(id int) int { return min(max(id, 0), e.N-1) }

// ---------------------------------------------------------------------------
// Softmax helpers

// Softmax writes the softmax of logits into out (allocating when out
// is nil) and returns it. Numerically stabilised.
func Softmax(out, logits []float32) []float32 {
	if out == nil {
		out = make([]float32, len(logits))
	}
	maxv := float32(math.Inf(-1))
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range logits {
		e := float32(math.Exp(float64(v - maxv)))
		out[i] = e
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// MaskedSoftmax computes softmax over the entries whose mask value is
// positive, weighting probabilities by the mask as the paper's policy
// head does (logits are multiplied by the availability map s_a before
// the softmax). Entries with mask <= 0 get probability 0. If no entry
// has positive mask, the result is the plain softmax.
func MaskedSoftmax(out, logits, mask []float32) []float32 {
	if out == nil {
		out = make([]float32, len(logits))
	}
	any := false
	for _, m := range mask {
		if m > 0 {
			any = true
			break
		}
	}
	if !any {
		return Softmax(out, logits)
	}
	maxv := float32(math.Inf(-1))
	for i, v := range logits {
		if mask[i] > 0 && v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range logits {
		if mask[i] > 0 {
			e := mask[i] * float32(math.Exp(float64(v-maxv)))
			out[i] = e
			sum += e
		} else {
			out[i] = 0
		}
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}
