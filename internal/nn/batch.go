package nn

import "math"

// Batched inference kernels.
//
// The training path (Forward/Backward) keeps per-layer caches and is
// therefore stateful: one goroutine, one sample at a time. The batched
// kernels below are the inference-only counterparts behind
// Agent.EvaluateBatchInto: they are pure functions of the layer
// weights, with no caches, so training rollouts, greedy episodes and
// the parallel MCTS workers (concurrently, one state each) all read
// one set of layers, and a multi-state batch flows through single
// MatMul calls.
//
// Batched feature maps are stored channel-major over the batch:
// element (c, b, i) of a [C, B, H*W] map lives at x[(c*B+b)*hw + i].
// This layout keeps every per-channel operation (convolution bias,
// BatchNorm, the im2col rows) contiguous and makes the batched
// convolution a single [Cout × Cin·K²] · [Cin·K² × B·H·W] product.
//
// Per sample, every kernel performs the same float32 operations in the
// same order as its sequential Forward counterpart, so a batched
// evaluation is bit-identical to evaluating each sample alone (the
// MCTS determinism tests rely on this).
//
// Every kernel draws its intermediate buffers from a Workspace arena
// (zero heap allocations once the arena is warm; a nil Workspace
// allocates). Fused epilogues (the convolution bias, the ReLU after
// BatchNorm, the residual add+ReLU) sweep the output once instead of
// once per epilogue; each fused form performs the identical float
// operations in the identical order, so fusion is invisible at the bit
// level.

// ForwardBatchWS applies the convolution to a batch of [Cin, H, W]
// feature maps in channel-major batch layout, with the im2col and
// output buffers drawn from ws and an optional fused ReLU on the biased
// output. It is pure: the backward caches of Forward are untouched.
func (c *Conv2D) ForwardBatchWS(ws *Workspace, x []float32, batch, h, w int, relu bool) []float32 {
	hw := h * w
	if len(x) < c.Cin*batch*hw {
		panic("nn: Conv2D.ForwardBatchWS input too small")
	}
	ck := c.Cin * c.K * c.K
	cols := ws.Take(ck * batch * hw)
	im2colBatch(cols, x, c.Cin, batch, h, w, c.K, c.Pad)

	out := ws.Take(c.Cout * batch * hw)
	MatMulBias(out, c.Weight.W, cols, c.Bias.W, c.Cout, ck, batch*hw, relu)
	return out
}

// im2colBatch lowers a channel-major batch [Cin, B, H*W] into
// cols[Cin*K*K, B*H*W] for stride-1 convolution with the given
// padding: sample b of row r occupies columns [b*hw, (b+1)*hw), so the
// per-sample columns are exactly the ones a batch of one produces. Each
// output row copies its in-bounds span and zeroes the rest; every
// element of cols is written, so cols may hold garbage on entry.
func im2colBatch(cols, x []float32, cin, batch, h, w, k, pad int) {
	hw := h * w
	bhw := batch * hw
	row := 0
	for ci := 0; ci < cin; ci++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				lo, hi := convSpan(kx, pad, w)
				for b := 0; b < batch; b++ {
					xc := x[(ci*batch+b)*hw : (ci*batch+b+1)*hw]
					dst := cols[row*bhw+b*hw : row*bhw+(b+1)*hw]
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
				row++
			}
		}
	}
}

// ForwardBatchWS normalises a channel-major batch with the same
// per-sample spatial statistics Forward uses (the batch dimension is 1
// throughout the sequential code, so statistics always come from one
// sample's H×W extent). The output is drawn from ws, and the optional
// fused ReLU takes max(0, ·) of the identical normalised value. Unlike
// Forward it records no backward cache, which keeps it pure and
// concurrency-safe.
func (bn *BatchNorm2D) ForwardBatchWS(ws *Workspace, x []float32, batch, hw int, relu bool) []float32 {
	if len(x) < bn.C*batch*hw {
		panic("nn: BatchNorm2D.ForwardBatchWS input too small")
	}
	out := ws.Take(bn.C * batch * hw)
	n := float32(hw)
	for c := 0; c < bn.C; c++ {
		g, b := bn.Gamma.W[c], bn.Beta.W[c]
		for s := 0; s < batch; s++ {
			xc := x[(c*batch+s)*hw : (c*batch+s+1)*hw]
			var mean, varv float32
			for _, v := range xc {
				mean += v
			}
			mean /= n
			for _, v := range xc {
				d := v - mean
				varv += d * d
			}
			varv /= n
			// Same float64 round trip as the sequential Forward so the
			// batched output is bit-identical per sample.
			inv := 1 / float32(math.Sqrt(float64(varv+bn.Eps)))
			oc := out[(c*batch+s)*hw : (c*batch+s+1)*hw]
			for i, v := range xc {
				// Same association as Forward (g·x̂ + b with
				// x̂ = (v−mean)·inv): float multiplication is not
				// associative and the contract is bit-identity.
				o := g*((v-mean)*inv) + b
				if relu && o < 0 {
					o = 0
				}
				oc[i] = o
			}
		}
	}
	return out
}

// AddReLUBatch computes out[i] = max(0, out[i]+x[i]) in place: the
// residual-block skip connection with its ReLU fused into one sweep.
func AddReLUBatch(out, x []float32) []float32 {
	for i, v := range out {
		v += x[i]
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

// ForwardBatchWS applies the residual block to a channel-major batch
// over a Workspace, with the first BN+ReLU and the skip add+ReLU fused.
func (b *ResBlock) ForwardBatchWS(ws *Workspace, x []float32, batch, h, w int) []float32 {
	hw := h * w
	out := b.Conv1.ForwardBatchWS(ws, x, batch, h, w, false)
	out = b.BN1.ForwardBatchWS(ws, out, batch, hw, true)
	out = b.Conv2.ForwardBatchWS(ws, out, batch, h, w, false)
	out = b.BN2.ForwardBatchWS(ws, out, batch, hw, false)
	return AddReLUBatch(out, x)
}

// ApplyInto computes W·x + b into dst (length l.Out) without recording
// the backward cache: the pure single-sample counterpart of Forward,
// with the identical accumulation order and an optional fused ReLU on
// each output — max(0, ·) of the identical sum, so the fusion is
// bit-invisible. Returns dst.
func (l *Linear) ApplyInto(dst, x []float32, relu bool) []float32 {
	if len(x) != l.In {
		panic("nn: Linear.ApplyInto input length mismatch")
	}
	if len(dst) != l.Out {
		panic("nn: Linear.ApplyInto dst length mismatch")
	}
	for o := 0; o < l.Out; o++ {
		row := l.Weight.W[o*l.In : (o+1)*l.In]
		s := l.Bias.W[o]
		for i, v := range x {
			s += row[i] * v
		}
		if relu && s < 0 {
			s = 0
		}
		dst[o] = s
	}
	return dst
}

// At returns row id of the table (clamped like Lookup) without
// recording the gradient target. The slice aliases the weights: it is
// read-only.
func (e *Embedding) At(id int) []float32 {
	if id < 0 {
		id = 0
	}
	if id >= e.N {
		id = e.N - 1
	}
	return e.Weight.W[id*e.D : (id+1)*e.D]
}
