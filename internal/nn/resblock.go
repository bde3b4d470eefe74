package nn

import "macroplace/internal/rng"

// ResBlock is the residual unit of the paper's Fig. 2 (right-bottom):
// Conv3x3+BN, ReLU, Conv3x3+BN, skip connection, ReLU.
type ResBlock struct {
	Conv1 *Conv2D
	BN1   *BatchNorm2D
	Conv2 *Conv2D
	BN2   *BatchNorm2D
}

// ResActs are the activations of one ResBlock.Forward that its
// Backward reads: the block's input and both convolutions' outputs.
// Backward recomputes the BatchNorm outputs from the latter.
type ResActs struct {
	X, C1, C2 []float32
}

// NewResBlock builds a residual block over c channels.
func NewResBlock(name string, c int, r *rng.RNG) *ResBlock {
	return &ResBlock{
		Conv1: NewConv2D(name+".conv1", c, c, 3, r),
		BN1:   NewBatchNorm2D(name+".bn1", c),
		Conv2: NewConv2D(name+".conv2", c, c, 3, r),
		BN2:   NewBatchNorm2D(name+".bn2", c),
	}
}

// Params returns both convolutions' and both BatchNorms' parameters.
func (b *ResBlock) Params() []*Param {
	var out []*Param
	out = append(out, b.Conv1.Params()...)
	out = append(out, b.BN1.Params()...)
	out = append(out, b.Conv2.Params()...)
	out = append(out, b.BN2.Params()...)
	return out
}

// Forward applies the block to x, a [C, H, W] map, with every buffer
// drawn from ws, and records its activations in acts when acts is not
// nil.
func (b *ResBlock) Forward(ws *Workspace, x []float32, h, w int, acts *ResActs) []float32 {
	hw := h * w
	c1 := b.Conv1.Forward(ws, x, h, w)
	a1 := b.BN1.Forward(ws, c1, hw, true)
	c2 := b.Conv2.Forward(ws, a1, h, w)
	b2 := b.BN2.Forward(ws, c2, hw, false)
	out := ws.Take(len(x))
	for i, v := range b2 {
		v += x[i]
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	if acts != nil {
		*acts = ResActs{X: x, C1: c1, C2: c2}
	}
	return out
}

// Backward accumulates the block's parameter gradients for the output
// gradient dy of the Forward that recorded acts, and returns the input
// gradient, drawn from ws.
func (b *ResBlock) Backward(ws *Workspace, acts *ResActs, dy []float32, h, w int) []float32 {
	hw := h * w
	// BatchNorm is a pure function of its input and weights, so these
	// are the Forward's outputs bit for bit, and acts need not hold them.
	a1 := b.BN1.Forward(ws, acts.C1, hw, true)
	b2 := b.BN2.Forward(ws, acts.C2, hw, false)
	// The output rectifier gates on the recomputed sum; d flows both
	// into the residual branch and the identity skip.
	d := ws.Take(len(dy))
	for i, v := range dy {
		if b2[i]+acts.X[i] < 0 {
			v = 0
		}
		d[i] = v
	}
	db := b.BN2.Backward(ws, acts.C2, d, hw, false)
	db = b.Conv2.Backward(ws, a1, db, h, w)
	db = b.BN1.Backward(ws, acts.C1, db, hw, true)
	db = b.Conv1.Backward(ws, acts.X, db, h, w)
	for i, v := range d { // skip path
		db[i] += v
	}
	return db
}
