// Package nn is a small, dependency-free neural-network library built
// for the agent of Fig. 2 / Table I of the paper: float32 tensors,
// im2col Conv2D, spatial BatchNorm, ReLU, Linear, embeddings, residual
// blocks, hand-wired backpropagation, and an Adam optimizer.
//
// The library deliberately avoids a general autograd graph: the agent
// architecture is static, so each layer exposes Forward/Backward and
// the composite network wires them explicitly. All layers operate on
// a batch size of 1 — the Actor–Critic update of the paper accumulates
// gradients over the steps of 30 episodes, which maps naturally onto
// repeated single-sample backward passes. BatchNorm therefore
// normalises over the spatial extent (H×W), which is well-defined for
// the 16×16 feature maps involved.
package nn

import (
	"fmt"
	"math"

	"macroplace/internal/rng"
)

// Tensor is a dense float32 tensor with row-major layout. Feature
// maps use [C, H, W] order.
type Tensor struct {
	Shape []int
	Data  []float32
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("nn: non-positive dim %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("nn: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddInPlace accumulates o into t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	if len(t.Data) != len(o.Data) {
		panic("nn: AddInPlace size mismatch")
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
}

// Scale multiplies every element by f.
func (t *Tensor) Scale(f float32) {
	for i := range t.Data {
		t.Data[i] *= f
	}
}

// Param is a learnable parameter with its gradient accumulator.
type Param struct {
	Name string
	W    []float32
	G    []float32
}

// NewParam allocates a parameter of n elements.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float32, n), G: make([]float32, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// InitHe fills p with He-normal values scaled for fanIn, the standard
// initialisation for ReLU networks.
func (p *Param) InitHe(r *rng.RNG, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range p.W {
		p.W[i] = float32(r.NormFloat64()) * std
	}
}

// InitUniform fills p uniformly in [-a, a].
func (p *Param) InitUniform(r *rng.RNG, a float64) {
	for i := range p.W {
		p.W[i] = float32(r.Range(-a, a))
	}
}

// Fill sets every weight to v.
func (p *Param) Fill(v float32) {
	for i := range p.W {
		p.W[i] = v
	}
}

// Layer is the common shape of all trainable modules.
type Layer interface {
	// Forward consumes the input and returns the output; the layer
	// caches whatever it needs for Backward.
	Forward(x *Tensor) *Tensor
	// Backward consumes d(out) and returns d(in), accumulating
	// parameter gradients.
	Backward(dy *Tensor) *Tensor
	// Params returns the layer's learnable parameters.
	Params() []*Param
}
