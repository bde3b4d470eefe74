// Package nn is a small, dependency-free neural-network library built
// for the agent of Fig. 2 / Table I of the paper: im2col Conv2D,
// spatial BatchNorm, Linear, embeddings, residual blocks, hand-wired
// backpropagation, and an Adam optimizer.
//
// The library deliberately avoids a general autograd graph: the agent
// architecture is static, so each layer exposes one Forward and one
// Backward over plain float32 slices and the composite network wires
// them explicitly. Feature maps are [C, H, W], row-major. All layers
// run at a batch size of 1 — the Actor–Critic update of the paper
// accumulates gradients over the steps of 30 episodes, which maps
// naturally onto repeated single-sample backward passes. BatchNorm
// therefore normalises over the spatial extent (H×W), which is
// well-defined for the 16×16 feature maps involved.
//
// A layer holds only its parameters. Forward is a pure function of
// the weights that draws every buffer it returns from a Workspace, so
// any number of goroutines may run it at once. The rectifier has no
// layer of its own: it is fused into the step before it (BatchNorm,
// Linear, the residual add) as max(0, ·) of the identical value.
// Backward takes the input its Forward read and recomputes from it
// what it needs — the im2col columns, the BatchNorm statistics, the
// pre-activation a fused rectifier gated — with the forward's float
// operations in the forward's order, so a step's gradient is a
// function of its input alone, and it accumulates into the parameters'
// gradients.
package nn

import (
	"math"

	"macroplace/internal/rng"
)

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
