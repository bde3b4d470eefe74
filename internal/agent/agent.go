// Package agent implements the Actor–Critic network of the paper's
// Fig. 2 and Table I: a shared convolution trunk with a residual
// tower, a policy head whose logits are gated by the availability map
// s_a, and a value head that combines the trunk output with s_p and a
// position embedding of the sequence number t.
//
// The architecture is configurable. Paper() returns the exact shape of
// Table I (ζ=16, 128 channels, 10 residual blocks); experiments
// default to a narrower tower so CPU-only training finishes in
// reasonable time — the substitution is recorded in DESIGN.md.
package agent

import (
	"fmt"
	"math"
	"sync"
	"time"

	"macroplace/internal/nn"
	"macroplace/internal/rng"
)

// Config describes the network shape.
type Config struct {
	// Zeta is the grid resolution; actions and maps are Zeta×Zeta.
	Zeta int
	// Channels is the trunk width (paper: 128).
	Channels int
	// ResBlocks is the residual-tower depth (paper: 10).
	ResBlocks int
	// MaxSteps bounds the sequence number t for the position
	// embedding table.
	MaxSteps int
	// Seed drives weight initialisation.
	Seed int64
}

// Paper returns the exact Table I configuration.
func Paper(maxSteps int, seed int64) Config {
	return Config{Zeta: 16, Channels: 128, ResBlocks: 10, MaxSteps: maxSteps, Seed: seed}
}

// Default returns a CPU-friendly configuration that preserves the
// architecture's structure at reduced width/depth.
func Default(zeta, maxSteps int, seed int64) Config {
	return Config{Zeta: zeta, Channels: 24, ResBlocks: 3, MaxSteps: maxSteps, Seed: seed}
}

func (c Config) normalize() Config {
	if c.Zeta <= 0 {
		c.Zeta = 16
	}
	if c.Channels <= 0 {
		c.Channels = 24
	}
	if c.ResBlocks <= 0 {
		c.ResBlocks = 3
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 64
	}
	return c
}

// Output is one inference result: the action distribution p_θ,t over
// the ζ² grids and the value estimate v_θ,t.
type Output struct {
	Probs []float32
	Value float32
}

// Agent is the Actor–Critic network: its configuration, its
// parameters (weights and gradients) and a pool of inference
// workspaces. EvaluateBatchInto and Forward only read the agent (each
// pass runs on a pooled workspace or the caller's Tape), so both are
// safe for concurrent use, with each other and with Backward, as long
// as nothing writes the weights (only an optimizer step does): the
// trainer's rollout workers run Forward on the agent and on its
// Replicas, which share its weights. Backward accumulates into the
// agent's gradients, so one goroutine at a time runs it on an agent; a
// parallel update runs it on Replicas, one per worker.
type Agent struct {
	Cfg Config

	// trunk
	conv1 *nn.Conv2D
	bn1   *nn.BatchNorm2D
	tower []*nn.ResBlock

	// policy head
	convP *nn.Conv2D
	bnP   *nn.BatchNorm2D
	fcP   *nn.Linear

	// value head
	posEmb *nn.Embedding
	convV  *nn.Conv2D
	bnV    *nn.BatchNorm2D
	fc1V   *nn.Linear
	fc2V   *nn.Linear
	fc3V   *nn.Linear

	params []*nn.Param

	// infPool recycles the *nn.Workspace of EvaluateBatchInto, one per
	// in-flight call; the zero value is ready to use.
	infPool sync.Pool
}

// New builds an agent with freshly initialised weights.
func New(cfg Config) *Agent {
	cfg = cfg.normalize()
	r := rng.New(cfg.Seed).Split("agent")
	z, c := cfg.Zeta, cfg.Channels
	a := &Agent{Cfg: cfg}
	a.conv1 = nn.NewConv2D("conv1", 1, c, 3, r)
	a.bn1 = nn.NewBatchNorm2D("bn1", c)
	for i := 0; i < cfg.ResBlocks; i++ {
		a.tower = append(a.tower, nn.NewResBlock(fmt.Sprintf("res%d", i), c, r))
	}
	a.convP = nn.NewConv2D("convP", c, 2, 1, r)
	a.bnP = nn.NewBatchNorm2D("bnP", 2)
	a.fcP = nn.NewLinear("fcP", 2*z*z, z*z, r)

	a.posEmb = nn.NewEmbedding("pos", cfg.MaxSteps, z*z, r)
	a.convV = nn.NewConv2D("convV", c+2, 1, 1, r)
	a.bnV = nn.NewBatchNorm2D("bnV", 1)
	a.fc1V = nn.NewLinear("fc1V", z*z, 16, r)
	a.fc2V = nn.NewLinear("fc2V", 16, z*z, r)
	a.fc3V = nn.NewLinear("fc3V", z*z, 1, r)

	// Parameter order is the checkpoint layout and the fingerprint's.
	a.params = append(a.conv1.Params(), a.bn1.Params()...)
	for _, rb := range a.tower {
		a.params = append(a.params, rb.Params()...)
	}
	for _, ps := range [][]*nn.Param{
		a.convP.Params(), a.bnP.Params(), a.fcP.Params(),
		a.convV.Params(), a.bnV.Params(), a.fc1V.Params(), a.fc2V.Params(), a.fc3V.Params(),
		a.posEmb.Params(),
	} {
		a.params = append(a.params, ps...)
	}
	return a
}

// Params returns every learnable parameter.
func (a *Agent) Params() []*nn.Param { return a.params }

// Clone returns an agent with the same configuration and a deep copy
// of the current weights (gradients are not copied).
func (a *Agent) Clone() *Agent {
	cp := New(a.Cfg)
	cp.CopyWeightsFrom(a)
	return cp
}

// CopyWeightsFrom overwrites this agent's weights with other's. The
// two agents must share a configuration.
func (a *Agent) CopyWeightsFrom(other *Agent) {
	if len(a.params) != len(other.params) {
		panic("agent: CopyWeightsFrom across different configurations")
	}
	for i, p := range a.params {
		if len(p.W) != len(other.params[i].W) {
			panic(fmt.Sprintf("agent: CopyWeightsFrom %s: %d weights into %d", p.Name, len(other.params[i].W), len(p.W)))
		}
		copy(p.W, other.params[i].W)
	}
}

// NumParams returns the total scalar parameter count.
func (a *Agent) NumParams() int {
	n := 0
	for _, p := range a.params {
		n += len(p.W)
	}
	return n
}

// Tape is one training step: the workspace a step's Forward and
// Backward draw their buffers from, and the activations of the last
// Forward, which Backward reads. It belongs to the goroutine that
// trains, never to an agent, so an agent that has stopped training
// holds no step's buffers. A warm tape makes a step allocation-free
// except for the returned Probs. The zero value is ready to use.
//
// A step can also be kept for a later Backward: KeepInto copies what
// Backward reads into another Tape, whose storage then holds only that
// (KeptBytes), and Backward replays the kept step on another tape's
// workspace. The trainer keeps rollout steps so, up to a byte budget,
// and its update replays those without running Forward again.
type Tape struct {
	ws    nn.Workspace
	tower []nn.ResActs
	ready bool

	t                    int
	sp, sa, c1, trunk    []float32
	cP, pin, probs       []float32
	comb, cV, hv, v1, v2 []float32
	value                float32
}

// Forward runs both heads on state ⟨s_p, s_a, t⟩ and records on tp
// what Backward reads. sp and sa must have length ζ². The returned
// distribution is the availability-gated softmax: p_i ∝
// s_a(i)·exp(logit_i), which zeroes unavailable grids and biases
// toward roomier ones (the paper multiplies the policy features by s_a
// before its softmax; the gated form keeps infeasible grids at exactly
// zero probability). The outputs are those of EvaluateBatchInto on the
// same state, bit for bit: both run one pass. Forward only reads the
// agent, so goroutines may run it concurrently, each on its own tape.
func (a *Agent) Forward(tp *Tape, sp, sa []float64, t int) Output {
	t0 := time.Now()
	tp.ready = false
	tp.ws.Reset()
	if len(tp.tower) != len(a.tower) {
		tp.tower = make([]nn.ResActs, len(a.tower))
	}
	out := a.pass(&tp.ws, BatchInput{SP: sp, SA: sa, T: t}, tp)
	obsInferLatency.Observe(time.Since(t0).Seconds())
	return out
}

// pass runs both heads on one state with every buffer drawn from ws.
// When tp is not nil it records there the activations Backward reads.
func (a *Agent) pass(ws *nn.Workspace, in BatchInput, tp *Tape) Output {
	z := a.Cfg.Zeta
	n := z * z
	if len(in.SP) != n || len(in.SA) != n {
		panic(fmt.Sprintf("agent: state length %d/%d, want %d", len(in.SP), len(in.SA), n))
	}
	sp := ws.Take(n)
	for i, v := range in.SP {
		sp[i] = float32(v)
	}
	sa := ws.Take(n)
	for i, v := range in.SA {
		sa[i] = float32(v)
	}

	c1 := a.conv1.Forward(ws, sp, z, z)
	h := a.bn1.Forward(ws, c1, n, true)
	for i, rb := range a.tower {
		var acts *nn.ResActs
		if tp != nil {
			acts = &tp.tower[i]
		}
		h = rb.Forward(ws, h, z, z, acts)
	}
	trunk := h

	// Policy head.
	cP := a.convP.Forward(ws, trunk, z, z)
	pin := a.bnP.Forward(ws, cP, n, true)
	probs := nn.MaskedSoftmax(nil, a.fcP.Forward(ws, pin, false), sa)

	// Value head: concat [trunk, s_p, posEmb(t)] channels.
	c := a.Cfg.Channels
	comb := ws.Take((c + 2) * n)
	copy(comb, trunk)
	copy(comb[c*n:], sp)
	copy(comb[(c+1)*n:], a.posEmb.At(in.T))
	cV := a.convV.Forward(ws, comb, z, z)
	hv := a.bnV.Forward(ws, cV, n, true)
	v1 := a.fc1V.Forward(ws, hv, true)
	v2 := a.fc2V.Forward(ws, v1, true)
	val := a.fc3V.Forward(ws, v2, false)[0]
	if math.IsNaN(float64(val)) {
		val = 0
	}
	if tp != nil {
		tp.t, tp.sp, tp.sa, tp.c1, tp.trunk = in.T, sp, sa, c1, trunk
		tp.cP, tp.pin, tp.probs = cP, pin, probs
		tp.comb, tp.cV, tp.hv, tp.v1, tp.v2, tp.value = comb, cV, hv, v1, v2, val
		tp.ready = true
	}
	return Output{Probs: probs, Value: val}
}

// Output returns the outputs of the Forward recorded on tp, or kept
// there by KeepInto.
func (tp *Tape) Output() Output { return Output{Probs: tp.probs, Value: tp.value} }

// KeepInto copies what Backward reads of the Forward last run on tp
// into dst, which owns the copy: dst's storage grows to KeptBytes, and
// a warm dst takes the next copy without allocating. The returned
// Probs are shared, not copied. tp itself is left as it was.
func (tp *Tape) KeepInto(dst *Tape) {
	if !tp.ready {
		panic("agent: KeepInto without a preceding Forward")
	}
	ws := &dst.ws
	ws.Reset()
	keep := func(s []float32) []float32 {
		d := ws.Take(len(s))
		copy(d, s)
		return d
	}
	if len(dst.tower) != len(tp.tower) {
		dst.tower = make([]nn.ResActs, len(tp.tower))
	}
	for i, r := range tp.tower {
		dst.tower[i] = nn.ResActs{X: keep(r.X), C1: keep(r.C1), C2: keep(r.C2)}
	}
	dst.t, dst.probs, dst.value = tp.t, tp.probs, tp.value
	dst.sa, dst.c1, dst.cP, dst.pin = keep(tp.sa), keep(tp.c1), keep(tp.cP), keep(tp.pin)
	dst.comb, dst.cV, dst.hv, dst.v1, dst.v2 = keep(tp.comb), keep(tp.cV), keep(tp.hv), keep(tp.v1), keep(tp.v2)
	// comb is [trunk | s_p | posEmb(t)], copied bit for bit.
	nt := len(tp.trunk)
	dst.trunk, dst.sp = dst.comb[:nt], dst.comb[nt:nt+len(tp.sp)]
	dst.ready = true
}

// KeptBytes returns the storage KeepInto gives each of a's steps: 138
// KiB at the daemon tower (ζ=16, 16 channels, 2 blocks), 274 KiB at
// Default(16, …) and 4.0 MiB at Paper.
func (a *Agent) KeptBytes() int {
	n, c := a.Cfg.Zeta*a.Cfg.Zeta, a.Cfg.Channels
	floats := 3 * c * n * len(a.tower) // each block's X, C1 and C2
	floats += n + c*n + 2*n + 2*n      // sa, c1, cP, pin
	floats += (c+2)*n + n + n          // comb, cV, hv
	floats += a.fc1V.Out + a.fc2V.Out  // v1, v2
	return 4 * floats
}

// Backward accumulates gradients for the combined Actor–Critic loss of
// Eqs. (5)–(8) for the state of the Forward last run on tp, or kept on
// tp by KeepInto:
//
//	L = −log p(action)·advantage  +  (R − v)²  −  entropyCoef·H(p)
//
// action is the taken action, advantage is A_t = R_t − v_θ,t (treated
// as a constant, per Eq. 5), and target is R_t for the value head.
//
// The backward draws its buffers from scratch's workspace. A step
// trained in place passes its own tape as scratch, so the buffers
// follow its Forward's; a kept step passes another tape, whose
// recorded Forward is discarded, so the kept step's storage never
// grows by a backward's buffers. The gradients are the same bits
// either way.
func (a *Agent) Backward(tp, scratch *Tape, action int, advantage, target float32, entropyCoef float32) {
	if !tp.ready {
		panic("agent: Backward without a preceding Forward")
	}
	z := a.Cfg.Zeta
	n := z * z
	c := a.Cfg.Channels
	if len(tp.sa) != n {
		panic(fmt.Sprintf("agent: Backward on a step of state length %d, want %d", len(tp.sa), n))
	}
	tp.ready = false
	ws := &tp.ws
	if scratch != tp {
		scratch.ready = false
		ws = &scratch.ws
		ws.Reset()
	}

	// --- Policy head gradient w.r.t. logits.
	var entropy float32
	if entropyCoef > 0 {
		for _, p := range tp.probs {
			if p > 1e-12 {
				entropy -= p * logf(p)
			}
		}
	}
	dLogits := ws.Take(n)
	for i := range dLogits {
		dLogits[i] = 0
		if tp.sa[i] <= 0 {
			continue
		}
		p := tp.probs[i]
		g := advantage * p
		if i == action {
			g -= advantage
		}
		if entropyCoef > 0 && p > 1e-12 {
			// Maximizing H adds −c·dH/dlogit_i = c·p_i(log p_i + H).
			g += entropyCoef * p * (logf(p) + entropy)
		}
		dLogits[i] = g
	}
	d := a.fcP.Backward(ws, tp.pin, dLogits, false)
	d = a.bnP.Backward(ws, tp.cP, d, n, true)
	dTrunk := a.convP.Backward(ws, tp.trunk, d, z, z)

	// --- Value head gradient: d/dv (R − v)² = 2(v − R).
	dv := ws.Take(1)
	dv[0] = 2 * (tp.value - target)
	d = a.fc3V.Backward(ws, tp.v2, dv, false)
	d = a.fc2V.Backward(ws, tp.v1, d, true)
	d = a.fc1V.Backward(ws, tp.hv, d, true)
	d = a.bnV.Backward(ws, tp.cV, d, n, true)
	dComb := a.convV.Backward(ws, tp.comb, d, z, z)

	// The combined gradient splits into the trunk channels, s_p (an
	// input: no gradient) and the position embedding.
	a.posEmb.Accumulate(tp.t, dComb[(c+1)*n:])

	// --- Trunk: sum of both heads' gradients.
	for i, v := range dComb[:c*n] {
		dTrunk[i] += v
	}
	for i := len(a.tower) - 1; i >= 0; i-- {
		dTrunk = a.tower[i].Backward(ws, &tp.tower[i], dTrunk, z, z)
	}
	d = a.bn1.Backward(ws, tp.c1, dTrunk, n, true)
	a.conv1.Backward(ws, tp.sp, d, z, z)
}

func logf(x float32) float32 { return float32(math.Log(float64(x))) }
