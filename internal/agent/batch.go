package agent

import (
	"fmt"
	"math"
	"time"

	"macroplace/internal/nn"
)

// BatchInput is one ⟨s_p, s_a, t⟩ state for EvaluateBatchInto.
type BatchInput struct {
	SP, SA []float64
	T      int
}

// inferScratch carries the workspace arena of one in-flight inference
// pass. Scratches are pooled per agent so concurrent EvaluateBatchInto
// calls never share an arena, and a warm scratch makes a whole forward
// pass allocation-free except for the returned Probs slices (which
// outlive the call: the MCTS tree and the evaluation cache retain
// them).
type inferScratch struct {
	ws nn.Workspace
}

func (a *Agent) getScratch() *inferScratch {
	sc, ok := a.infPool.Get().(*inferScratch)
	if !ok {
		sc = &inferScratch{}
	}
	return sc
}

func (a *Agent) putScratch(sc *inferScratch) { a.infPool.Put(sc) }

// EvaluateBatchInto runs both heads on a batch of states in one pass,
// writing one Output per input, in order, into out (len(out) must equal
// len(in)). It is the one inference entry point: training rollouts,
// search workers and greedy episodes call it with one-state batches and
// reusable buffers, and only the per-sample Probs slices are freshly
// allocated — they outlive the call by contract.
//
// Unlike Forward it is a pure function of the weights: it does not
// touch the layer caches that Backward consumes, so it is safe to call
// concurrently with other EvaluateBatchInto calls and with Forward and
// Backward, as long as nothing writes the weights (only the optimizer
// step does). Per sample the arithmetic matches Forward operation for
// operation, so the outputs are bit-identical to evaluating each state
// alone; the whole batch flows through single MatMul calls.
func (a *Agent) EvaluateBatchInto(in []BatchInput, out []Output) {
	batch := len(in)
	if batch == 0 {
		return
	}
	if len(out) != batch {
		panic(fmt.Sprintf("agent: EvaluateBatchInto got %d outputs for %d inputs", len(out), batch))
	}
	z := a.Cfg.Zeta
	n := z * z
	for i := range in {
		if len(in[i].SP) != n || len(in[i].SA) != n {
			panic(fmt.Sprintf("agent: batch state %d length %d/%d, want %d",
				i, len(in[i].SP), len(in[i].SA), n))
		}
	}
	t0 := time.Now()
	sc := a.getScratch()
	defer a.putScratch(sc)
	ws := &sc.ws
	ws.Reset()

	// s_p as the single input channel, channel-major batch layout.
	sp := ws.Take(batch * n)
	for b := range in {
		dst := sp[b*n : (b+1)*n]
		for i, v := range in[b].SP {
			dst[i] = float32(v)
		}
	}

	h := a.conv1.ForwardBatchWS(ws, sp, batch, z, z, false)
	h = a.bn1.ForwardBatchWS(ws, h, batch, n, true)
	for _, rb := range a.tower {
		h = rb.ForwardBatchWS(ws, h, batch, z, z)
	}
	trunk := h // [Channels, batch, n]

	// Policy head.
	hp := a.convP.ForwardBatchWS(ws, trunk, batch, z, z, false)
	hp = a.bnP.ForwardBatchWS(ws, hp, batch, n, true)
	pin := ws.Take(2 * n)
	logits := ws.Take(n)
	saF := ws.Take(n)
	for b := range in {
		// Gather sample b out of the channel-major layout: the flatten
		// order (channel 0 then channel 1) matches Forward's.
		copy(pin[:n], hp[b*n:(b+1)*n])
		copy(pin[n:], hp[(batch+b)*n:(batch+b+1)*n])
		a.fcP.ApplyInto(logits, pin, false)
		for i, v := range in[b].SA {
			saF[i] = float32(v)
		}
		out[b].Probs = nn.MaskedSoftmax(nil, logits, saF)
	}

	// Value head: concat [trunk, s_p, posEmb(t)] channels per sample.
	c := a.Cfg.Channels
	comb := ws.Take((c + 2) * batch * n)
	copy(comb[:c*batch*n], trunk)
	copy(comb[c*batch*n:(c+1)*batch*n], sp)
	for b := range in {
		copy(comb[(c+1)*batch*n+b*n:], a.posEmb.At(in[b].T))
	}
	hv := a.convV.ForwardBatchWS(ws, comb, batch, z, z, false)
	hv = a.bnV.ForwardBatchWS(ws, hv, batch, n, true)
	v1 := ws.Take(16)
	v2 := ws.Take(n)
	v3 := ws.Take(1)
	for b := range in {
		a.fc1V.ApplyInto(v1, hv[b*n:(b+1)*n], true)
		a.fc2V.ApplyInto(v2, v1, true)
		a.fc3V.ApplyInto(v3, v2, false)
		val := v3[0]
		if math.IsNaN(float64(val)) {
			val = 0
		}
		out[b].Value = val
	}
	obsInferLatency.Observe(time.Since(t0).Seconds())
}
