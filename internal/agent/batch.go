package agent

import (
	"fmt"
	"time"

	"macroplace/internal/nn"
)

// BatchInput is one ⟨s_p, s_a, t⟩ state for EvaluateBatchInto.
type BatchInput struct {
	SP, SA []float64
	T      int
}

// EvaluateBatchInto runs both heads on each state of in, in order,
// writing one Output per input into out (len(out) must equal len(in)).
// It is the one inference entry point: training rollouts, search
// workers and greedy episodes call it with one-state batches and
// reusable buffers, and only the per-state Probs slices are freshly
// allocated — they outlive the call by contract.
//
// Each state runs through the pass Forward runs, with a pooled
// workspace and nothing recorded, so the outputs are Forward's, bit
// for bit. It reads only the weights, so it is safe to call
// concurrently with other EvaluateBatchInto calls and with Forward and
// Backward, as long as nothing writes the weights (only the optimizer
// step does).
func (a *Agent) EvaluateBatchInto(in []BatchInput, out []Output) {
	if len(in) == 0 {
		return
	}
	if len(out) != len(in) {
		panic(fmt.Sprintf("agent: EvaluateBatchInto got %d outputs for %d inputs", len(out), len(in)))
	}
	t0 := time.Now()
	ws, _ := a.infPool.Get().(*nn.Workspace)
	if ws == nil {
		ws = new(nn.Workspace)
	}
	defer a.infPool.Put(ws)
	for i := range in {
		ws.Reset()
		out[i] = a.pass(ws, in[i], nil)
	}
	obsInferLatency.Observe(time.Since(t0).Seconds())
}
