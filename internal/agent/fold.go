package agent

// Replica returns a training worker for one parallel training run: an
// agent that shares a's weight slices but owns its gradients, so a and
// its replicas can each run Forward and Backward, on their own tapes,
// on their own goroutines. The weights must not change while a replica
// is in use — only an optimizer step or a restore between rounds,
// writing them in place, may — and a replica should not outlive the
// run it serves.
func (a *Agent) Replica() *Agent {
	r := New(a.Cfg)
	for i, p := range r.params {
		p.W = a.params[i].W
	}
	return r
}

// Fold accumulates the gradients of one update batch's replayed steps
// in an order the caller fixes.
//
// Each layer's Backward adds a step's contribution to a gradient
// element with one float32 add, or skips an element the step does not
// touch (an embedding row other than t, a Linear row whose output
// gradient is 0). Add does the same with one add per element, of +0
// for an untouched one, which leaves any sum other than −0 unchanged;
// and a sum that starts at +0, as gradients do between updates, never
// becomes −0 under round-to-nearest. So folding steps in the order one
// agent would have replayed them reproduces that agent's gradients bit
// for bit, whichever agent or replica computed each step.
type Fold struct {
	grads [][]float32 // per parameter
}

// NewFold moves a's pending gradients into a new fold, leaving a's zero
// so that a can replay steps itself.
func NewFold(a *Agent) *Fold {
	f := &Fold{}
	for _, p := range a.params {
		f.grads = append(f.grads, append([]float32(nil), p.G...))
		p.ZeroGrad()
	}
	return f
}

// Add folds in the step w last ran Forward and Backward on, w being the
// fold's agent or one of its replicas, and zeroes w's gradients for its
// next step.
func (f *Fold) Add(w *Agent) {
	for i, p := range w.params {
		acc := f.grads[i][:len(p.G)]
		for j, g := range p.G {
			acc[j] += g
		}
		clear(p.G)
	}
}

// Store sets a's gradients to the fold's.
func (f *Fold) Store(a *Agent) {
	for i, p := range a.params {
		copy(p.G, f.grads[i])
	}
}
