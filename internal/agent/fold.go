package agent

// Replica returns a training worker for one parallel update: an agent
// that shares a's weight slices but owns its gradients, its layer
// caches and its BatchNorm running statistics, so a and its replicas
// can each run Forward and Backward on their own goroutine. The weights
// must not change while a replica is in use, and a replica should not
// outlive the update it serves. Its running statistics are scratch: a
// Fold carries the statistics that count.
func (a *Agent) Replica() *Agent {
	r := New(a.Cfg)
	for i, p := range r.params {
		p.W = a.params[i].W
	}
	return r
}

// Fold accumulates the replayed steps of one update batch in an order
// the caller fixes: the gradient of every parameter, and the BatchNorm
// running statistics each step's batch statistics move.
//
// Each layer's Backward adds a step's contribution to a gradient
// element with one float32 add, or skips an element the step does not
// touch (an embedding row other than t, a Linear row whose output
// gradient is 0). Add does the same with one add per element, of +0
// for an untouched one, which leaves any sum other than −0 unchanged;
// and a sum that starts at +0, as gradients do between updates, never
// becomes −0 under round-to-nearest. So folding steps in the order one
// agent would have replayed them reproduces that agent's gradients and
// running statistics bit for bit, whichever agent or replica computed
// each step.
type Fold struct {
	grads           [][]float32 // per parameter
	runMean, runVar [][]float32 // per BatchNorm layer
}

// NewFold starts a fold at a's BatchNorm running statistics and moves
// a's pending gradients into it, leaving a's zero so that a can replay
// steps itself.
func NewFold(a *Agent) *Fold {
	f := &Fold{}
	for _, p := range a.params {
		f.grads = append(f.grads, append([]float32(nil), p.G...))
		p.ZeroGrad()
	}
	for _, bn := range a.batchNorms() {
		f.runMean = append(f.runMean, append([]float32(nil), bn.RunMean...))
		f.runVar = append(f.runVar, append([]float32(nil), bn.RunVar...))
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
	for i, bn := range w.batchNorms() {
		bn.TrackStats(f.runMean[i], f.runVar[i])
	}
}

// Store sets a's gradients and BatchNorm running statistics to the
// fold's.
func (f *Fold) Store(a *Agent) {
	for i, p := range a.params {
		copy(p.G, f.grads[i])
	}
	for i, bn := range a.batchNorms() {
		copy(bn.RunMean, f.runMean[i])
		copy(bn.RunVar, f.runVar[i])
	}
}
