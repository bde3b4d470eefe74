package agent

import (
	"math"
	"testing"

	"macroplace/internal/rng"
)

// TestFoldMatchesSequentialBackward: steps replayed round-robin on an
// agent and two of its replicas and folded in step order leave the
// agent with the gradients of one agent replaying every step itself,
// bit for bit.
func TestFoldMatchesSequentialBackward(t *testing.T) {
	seq := testAgent()
	ag := seq.Clone()
	f := NewFold(ag)
	workers := []*Agent{ag, ag.Replica(), ag.Replica()}
	if &workers[1].Params()[0].W[0] != &ag.Params()[0].W[0] {
		t.Fatal("replica does not share the agent's weights")
	}
	if &workers[1].Params()[0].G[0] == &ag.Params()[0].G[0] {
		t.Fatal("replica shares the agent's gradients")
	}
	var seqTape Tape
	tapes := make([]Tape, len(workers))
	r := rng.New(5)
	for i := 0; i < 9; i++ {
		sp, sa := randState(r, 36, 4)
		step, action := i%8, r.Intn(36)
		adv, target := float32(r.Range(-1, 1)), float32(r.Float64())
		seq.Forward(&seqTape, sp, sa, step)
		seq.Backward(&seqTape, action, adv, target, 0.01)
		k := i % len(workers)
		w := workers[k]
		w.Forward(&tapes[k], sp, sa, step)
		w.Backward(&tapes[k], action, adv, target, 0.01)
		f.Add(w)
	}
	f.Store(ag)
	for i, p := range ag.Params() {
		for j, g := range p.G {
			if want := seq.Params()[i].G[j]; math.Float32bits(g) != math.Float32bits(want) {
				t.Fatalf("%s gradient[%d] = %v, sequential %v", p.Name, j, g, want)
			}
		}
	}
}
