package agent

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"macroplace/internal/nn"
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
		seq.Backward(&seqTape, &seqTape, action, adv, target, 0.01)
		k := i % len(workers)
		w := workers[k]
		w.Forward(&tapes[k], sp, sa, step)
		w.Backward(&tapes[k], &tapes[k], action, adv, target, 0.01)
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

// TestKeptStepReplaysBackward: a step kept with KeepInto, after its
// tape has run another Forward, reports the Forward's outputs and
// replays with Backward, on that tape as scratch, into the
// gradients Forward and Backward give, bit for bit — on a replica, so
// the trainer's replay workers can run it.
func TestKeptStepReplaysBackward(t *testing.T) {
	seq := testAgent()
	ag := seq.Clone()
	w := ag.Replica()
	var seqTape, tp Tape
	kept := make([]Tape, 4)
	r := rng.New(8)
	type st struct {
		sp, sa         []float64
		t, action      int
		adv, target    float32
		probs0, value0 float32
	}
	var steps []st
	for i := range kept {
		sp, sa := randState(r, 36, 6)
		s := st{sp: sp, sa: sa, t: i % 8, action: r.Intn(36), adv: float32(r.Range(-1, 1)), target: float32(r.Float64())}
		out := ag.Forward(&tp, sp, sa, s.t)
		s.probs0, s.value0 = out.Probs[0], out.Value
		tp.KeepInto(&kept[i])
		steps = append(steps, s)
	}
	for i, s := range steps {
		if out := kept[i].Output(); out.Probs[0] != s.probs0 || out.Value != s.value0 {
			t.Fatalf("kept step %d outputs differ from its Forward's", i)
		}
		seq.Forward(&seqTape, s.sp, s.sa, s.t)
		seq.Backward(&seqTape, &seqTape, s.action, s.adv, s.target, 0.01)
		w.Backward(&kept[i], &tp, s.action, s.adv, s.target, 0.01)
	}
	for i, p := range w.Params() {
		for j, g := range p.G {
			if want := seq.Params()[i].G[j]; math.Float32bits(g) != math.Float32bits(want) {
				t.Fatalf("%s gradient[%d] = %v, Forward and Backward give %v", p.Name, j, g, want)
			}
		}
	}
}

// TestBackwardRefusesOtherShape: a kept step replayed on an agent of
// another grid size panics with its state length instead of reading
// past its buffers.
func TestBackwardRefusesOtherShape(t *testing.T) {
	var tp, kept Tape
	sp, sa := randState(rng.New(1), 36, 0)
	testAgent().Forward(&tp, sp, sa, 0)
	tp.KeepInto(&kept)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "state length") {
			t.Fatalf("panic %q, want a state-length panic", msg)
		}
	}()
	New(Config{Zeta: 8, Channels: 4, ResBlocks: 1, MaxSteps: 8, Seed: 3}).Backward(&kept, &tp, 0, 1, 1, 0)
}

// TestKeptBytesIsKeepIntoStorage: KeptBytes is exactly the storage
// KeepInto takes, at the three towers its doc names. A kept tape whose
// arena holds KeptBytes keeps a step without growing; one a float
// smaller must grow, and that growth is the allocation AllocsPerRun
// sees after its warm-up call.
func TestKeptBytesIsKeepIntoStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range []struct {
		cfg   Config
		bytes int
	}{
		{Config{Zeta: 16, Channels: 16, ResBlocks: 2, MaxSteps: 8, Seed: 1}, 141376},
		{Default(16, 8, 1), 280640},
		{Paper(8, 1), 4204608},
	} {
		ag := New(c.cfg)
		if got := ag.KeptBytes(); got != c.bytes {
			t.Fatalf("%+v: KeptBytes %d, want %d", c.cfg, got, c.bytes)
		}
		var tp Tape
		sp, sa := randState(rng.New(2), 256, 9)
		ag.Forward(&tp, sp, sa, 3)
		for _, floats := range []int{c.bytes / 4, c.bytes/4 - 1} {
			kept := Tape{tower: make([]nn.ResActs, c.cfg.ResBlocks)}
			kept.ws.Take(floats)
			kept.ws.Reset()
			grew := testing.AllocsPerRun(1, func() { tp.KeepInto(&kept) }) > 0
			if want := floats < c.bytes/4; grew != want {
				t.Errorf("%+v: KeepInto into %d floats grew the arena: %v, want %v", c.cfg, floats, grew, want)
			}
		}
	}
}
