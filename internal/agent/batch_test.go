package agent

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func batchTestAgent() *Agent {
	return New(Config{Zeta: 4, Channels: 6, ResBlocks: 2, MaxSteps: 5, Seed: 17})
}

// evaluateBatch runs in through inf's EvaluateBatchInto into a fresh
// output slice.
func evaluateBatch(inf Inferencer, in []BatchInput) []Output {
	out := make([]Output, len(in))
	inf.EvaluateBatchInto(in, out)
	return out
}

// evalState runs one state through inf's EvaluateBatchInto, the way a
// search worker or a greedy step does.
func evalState(inf Inferencer, sp, sa []float64, t int) Output {
	out := make([]Output, 1)
	inf.EvaluateBatchInto([]BatchInput{{SP: sp, SA: sa, T: t}}, out)
	return out[0]
}

// batchStates builds n distinct states with a mix of masked and open
// actions.
func batchStates(n, cells int) []BatchInput {
	in := make([]BatchInput, n)
	for b := range in {
		sp := make([]float64, cells)
		sa := make([]float64, cells)
		for i := range sp {
			sp[i] = float64((i+b*3)%7) / 7
			if (i+b)%3 != 0 {
				sa[i] = float64(i%5+1) / 5
			}
		}
		in[b] = BatchInput{SP: sp, SA: sa, T: b % 5}
	}
	return in
}

// TestEvaluateBatchMatchesForward: a multi-state call resolves its
// states in order, and each output is bit-identical to a training
// Forward of that state alone, which runs the same pass and records
// its activations on a tape. The parallel MCTS determinism story rests
// on this: batching may regroup work but never change a single result.
func TestEvaluateBatchMatchesForward(t *testing.T) {
	ag := batchTestAgent()
	cells := ag.Cfg.Zeta * ag.Cfg.Zeta
	var tp Tape
	for _, batch := range []int{1, 2, 5} {
		in := batchStates(batch, cells)
		outs := evaluateBatch(ag, in)
		if len(outs) != batch {
			t.Fatalf("batch %d: got %d outputs", batch, len(outs))
		}
		for b, o := range outs {
			requireSameOutput(t, fmt.Sprintf("batch %d state %d", batch, b), o,
				ag.Forward(&tp, in[b].SP, in[b].SA, in[b].T))
		}
	}
}

// TestEvaluateBatchIsPure: inference between a Forward and its
// Backward leaves the step alone — the tape holds the step, not the
// agent — so the gradients match an uninterrupted step bit for bit.
func TestEvaluateBatchIsPure(t *testing.T) {
	in := batchStates(3, 16)
	grads := func(interrupt bool) []float32 {
		ag := batchTestAgent()
		var tp Tape
		ag.Forward(&tp, in[0].SP, in[0].SA, in[0].T)
		if interrupt {
			evaluateBatch(ag, in[1:])
		}
		ag.Backward(&tp, &tp, 2, 0.5, 1, 0.01)
		var g []float32
		for _, p := range ag.Params() {
			g = append(g, p.G...)
		}
		return g
	}
	want, got := grads(false), grads(true)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("gradient %d = %v after an inference, %v without", i, got[i], want[i])
		}
	}
}

// TestInferenceConcurrentWithTraining: one goroutine trains the agent
// (Forward and Backward on its own tape) while four call
// EvaluateBatchInto on the same agent. Training writes only
// gradients, so every inference must equal the serial result — the
// contract that lets rollouts overlap a replay.
func TestInferenceConcurrentWithTraining(t *testing.T) {
	ag := batchTestAgent()
	in := batchStates(4, 16)
	want := evaluateBatch(ag, in)

	stop, started, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var tp Tape
		for step := 0; ; step++ {
			st := in[step%len(in)]
			out := ag.Forward(&tp, st.SP, st.SA, st.T)
			ag.Backward(&tp, &tp, step%16, 0.5-out.Value, 0.5, 0.01)
			if step == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started // training is under way before the first inference

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				for b, o := range evaluateBatch(ag, in) {
					if !sameOutput(o, want[b]) {
						errs <- fmt.Sprintf("iteration %d state %d differs from the serial result", iter, b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func sameOutput(a, b Output) bool {
	if math.Float32bits(a.Value) != math.Float32bits(b.Value) || len(a.Probs) != len(b.Probs) {
		return false
	}
	for i := range a.Probs {
		if math.Float32bits(a.Probs[i]) != math.Float32bits(b.Probs[i]) {
			return false
		}
	}
	return true
}

// TestWarmPassesAllocateOnlyProbs: at the daemon tower, a warm
// inference pass, a warm tape's Forward and Backward, and a Forward
// kept into a warm tape and replayed on the first each allocate
// once, for the returned Probs, which outlive the call.
func TestWarmPassesAllocateOnlyProbs(t *testing.T) {
	ag := New(Config{Zeta: 16, Channels: 16, ResBlocks: 2, MaxSteps: 64, Seed: 1})
	st := batchStates(1, 256)[0]
	in, out := []BatchInput{st}, make([]Output, 1)
	var tp, kept Tape
	type pass struct {
		name string
		run  func()
	}
	passes := []pass{{"training step", func() {
		ag.Forward(&tp, st.SP, st.SA, st.T)
		ag.Backward(&tp, &tp, 3, 0.5, 1, 0.01)
	}}, {"kept step", func() {
		ag.Forward(&tp, st.SP, st.SA, st.T)
		tp.KeepInto(&kept)
		ag.Backward(&kept, &tp, 3, 0.5, 1, 0.01)
	}}}
	// Inference draws its workspace from a sync.Pool, which the race
	// detector empties at random.
	if !raceEnabled {
		passes = append(passes, pass{"inference", func() { ag.EvaluateBatchInto(in, out) }})
	}
	for _, c := range passes {
		c.run() // the first pass grows the arena
		c.run() // the second allocates it
		if allocs := testing.AllocsPerRun(10, c.run); allocs > 1 {
			t.Errorf("warm %s allocates %v times, want at most 1", c.name, allocs)
		}
	}
}

// TestEvaluateBatchConcurrent hammers one agent from many goroutines
// (run under -race): EvaluateBatchInto is documented concurrency-safe, and
// every concurrent result must equal the serial one.
func TestEvaluateBatchConcurrent(t *testing.T) {
	ag := batchTestAgent()
	cells := ag.Cfg.Zeta * ag.Cfg.Zeta
	in := batchStates(4, cells)
	want := evaluateBatch(ag, in)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				outs := evaluateBatch(ag, in)
				for b := range outs {
					if outs[b].Value != want[b].Value {
						errs <- "concurrent value mismatch"
						return
					}
					for i := range outs[b].Probs {
						if outs[b].Probs[i] != want[b].Probs[i] {
							errs <- "concurrent prob mismatch"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestEvaluateBatchValidatesLengths: malformed states must be rejected
// loudly, not silently mis-evaluated.
func TestEvaluateBatchValidatesLengths(t *testing.T) {
	ag := batchTestAgent()
	defer func() {
		if recover() == nil {
			t.Fatal("short SP slice must panic")
		}
	}()
	evaluateBatch(ag, []BatchInput{{SP: []float64{1}, SA: make([]float64, 16), T: 0}})
}

// TestEvaluateBatchEmpty: an empty batch is a no-op, not a length
// mismatch.
func TestEvaluateBatchEmpty(t *testing.T) {
	batchTestAgent().EvaluateBatchInto(nil, nil)
}
