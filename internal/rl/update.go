package rl

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/grid"
	"macroplace/internal/rng"
)

// worker is one goroutine's share of a training run: an agent that
// shares the trainer's weights (the trainer's own agent for worker 0,
// which runs on the calling goroutine, a replica for the others), an
// env to roll out on, a tape whose workspace serves its Forward passes
// and its replayed backwards, a kept step for replayed steps whose
// rollout kept only the state, and its state and sampling buffers.
type worker struct {
	ag              *agent.Agent
	env             *grid.Env
	tp, kept        agent.Tape
	sp, sa, weights []float64
}

// workers returns a run's n workers. Replicas share the agent's weight
// slices, which only the optimizer step and the watchdog's restore
// write, in place, while no worker runs.
func (tr *Trainer) workers(n int) []*worker {
	ws := []*worker{{ag: tr.Agent, env: tr.Env}}
	for k := 1; k < n; k++ {
		ws = append(ws, &worker{ag: tr.Agent.Replica(), env: tr.Env.Clone()})
	}
	return ws
}

// episode is one slot of a round: an episode rolled out from a tape
// offset, with every step kept for the update.
type episode struct {
	start, end int // tape offsets of the first draw and past the last
	steps      []step
	anchors    []int
}

// keptBudget caps the bytes of activations a training run keeps for
// its updates, whatever its worker count and episode length. A var so
// that tests can shrink it.
var keptBudget = 8 << 20

// newSlots returns a run's n episode slots of g steps each. Every slot
// keeps the activations of as many of its first steps as keptBudget
// allows across all n, and only the state of the rest.
func newSlots(n, g, keptBytes int) []episode {
	keep := min(g, keptBudget/(n*keptBytes))
	slots := make([]episode, n)
	for j := range slots {
		slots[j].steps = make([]step, g)
		for i := range keep {
			slots[j].steps[i].kept = new(agent.Tape)
		}
	}
	return slots
}

// step is one decision kept for the update: the action taken and the
// Forward that chose it, kept on a tape of its own — or, for a step
// past the run's kept budget, the state to run that Forward again on.
type step struct {
	kept   *agent.Tape // nil past the budget
	sp, sa []float64   // the state, when kept is nil
	t      int
	action int
}

// rollout plays the round's episodes on the workers, episode j from
// tape offset pos+j·g. A worker plays no episode once ctx is done.
func rollout(ctx context.Context, ws []*worker, tape *rng.Tape, round []episode, pos, g int) {
	newCrew(len(round)).run(ws, func(w *worker, j int) {
		if ctx.Err() == nil {
			w.play(tape.Reader(pos+j*g), &round[j])
		}
	})
}

// play rolls out one episode on w's env with actions drawn from rd,
// keeping every step in e.
func (w *worker) play(rd *rng.Reader, e *episode) {
	e.start = rd.Off()
	w.env.Reset()
	for i := 0; !w.env.Done(); i++ {
		w.step(&rd.RNG, &e.steps[i])
	}
	e.end = rd.Off()
	e.anchors = w.env.Anchors()
}

// step takes one action of w's episode: the policy's Forward on w's
// tape, an action sampled from rnd, kept in st, and applied to the env.
func (w *worker) step(rnd *rng.RNG, st *step) {
	env := w.env
	w.sp, w.sa = env.SPInto(w.sp), env.AvailInto(w.sa)
	out := w.ag.Forward(&w.tp, w.sp, w.sa, env.T())
	st.action = w.sample(out.Probs, rnd)
	if st.kept != nil {
		w.tp.KeepInto(st.kept)
	} else {
		st.sp, st.sa, st.t = append(st.sp[:0], w.sp...), append(st.sa[:0], w.sa...), env.T()
	}
	if err := env.Step(st.action); err != nil {
		panic(fmt.Sprintf("rl: training episode produced illegal action: %v", err))
	}
}

// sample draws from probs restricted to in-bounds actions, or any
// in-bounds action when none of those has weight.
func (w *worker) sample(probs []float32, rnd *rng.RNG) int {
	if cap(w.weights) < len(probs) {
		w.weights = make([]float64, len(probs))
	}
	wt := w.weights[:len(probs)]
	for i, p := range probs {
		wt[i] = 0
		if p > 0 && w.env.InBounds(i) {
			wt[i] = float64(p)
		}
	}
	a := rnd.Choice(wt)
	if a < 0 {
		a = randomInBounds(w.env, rnd)
	}
	return a
}

// crew hands jobs 0…n−1 out in order to a run's workers, lets a job
// wait for its turn, and stops every worker once one panics.
type crew struct {
	n        int
	mu       sync.Mutex
	turn     sync.Cond // broadcast when done advances or a worker panics
	next     int       // the next job to hand out
	done     int       // jobs past their turn: job i's turn comes when done == i
	panicVal any       // the first worker panic, nil while none
}

func newCrew(n int) *crew {
	c := &crew{n: n}
	c.turn.L = &c.mu
	return c
}

// run runs the jobs on at most one worker each, the first worker on
// the calling goroutine, and returns once all have stopped. A panic on
// any worker stops the others at their next job or turn and resurfaces
// here.
func (c *crew) run(ws []*worker, job func(w *worker, i int)) {
	var wg sync.WaitGroup
	for _, w := range ws[1:min(len(ws), c.n)] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.catch()
			c.work(w, job)
		}()
	}
	func() {
		defer c.catch()
		c.work(ws[0], job)
	}()
	wg.Wait()
	if c.panicVal != nil {
		panic(c.panicVal)
	}
}

// work runs jobs on w until none are left or a worker panicked.
func (c *crew) work(w *worker, job func(w *worker, i int)) {
	for {
		c.mu.Lock()
		i := c.next
		if i == c.n || c.panicVal != nil {
			c.mu.Unlock()
			return
		}
		c.next++
		c.mu.Unlock()
		job(w, i)
	}
}

// catch records a worker panic and wakes every worker waiting for its
// turn, so none is left blocked on a job that will never finish.
func (c *crew) catch() {
	if v := recover(); v != nil {
		c.mu.Lock()
		if c.panicVal == nil {
			c.panicVal = v
		}
		c.mu.Unlock()
		c.turn.Broadcast()
	}
}

// await blocks until job i's turn, when every earlier job has called
// pass, and reports false instead if a worker panicked.
func (c *crew) await(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.done < i && c.panicVal == nil {
		c.turn.Wait()
	}
	return c.panicVal == nil
}

// pass ends the current job's turn.
func (c *crew) pass() {
	c.mu.Lock()
	c.done++
	c.mu.Unlock()
	c.turn.Broadcast()
}

// replayStep is one kept step with its episode's reward.
type replayStep struct {
	*step
	reward float32
}

// batch is one update batch in the making, across its rounds.
type batch struct {
	episodes int // accepted episodes
	steps    int // replayed steps
	fold     *agent.Fold
	// Telemetry-only loss sums, from the outputs each step's rollout
	// recorded — no effect on gradients.
	policyLoss, valueLoss, entropy float64
	// replayed is the wall time of the batch's replays.
	replayed time.Duration
}

// replay backpropagates the Actor–Critic loss of Eqs. (5)–(8) for each
// step from the activations its rollout kept, or from its state's
// Forward run again at the same weights, on the workers, at most one
// per step, and folds the steps into b strictly in step order —
// gradient and loss terms — continuing from the batch's earlier rounds.
// So every sum sees the same adds in the same order at any worker
// count, and the agent, the gauges and everything trained from them
// stay bit-identical (DESIGN.md §8).
func (b *batch) replay(ws []*worker, steps []replayStep, entropyCoef float32) {
	if len(steps) == 0 {
		return
	}
	start := time.Now()
	if b.fold == nil {
		b.fold = agent.NewFold(ws[0].ag)
	}
	c := newCrew(len(steps))
	c.run(ws, func(w *worker, i int) {
		st := steps[i]
		tp := st.kept
		if tp == nil {
			// Keeping the activations, as a rollout does, frees the
			// tape's workspace for the backward's buffers: it holds one
			// pass, not a forward and a backward.
			w.ag.Forward(&w.tp, st.sp, st.sa, st.t)
			w.tp.KeepInto(&w.kept)
			tp = &w.kept
		}
		out := tp.Output()
		adv := st.reward - out.Value // Eq. (6)
		w.ag.Backward(tp, &w.tp, st.action, adv, st.reward, entropyCoef)
		if !c.await(i) {
			return
		}
		// Only the worker holding the turn may be here, so the fold and
		// the loss sums need no lock.
		b.fold.Add(w.ag)
		if p := float64(out.Probs[st.action]); p > 0 {
			b.policyLoss += -math.Log(p) * float64(adv)
		}
		b.valueLoss += float64(adv) * float64(adv)
		for _, p := range out.Probs {
			if p > 0 {
				b.entropy += -float64(p) * math.Log(float64(p))
			}
		}
		c.pass()
	})
	b.steps += len(steps)
	b.replayed += time.Since(start)
}

// update sets the agent's gradients to the batch's fold, averages them
// over the batch's steps and applies one optimizer step.
func (tr *Trainer) update(b *batch) {
	if b.steps == 0 {
		return
	}
	start := time.Now()
	b.fold.Store(tr.Agent)

	// Average gradients over the batch for scale stability.
	inv := 1 / float32(b.steps)
	var sq float64
	for _, p := range tr.Agent.Params() {
		for i := range p.G {
			p.G[i] *= inv
			sq += float64(p.G[i]) * float64(p.G[i])
		}
	}
	tr.opt.Step()
	obsUpdates.Inc()
	n := float64(b.steps)
	obsPolicyLoss.Set(b.policyLoss / n)
	obsValueLoss.Set(b.valueLoss / n)
	obsEntropy.Set(b.entropy / n)
	obsGradNorm.Set(math.Sqrt(sq))
	obsUpdateSeconds.Observe((b.replayed + time.Since(start)).Seconds())
}
