package rl

import (
	"math"
	"runtime"
	"sync"
	"time"

	"macroplace/internal/agent"
)

// update replays each recorded step forward onto a tape, then
// backpropagates the Actor–Critic loss of Eqs. (5)–(8) and applies one
// optimizer step over the whole batch.
//
// The steps replay on runtime.GOMAXPROCS(0) workers, at most one per
// step: the trainer's own agent on the calling goroutine, and replicas
// that share its weights and live only for this update. Steps are
// handed out in order and folded strictly in step order — gradient and
// loss terms — so every sum sees the same adds in the same order at any
// worker count, and the agent, the gauges and everything trained from
// them stay bit-identical (DESIGN.md §8).
func (tr *Trainer) update(batch []episodeRecord) {
	var steps []replayStep
	for _, ep := range batch {
		for i := range ep.steps {
			steps = append(steps, replayStep{step: &ep.steps[i], reward: float32(ep.reward)})
		}
	}
	if len(steps) == 0 {
		return
	}
	start := time.Now()
	rp := &replay{steps: steps, entropyCoef: float32(tr.Cfg.EntropyCoef), fold: agent.NewFold(tr.Agent)}
	rp.turn.L = &rp.mu
	rp.run(tr.Agent, min(runtime.GOMAXPROCS(0), len(steps)))
	rp.fold.Store(tr.Agent)

	// Average gradients over the batch for scale stability.
	inv := 1 / float32(len(steps))
	var sq float64
	for _, p := range tr.Agent.Params() {
		for i := range p.G {
			p.G[i] *= inv
			sq += float64(p.G[i]) * float64(p.G[i])
		}
	}
	tr.opt.Step()
	obsUpdates.Inc()
	n := float64(len(steps))
	obsPolicyLoss.Set(rp.policyLoss / n)
	obsValueLoss.Set(rp.valueLoss / n)
	obsEntropy.Set(rp.entropy / n)
	obsGradNorm.Set(math.Sqrt(sq))
	obsUpdateSeconds.Observe(time.Since(start).Seconds())
}

// replayStep is one recorded step with its episode's reward.
type replayStep struct {
	*step
	reward float32
}

// replay is one update's worker pool: a step counter that hands steps
// out in order, and a turn that lets step i fold only after every
// earlier step has.
type replay struct {
	steps       []replayStep
	entropyCoef float32
	fold        *agent.Fold
	// Telemetry-only loss sums, recomputed from the forward pass each
	// backward step consumed — no effect on gradients.
	policyLoss, valueLoss, entropy float64

	mu       sync.Mutex
	turn     sync.Cond // broadcast when folded advances or a worker panics
	next     int       // the next step to hand out
	folded   int       // steps folded so far: step i folds when folded == i
	panicVal any       // the first worker panic, nil while none
}

// run replays every step on workers agents — ag and workers−1
// replicas — and returns once all have stopped. A panic on any worker
// stops the others at their next hand-out or turn, and resurfaces here.
func (rp *replay) run(ag *agent.Agent, workers int) {
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer rp.catch()
			rp.work(ag.Replica())
		}()
	}
	func() {
		defer rp.catch()
		rp.work(ag)
	}()
	wg.Wait()
	if rp.panicVal != nil {
		panic(rp.panicVal)
	}
}

// catch records a worker panic and wakes every worker waiting for its
// turn, so none is left blocked on a step that will never fold.
func (rp *replay) catch() {
	if v := recover(); v != nil {
		rp.mu.Lock()
		if rp.panicVal == nil {
			rp.panicVal = v
		}
		rp.mu.Unlock()
		rp.turn.Broadcast()
	}
}

// work replays steps on w until none are left or a worker panicked,
// every step on one tape that lives as long as the update.
func (rp *replay) work(w *agent.Agent) {
	var tp agent.Tape
	for {
		rp.mu.Lock()
		i := rp.next
		if i == len(rp.steps) || rp.panicVal != nil {
			rp.mu.Unlock()
			return
		}
		rp.next++
		rp.mu.Unlock()

		st := rp.steps[i]
		out := w.Forward(&tp, st.sp, st.sa, st.t)
		adv := st.reward - out.Value // Eq. (6)
		w.Backward(&tp, st.action, adv, st.reward, rp.entropyCoef)

		rp.mu.Lock()
		for rp.folded < i && rp.panicVal == nil {
			rp.turn.Wait()
		}
		stop := rp.panicVal != nil
		rp.mu.Unlock()
		if stop {
			return
		}
		// Only the worker holding step folded may be here, so the fold
		// and the loss sums need no lock.
		rp.fold.Add(w)
		if p := float64(out.Probs[st.action]); p > 0 {
			rp.policyLoss += -math.Log(p) * float64(adv)
		}
		rp.valueLoss += float64(adv) * float64(adv)
		for _, p := range out.Probs {
			if p > 0 {
				rp.entropy += -float64(p) * math.Log(float64(p))
			}
		}
		rp.mu.Lock()
		rp.folded++
		rp.mu.Unlock()
		rp.turn.Broadcast()
	}
}
