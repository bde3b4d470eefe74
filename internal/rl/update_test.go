package rl

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/geom"
	"macroplace/internal/grid"
	"macroplace/internal/nn"
	"macroplace/internal/rng"
)

// historyHash hashes the float64 bits of every History entry.
func historyHash(h []EpisodeStat) uint64 {
	f := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.Write(b[:])
	}
	for _, st := range h {
		word(uint64(st.Episode))
		word(math.Float64bits(st.Wirelength))
		word(math.Float64bits(st.Reward))
	}
	return f.Sum64()
}

// withProcs runs f at GOMAXPROCS=procs and restores the previous
// setting.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// withKeptBudget runs f with keptBudget set to bytes and restores it.
func withKeptBudget(bytes int, f func()) {
	defer func(b int) { keptBudget = b }(keptBudget)
	keptBudget = bytes
	f()
}

// testBudgets are the kept budgets the bit-for-bit tests run at, for
// testTrainer's three-step episodes: the default, which keeps every
// step; two steps' bytes, which keeps two, one and no steps of each
// episode at 1, 2 and 4 workers; and zero, which runs every step's
// Forward again in the update.
func testBudgets() []int {
	kb := testTrainer(Config{}).Agent.KeptBytes()
	return []int{keptBudget, 2 * kb, 0}
}

// TestUpdateGoldenAcrossGOMAXPROCS pins a whole training run — the final
// agent, every snapshot, the History bits and the update's gauges — to
// values recorded with the sequential rollouts and replay that the
// rounds and the parallel update replaced, at 1, 2 and 4 workers and at
// every testBudgets kept budget. Three batches of 7 episodes and a 6-episode tail, with an entropy
// bonus, exercise partial batches, rounds cut short by a filling batch
// and the entropy gradient across updates. Episodes 0 and 5 share a
// fingerprint because no update runs between them.
func TestUpdateGoldenAcrossGOMAXPROCS(t *testing.T) {
	const (
		wantAgent   = 0x9d44659d12d489a0
		wantHistory = 0x2136909cce623a80
	)
	wantSnaps := []struct {
		episode int
		fp      uint64
	}{
		{0, 0x3b13166b6260c716},
		{5, 0x3b13166b6260c716},
		{10, 0xfdab27fc435d5105},
		{15, 0xca3bcbbe68f77e35},
		{20, wantAgent},
	}
	wantGauges := []struct {
		name string
		g    interface{ Value() float64 }
		bits uint64
	}{
		{"policy loss", obsPolicyLoss, 0x4009bf45c0fcbc38},
		{"value loss", obsValueLoss, 0x400167dd00636f82},
		{"entropy", obsEntropy, 0x4002b40fb06e2c49},
		{"grad norm", obsGradNorm, 0x4042c60d6e572fe2},
	}
	for _, budget := range testBudgets() {
		for _, procs := range []int{1, 2, 4} {
			var tr *Trainer
			withKeptBudget(budget, func() {
				withProcs(procs, func() {
					tr = testTrainer(Config{Episodes: 20, UpdateEvery: 7, CalibrationEpisodes: 6,
						EntropyCoef: 0.01, SnapshotEvery: 5, LR: 3e-3, Seed: 9})
					tr.Run()
				})
			})
			at := fmt.Sprintf("GOMAXPROCS=%d, kept budget %d", procs, budget)
			if got := tr.Agent.Fingerprint(); got != wantAgent {
				t.Errorf("%s: agent fingerprint %#x, want %#x", at, got, uint64(wantAgent))
			}
			if got := historyHash(tr.History); got != wantHistory {
				t.Errorf("%s: history hash %#x, want %#x", at, got, uint64(wantHistory))
			}
			if len(tr.Snapshots) != len(wantSnaps) {
				t.Fatalf("%s: %d snapshots, want %d", at, len(tr.Snapshots), len(wantSnaps))
			}
			for i, w := range wantSnaps {
				s := tr.Snapshots[i]
				if s.Episode != w.episode || s.Agent.Fingerprint() != w.fp {
					t.Errorf("%s: snapshot %d = episode %d %#x, want episode %d %#x",
						at, i, s.Episode, s.Agent.Fingerprint(), w.episode, w.fp)
				}
			}
			for _, w := range wantGauges {
				if got := math.Float64bits(w.g.Value()); got != w.bits {
					t.Errorf("%s: %s gauge bits %#x, want %#x", at, w.name, got, w.bits)
				}
			}
		}
	}
}

// seqStep is one recorded decision of the sequential oracles: its
// state, copied as the loop that rounds replaced copied it, and the
// action taken.
type seqStep struct {
	sp, sa    []float64
	t, action int
}

// seqEpisode is one recorded episode awaiting a sequential update.
type seqEpisode struct {
	steps  []seqStep
	reward float64
}

// sequentialUpdate is the one-worker update the parallel replay
// replaced, kept as the test oracle: every step runs Forward and
// Backward with its gradient accumulating straight into the agent's.
// It returns the gauge values.
func sequentialUpdate(ag *agent.Agent, opt *nn.Adam, batch []seqEpisode, entropyCoef float64) (policyLoss, valueLoss, entropy, gradNorm float64) {
	count := 0
	var tp agent.Tape
	for _, ep := range batch {
		r := float32(ep.reward)
		for _, st := range ep.steps {
			out := ag.Forward(&tp, st.sp, st.sa, st.t)
			adv := r - out.Value
			ag.Backward(&tp, &tp, st.action, adv, r, float32(entropyCoef))
			if p := float64(out.Probs[st.action]); p > 0 {
				policyLoss += -math.Log(p) * float64(adv)
			}
			valueLoss += float64(adv) * float64(adv)
			for _, p := range out.Probs {
				if p > 0 {
					entropy += -float64(p) * math.Log(float64(p))
				}
			}
			count++
		}
	}
	inv := 1 / float32(count)
	var sq float64
	for _, p := range ag.Params() {
		for i := range p.G {
			p.G[i] *= inv
			sq += float64(p.G[i]) * float64(p.G[i])
		}
	}
	opt.Step()
	n := float64(count)
	return policyLoss / n, valueLoss / n, entropy / n, math.Sqrt(sq)
}

// sequentialTrain is the one-goroutine training loop the rounds
// replaced, kept as the test oracle: every episode rolls out in order
// on tr's env through EvaluateBatchInto, with actions drawn from rnd,
// and every batch runs sequentialUpdate. It has no watchdog. It returns
// the last update's gauges.
func sequentialTrain(tr *Trainer, rnd *rng.RNG) (gauges [4]float64) {
	if tr.Cfg.SnapshotEvery > 0 {
		tr.snapshot(0)
	}
	env := tr.Env
	sampler := &worker{env: env}
	var batch []seqEpisode
	var in [1]agent.BatchInput
	var out [1]agent.Output
	for ep := 1; ep <= tr.Cfg.Episodes; ep++ {
		env.Reset()
		var steps []seqStep
		for !env.Done() {
			st := seqStep{sp: env.SPInto(nil), sa: env.AvailInto(nil), t: env.T()}
			in[0] = agent.BatchInput{SP: st.sp, SA: st.sa, T: st.t}
			tr.Agent.EvaluateBatchInto(in[:], out[:])
			st.action = sampler.sample(out[0].Probs, rnd)
			steps = append(steps, st)
			if err := env.Step(st.action); err != nil {
				panic(err)
			}
		}
		w := tr.WL(env.Anchors())
		r := tr.Scaler.Reward(w)
		tr.History = append(tr.History, EpisodeStat{Episode: ep, Wirelength: w, Reward: r})
		if isFinite(w) && isFinite(r) {
			batch = append(batch, seqEpisode{steps: steps, reward: r})
		}
		if len(batch) >= tr.Cfg.UpdateEvery || ep == tr.Cfg.Episodes {
			if len(batch) > 0 {
				p, v, e, g := sequentialUpdate(tr.Agent, tr.opt, batch, tr.Cfg.EntropyCoef)
				gauges = [4]float64{p, v, e, g}
			}
			batch = nil
		}
		tr.snapshotDue(ep)
	}
	return gauges
}

// gaugeValues returns the update gauges in sequentialTrain's order.
func gaugeValues() [4]float64 {
	return [4]float64{obsPolicyLoss.Value(), obsValueLoss.Value(), obsEntropy.Value(), obsGradNorm.Value()}
}

// forcedDraws is a Source that returns 1<<63−1 in place of src's draws
// at the listed indices. Float64 rejects that value and draws again,
// so an episode that meets one reads one draw more than it has steps.
type forcedDraws struct {
	src rng.Source
	at  []int
	n   int
}

func (f *forcedDraws) Int63() int64 {
	v := f.src.Int63()
	if slices.Contains(f.at, f.n) {
		v = 1<<63 - 1
	}
	f.n++
	return v
}

// forcedTape returns a tape over tr's actions stream, as RunContext
// builds it, with draws 0, 4, 31 and 40 forced. Draw 0 is the first
// episode's first step, so at every GOMAXPROCS above 1 the second
// episode of the first round starts at the wrong offset.
func forcedTape(tr *Trainer) *rng.Tape {
	return rng.NewTape(&forcedDraws{src: tr.rnd.Split("actions"), at: []int{0, 4, 31, 40}})
}

// TestForcedDrawMismatchMatchesSequentialTrainer: when episodes read
// more draws than they have steps — from the first episode of a round
// on — the rounds roll the later episodes out again from their true
// offsets, and the run equals the sequential trainer's bit for bit at
// 1, 2 and 4 workers and every testBudgets kept budget: agent,
// snapshots, History and gauges.
func TestForcedDrawMismatchMatchesSequentialTrainer(t *testing.T) {
	cfg := Config{Episodes: 20, UpdateEvery: 7, CalibrationEpisodes: 6,
		EntropyCoef: 0.01, SnapshotEvery: 5, LR: 3e-3, Seed: 9}
	ref := testTrainer(cfg)
	ref.Calibrate()
	wantGauges := sequentialTrain(ref, &forcedTape(ref).Reader(0).RNG)
	if historyHash(ref.History) == 0x2136909cce623a80 {
		t.Fatal("forced draws left the golden run's History unchanged: nothing was forced")
	}
	for _, budget := range testBudgets() {
		for _, procs := range []int{1, 2, 4} {
			tr := testTrainer(cfg)
			tr.Calibrate()
			withKeptBudget(budget, func() {
				withProcs(procs, func() { tr.train(context.Background(), forcedTape(tr)) })
			})
			at := fmt.Sprintf("GOMAXPROCS=%d, kept budget %d", procs, budget)
			if got, want := tr.Agent.Fingerprint(), ref.Agent.Fingerprint(); got != want {
				t.Errorf("%s: agent fingerprint %#x, sequential %#x", at, got, want)
			}
			if got, want := historyHash(tr.History), historyHash(ref.History); got != want {
				t.Errorf("%s: history hash %#x, sequential %#x", at, got, want)
			}
			if len(tr.Snapshots) != len(ref.Snapshots) {
				t.Fatalf("%s: %d snapshots, sequential %d", at, len(tr.Snapshots), len(ref.Snapshots))
			}
			for i, s := range tr.Snapshots {
				w := ref.Snapshots[i]
				if s.Episode != w.Episode || s.Agent.Fingerprint() != w.Agent.Fingerprint() {
					t.Errorf("%s: snapshot %d = episode %d %#x, sequential episode %d %#x",
						at, i, s.Episode, s.Agent.Fingerprint(), w.Episode, w.Agent.Fingerprint())
				}
			}
			for i, g := range gaugeValues() {
				if math.Float64bits(g) != math.Float64bits(wantGauges[i]) {
					t.Errorf("%s: gauge %d = %v, sequential %v", at, i, g, wantGauges[i])
				}
			}
		}
	}
}

// TestNewSlotsKeepWithinBudget: a run's kept activations stay within
// keptBudget at any worker count, episode length and tower — from the
// flow workload's five-step episodes to CT's 246 steps at ibm01 — and
// each episode keeps as many steps as the budget allows.
func TestNewSlotsKeepWithinBudget(t *testing.T) {
	for _, kb := range []int{141376, 280640, 4204608} { // the towers KeptBytes names
		for _, n := range []int{1, 2, 4, 16, 30} {
			for _, g := range []int{5, 41, 246} {
				slots := newSlots(n, g, kb)
				keep := 0
				for i, st := range slots[0].steps {
					if st.kept != nil {
						if i != keep {
							t.Fatalf("kb=%d n=%d g=%d: step %d kept after an unkept one", kb, n, g, i)
						}
						keep++
					}
				}
				for _, e := range slots[1:] {
					for i, st := range e.steps {
						if (st.kept != nil) != (i < keep) {
							t.Fatalf("kb=%d n=%d g=%d: slots keep different steps", kb, n, g)
						}
					}
				}
				if n*keep*kb > keptBudget {
					t.Errorf("kb=%d n=%d g=%d: %d slots keep %d steps each, %d bytes over a %d budget", kb, n, g, n, keep, n*keep*kb, keptBudget)
				}
				if keep < g && n*(keep+1)*kb <= keptBudget {
					t.Errorf("kb=%d n=%d g=%d: %d steps kept of %d, though %d fit", kb, n, g, keep, g, keep+1)
				}
			}
		}
	}
}

// goid returns the calling goroutine's id, from its stack header.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestOracleRunsOnCallerInEpisodeOrder: the oracle runs on the
// goroutine that runs the trainer, once per calibration episode and
// once per training episode, in episode order — also when episodes
// roll out again after a draw mismatch. The recorder is unsynchronised
// on purpose: under -race, a call from a worker would be reported.
func TestOracleRunsOnCallerInEpisodeOrder(t *testing.T) {
	cfg := Config{Episodes: 20, UpdateEvery: 7, CalibrationEpisodes: 6, Seed: 9}
	for _, procs := range []int{1, 2, 4} {
		env, wl := testEnv()
		caller := goid()
		var calls []float64
		var elsewhere []string
		rec := func(anchors []int) float64 {
			if g := goid(); g != caller {
				elsewhere = append(elsewhere, g)
			}
			w := wl(anchors)
			calls = append(calls, w)
			return w
		}
		ag := agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 2})
		tr := NewTrainer(cfg, ag, env, rec)
		tr.Calibrate()
		withProcs(procs, func() { tr.train(context.Background(), forcedTape(tr)) })
		if len(elsewhere) > 0 {
			t.Fatalf("GOMAXPROCS=%d: oracle ran on goroutines %v, not the caller's %s", procs, elsewhere, caller)
		}
		if len(calls) != cfg.CalibrationEpisodes+len(tr.History) || len(tr.History) != cfg.Episodes {
			t.Fatalf("GOMAXPROCS=%d: %d oracle calls for %d calibration and %d training episodes",
				procs, len(calls), cfg.CalibrationEpisodes, len(tr.History))
		}
		for i, st := range tr.History {
			if got := calls[cfg.CalibrationEpisodes+i]; math.Float64bits(got) != math.Float64bits(st.Wirelength) {
				t.Fatalf("GOMAXPROCS=%d: oracle call for episode %d returned %v, History has %v", procs, st.Episode, got, st.Wirelength)
			}
		}
	}
}

// TestRolloutPanicResurfaces: a rollout that panics on a worker (here
// an agent for a larger grid than its env's) re-panics on the caller
// with the worker's value, after every other worker has stopped, and
// no goroutine outlives the run.
func TestRolloutPanicResurfaces(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 2, 4} {
		env, wl := testEnv()
		ag := agent.New(agent.Config{Zeta: 8, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 2})
		tr := NewTrainer(Config{Episodes: 12, UpdateEvery: 6, CalibrationEpisodes: 3, Seed: 1}, ag, env, wl)
		done := make(chan any)
		go withProcs(procs, func() {
			defer func() { done <- recover() }()
			tr.Run()
		})
		select {
		case v := <-done:
			if msg := fmt.Sprint(v); !strings.Contains(msg, "state length") {
				t.Fatalf("GOMAXPROCS=%d: run re-panicked with %q, want the worker's state-length panic", procs, msg)
			}
		case <-time.After(time.Minute):
			t.Fatalf("GOMAXPROCS=%d: run deadlocked after a rollout panic", procs)
		}
		if len(tr.History) != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d episodes recorded from a panicking round", procs, len(tr.History))
		}
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails t if more than n goroutines are still running
// after a grace period.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > n {
		t.Fatalf("%d goroutines after the panicking runs, %d before: a worker leaked", got, n)
	}
}

// TestWarmRolloutStepAllocatesOnlyProbs: once a worker's buffers and a
// step's storage are warm, a rollout step at the daemon tower allocates
// once, for its Forward's Probs — whether the step keeps the Forward's
// activations or, past the kept budget, only its state.
func TestWarmRolloutStepAllocatesOnlyProbs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ag, env, _ := recordedBatch(3, 0)
	w := &worker{ag: ag, env: env}
	rnd := rng.New(3)
	for _, st := range []*step{{kept: new(agent.Tape)}, {}} {
		run := func() {
			if env.Done() {
				env.Reset()
			}
			w.step(rnd, st)
		}
		run() // the first step grows the tape and the step's storage
		run() // the second allocates their arenas
		if allocs := testing.AllocsPerRun(20, run); allocs > 1 {
			t.Errorf("warm rollout step (kept: %v) allocates %v times, want at most 1", st.kept != nil, allocs)
		}
	}
}

// TestUpdateSecondsObservedPerOptimizerStep: the update histogram
// counts one observation per optimizer step — batches of 7, 7 and 6
// episodes here — however many rounds each batch took.
func TestUpdateSecondsObservedPerOptimizerStep(t *testing.T) {
	updates, observed := obsUpdates.Value(), obsUpdateSeconds.Count()
	tr := testTrainer(Config{Episodes: 20, UpdateEvery: 7, CalibrationEpisodes: 6, Seed: 9})
	withProcs(2, tr.Run)
	if got := obsUpdates.Value() - updates; got != 3 {
		t.Fatalf("%d optimizer steps, want 3", got)
	}
	if got := obsUpdateSeconds.Count() - observed; got != 3 {
		t.Fatalf("update histogram observed %d times over 3 optimizer steps", got)
	}
}

// TestUpdateMatchesSequentialOracle keeps a ζ=16 batch (4 episodes, 20
// steps) from Forward passes at the current weights, every other step's
// activations and the others' states, replays it in two rounds, steps,
// and does it all again, at 1, 2 and 4 workers; the weights and gauges
// must be the sequential oracle's, which runs Forward and Backward per
// step, bit for bit.
func TestUpdateMatchesSequentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 20-step ζ=16 batch four times per worker count")
	}
	base, env, eps := recordedBatch(4, 4)
	for _, procs := range []int{1, 2, 4} {
		want := base.Clone()
		opt := nn.NewAdam(want.Params(), 1e-3)
		tr := NewTrainer(Config{EntropyCoef: 0.01}, base.Clone(), env, nil)
		for round := 0; round < 2; round++ {
			wp, wv, we, wg := sequentialUpdate(want, opt, eps, 0.01)
			withProcs(procs, func() {
				ws := tr.workers(runtime.GOMAXPROCS(0))
				steps := keepSteps(tr.Agent, eps)
				b := batch{episodes: len(eps)}
				b.replay(ws, steps[:7], 0.01)
				b.replay(ws, steps[7:], 0.01)
				tr.update(&b)
			})
			if got, w := tr.Agent.Fingerprint(), want.Fingerprint(); got != w {
				t.Fatalf("GOMAXPROCS=%d round %d: fingerprint %#x, oracle %#x", procs, round, got, w)
			}
			for i, w := range [4]float64{wp, wv, we, wg} {
				if g := gaugeValues()[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("GOMAXPROCS=%d round %d: gauge %d = %v, oracle %v", procs, round, i, g, w)
				}
			}
		}
	}
}

// TestUpdatePanicResurfaces: a replayed step that panics on a worker
// (here one kept by an agent for a smaller grid) must re-panic on the
// caller with the worker's value, after every other worker has stopped
// — none may stay blocked waiting for the failed step's turn, and no
// goroutine may outlive the replay.
func TestUpdatePanicResurfaces(t *testing.T) {
	base, env, eps := recordedBatch(1, 4)
	bad := step{kept: new(agent.Tape)}
	small := agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 1})
	var tp agent.Tape
	small.Forward(&tp, make([]float64, 16), make([]float64, 16), 0)
	tp.KeepInto(bad.kept)
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 2, 4} {
		tr := NewTrainer(Config{}, base.Clone(), env, nil)
		done := make(chan any)
		go withProcs(procs, func() {
			defer func() { done <- recover() }()
			steps := keepSteps(tr.Agent, eps)
			steps[7].step = &bad
			var b batch
			b.replay(tr.workers(runtime.GOMAXPROCS(0)), steps, 0)
		})
		select {
		case v := <-done:
			if msg := fmt.Sprint(v); !strings.Contains(msg, "state length") {
				t.Fatalf("GOMAXPROCS=%d: replay re-panicked with %q, want the worker's state-length panic", procs, msg)
			}
		case <-time.After(time.Minute):
			t.Fatalf("GOMAXPROCS=%d: replay deadlocked after a worker panic", procs)
		}
	}
	waitGoroutines(t, before)
}

// daemonEnv returns a ζ=16 env with five macro groups (five steps per
// episode).
func daemonEnv() *grid.Env {
	g := grid.New(geom.NewRect(0, 0, 16, 16), 16)
	shape := func(gw, gh int) grid.Shape {
		u := make([]float64, gw*gh)
		for i := range u {
			u[i] = 0.7
		}
		return grid.Shape{GW: gw, GH: gh, Util: u, W: float64(gw), H: float64(gh), Area: 0.7 * float64(gw*gh)}
	}
	return grid.NewEnv(g, []grid.Shape{shape(3, 3), shape(3, 2), shape(2, 2), shape(2, 1), shape(1, 1)}, nil)
}

// daemonAgent returns an agent of the daemon-default tower (16
// channels, 2 residual blocks) for daemonEnv.
func daemonAgent(seed int64) *agent.Agent {
	return agent.New(agent.Config{Zeta: 16, Channels: 16, ResBlocks: 2, MaxSteps: 8, Seed: seed})
}

// recordedBatch records an update batch of uniformly random episodes
// on daemonEnv, and returns it with the env and a daemonAgent of the
// given seed.
func recordedBatch(seed int64, episodes int) (*agent.Agent, *grid.Env, []seqEpisode) {
	env := daemonEnv()
	r := rng.New(seed)
	var batch []seqEpisode
	for ep := 0; ep < episodes; ep++ {
		env.Reset()
		var steps []seqStep
		for !env.Done() {
			sp, sa, t := env.SPInto(nil), env.AvailInto(nil), env.T()
			a := r.Choice(sa)
			if a < 0 {
				a = randomInBounds(env, r)
			}
			steps = append(steps, seqStep{sp: sp, sa: sa, t: t, action: a})
			if err := env.Step(a); err != nil {
				panic(err)
			}
		}
		batch = append(batch, seqEpisode{steps: steps, reward: 0.5 + 0.02*float64(ep%7)})
	}
	env.Reset()
	return daemonAgent(seed), env, batch
}

// keepSteps runs ag's Forward on every recorded state, as a rollout
// does, and keeps each step for the replay: the activations of steps
// 0, 2, 4, … and the states of the others, as past a kept budget.
func keepSteps(ag *agent.Agent, batch []seqEpisode) []replayStep {
	var tp agent.Tape
	var steps []replayStep
	for _, ep := range batch {
		for _, st := range ep.steps {
			k := &step{action: st.action}
			ag.Forward(&tp, st.sp, st.sa, st.t)
			if len(steps)%2 == 0 {
				k.kept = new(agent.Tape)
				tp.KeepInto(k.kept)
			} else {
				k.sp, k.sa, k.t = st.sp, st.sa, st.t
			}
			steps = append(steps, replayStep{step: k, reward: float32(ep.reward)})
		}
	}
	return steps
}

// BenchmarkTrainUpdate times one whole 30-episode update batch —
// rollouts (150 steps), the oracle, the replay and the optimizer step —
// at the daemon-default tower on daemonEnv, with a preset reward scaler
// and a closed-form oracle, on one and on two workers. The procs=2 row
// must beat procs=1 by the margin scripts/benchgate.sh checks.
func BenchmarkTrainUpdate(b *testing.B) {
	ag := daemonAgent(11)
	env := daemonEnv()
	wl := func(anchors []int) float64 {
		var total float64
		for _, a := range anchors {
			gx, gy := env.G.Coords(a)
			total += float64(gx + gy)
		}
		return total
	}
	scaler := Calibrate(Shaped, []float64{20, 40, 60}, 0.75)
	const episodes = 30
	steps := episodes * env.NumSteps()
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := NewTrainer(Config{Episodes: episodes, UpdateEvery: episodes, EntropyCoef: 0.01, Seed: 11}, ag.Clone(), env.Clone(), wl)
				tr.Scaler = scaler
				b.StartTimer()
				tr.Run()
			}
			b.ReportMetric(float64(steps*b.N)/b.Elapsed().Seconds(), "steps/sec")
		})
	}
}
