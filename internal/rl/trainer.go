package rl

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"macroplace/internal/agent"
	"macroplace/internal/grid"
	"macroplace/internal/nn"
	"macroplace/internal/rng"
)

// WirelengthFunc evaluates a complete macro-group allocation (one
// anchor grid per group, in placement order) and returns its
// wirelength. In the full pipeline this runs macro legalization plus
// cell placement on the coarsened netlist (Alg. 1 line 7–8).
//
// Implementations need not be safe for concurrent use: every caller
// in this repository invokes it from one goroutine at a time. The
// trainer calls it on the goroutine that runs Calibrate or RunContext,
// once per episode in episode order, also while its rollouts run on
// several goroutines; greedy play calls it once; the parallel MCTS
// serializes its workers' calls behind a mutex.
type WirelengthFunc func(anchors []int) float64

// Config tunes the Actor–Critic pre-training stage.
type Config struct {
	// Episodes is the training length in episodes.
	Episodes int
	// UpdateEvery is the batch size in episodes (paper: 30).
	UpdateEvery int
	// CalibrationEpisodes is the random-play budget used to calibrate
	// the reward scaler (paper: 50).
	CalibrationEpisodes int
	// Alpha is the reward offset α of Eq. (9) (paper: [0.5, 1]).
	Alpha float64
	// Mode selects the reward function (Fig. 4 ablation).
	Mode RewardMode
	// LR is the Adam learning rate.
	LR float64
	// EntropyCoef adds an exploration bonus (0 disables).
	EntropyCoef float64
	// Seed drives action sampling.
	Seed int64
	// SnapshotEvery, when positive, stores a weight snapshot every
	// that many episodes (Fig. 5 uses 35).
	SnapshotEvery int
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.Episodes <= 0 {
		c.Episodes = 300
	}
	if c.UpdateEvery <= 0 {
		c.UpdateEvery = 30
	}
	if c.CalibrationEpisodes <= 0 {
		c.CalibrationEpisodes = 50
	}
	if c.Alpha == 0 {
		c.Alpha = 0.75
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	return c
}

// EpisodeStat records one training episode.
type EpisodeStat struct {
	Episode    int
	Wirelength float64
	Reward     float64
}

// Snapshot is a frozen copy of the agent at a training point.
type Snapshot struct {
	Episode int
	Agent   *agent.Agent
}

// FaultStats counts the watchdog interventions of one training run.
// All zeros in a healthy run.
type FaultStats struct {
	// SkippedEpisodes counts episodes discarded before entering an
	// update batch because their wirelength or reward was NaN/Inf.
	SkippedEpisodes int
	// Restores counts weight restores from the last good state after
	// an update poisoned the network (NaN/Inf parameters).
	Restores int
}

// Trainer runs the pre-training stage on one environment.
type Trainer struct {
	Cfg    Config
	Agent  *agent.Agent
	Env    *grid.Env
	WL     WirelengthFunc
	Scaler Scaler

	// History holds one entry per training episode.
	History []EpisodeStat
	// Snapshots are the periodic weight copies (incl. episode 0, the
	// untrained agent, when SnapshotEvery > 0).
	Snapshots []Snapshot

	// Faults reports the NaN/Inf watchdog's interventions.
	Faults FaultStats
	// Interrupted reports that RunContext returned early because its
	// context was cancelled; the agent holds the weights of the last
	// completed episode.
	Interrupted bool
	// Logf receives diagnostic lines (skipped episodes, weight
	// restores). Nil discards them.
	Logf func(format string, args ...any)

	opt *nn.Adam
	rnd *rng.RNG

	// lastGood is a weight copy taken after every healthy update; the
	// watchdog restores it when an update poisons the network.
	lastGood *agent.Agent
}

// NewTrainer wires a trainer. The env is reset internally; the agent
// is trained in place.
func NewTrainer(cfg Config, ag *agent.Agent, env *grid.Env, wl WirelengthFunc) *Trainer {
	cfg = cfg.Normalize()
	return &Trainer{
		Cfg:   cfg,
		Agent: ag,
		Env:   env,
		WL:    wl,
		opt:   nn.NewAdam(ag.Params(), float32(cfg.LR)),
		rnd:   rng.New(cfg.Seed).Split("rl"),
	}
}

// RandomEpisode plays one uniformly-random episode (over the available
// grids of s_a, falling back to any in-bounds grid) and returns its
// anchors.
func RandomEpisode(env *grid.Env, rnd *rng.RNG) []int {
	env.Reset()
	var saBuf []float64
	for !env.Done() {
		saBuf = env.AvailInto(saBuf)
		sa := saBuf
		a := rnd.Choice(sa)
		if a < 0 {
			a = randomInBounds(env, rnd)
		}
		if err := env.Step(a); err != nil {
			panic(fmt.Sprintf("rl: random episode produced illegal action: %v", err))
		}
	}
	return env.Anchors()
}

func randomInBounds(env *grid.Env, rnd *rng.RNG) int {
	n := env.G.NumCells()
	var ok []int
	for a := 0; a < n; a++ {
		if env.InBounds(a) {
			ok = append(ok, a)
		}
	}
	if len(ok) == 0 {
		panic("rl: no in-bounds action exists")
	}
	return ok[rnd.Intn(len(ok))]
}

// Calibrate plays the random episodes of Sec. III-E and installs the
// resulting reward scaler. It returns the calibration wirelengths.
func (tr *Trainer) Calibrate() []float64 {
	wls := make([]float64, 0, tr.Cfg.CalibrationEpisodes)
	r := tr.rnd.Split("calibrate")
	for i := 0; i < tr.Cfg.CalibrationEpisodes; i++ {
		anchors := RandomEpisode(tr.Env, r)
		wls = append(wls, tr.WL(anchors))
	}
	tr.Scaler = Calibrate(tr.Cfg.Mode, wls, tr.Cfg.Alpha)
	return wls
}

// PlayGreedy runs one episode with argmax actions (no exploration) and
// returns the anchors and wirelength — the "RL result" curve of
// Fig. 5.
func PlayGreedy(ag *agent.Agent, env *grid.Env, wl WirelengthFunc) ([]int, float64) {
	return PlayGreedyEval(ag, env, wl)
}

// PlayGreedyEval is PlayGreedy over any agent.Inferencer — the agent
// itself or a shared evaluation cache over it — queried one state at a
// time through the pure inference path, so the episode leaves the
// agent's training state untouched. State buffers are reused across
// steps (the evaluator must not retain them).
func PlayGreedyEval(ev agent.Inferencer, env *grid.Env, wl WirelengthFunc) ([]int, float64) {
	env.Reset()
	var spBuf, saBuf []float64
	var in [1]agent.BatchInput
	var out [1]agent.Output
	for !env.Done() {
		saBuf = env.AvailInto(saBuf)
		spBuf = env.SPInto(spBuf)
		in[0] = agent.BatchInput{SP: spBuf, SA: saBuf, T: env.T()}
		ev.EvaluateBatchInto(in[:], out[:])
		best, bestP := -1, float32(-1)
		for a, p := range out[0].Probs {
			if p > bestP && env.InBounds(a) {
				best, bestP = a, p
			}
		}
		if best < 0 || bestP <= 0 {
			// Degenerate distribution: fall back to the first
			// in-bounds action deterministically.
			for a := 0; a < env.G.NumCells(); a++ {
				if env.InBounds(a) {
					best = a
					break
				}
			}
		}
		if err := env.Step(best); err != nil {
			panic(fmt.Sprintf("rl: greedy episode produced illegal action: %v", err))
		}
	}
	anchors := env.Anchors()
	return anchors, wl(anchors)
}

// Run executes the training loop: episodes of policy-sampled actions,
// terminal reward broadcast to every step (Sec. III-E), and an
// Actor–Critic update every UpdateEvery episodes (Alg. 1 line 9). It
// calibrates first if Calibrate was not called.
func (tr *Trainer) Run() {
	tr.RunContext(context.Background())
}

// RunContext is Run under a context: cancellation is observed between
// episodes, after which the trainer returns with Interrupted set and
// the agent holding the last completed state — already usable for
// search. With a background context training is byte-for-byte the
// same as Run.
//
// Episodes roll out concurrently, in rounds on runtime.GOMAXPROCS(0)
// workers, and the update replays each step from the activations its
// rollout recorded; the agent, History, Snapshots and gauges are those
// of one goroutine playing the episodes in order, bit for bit, at any
// GOMAXPROCS (DESIGN.md §8). The oracle runs on the calling goroutine,
// once per episode, in episode order.
//
// A NaN/Inf watchdog guards the loop: an episode whose oracle or
// reward is non-finite is recorded in History but never enters an
// update batch (Faults.SkippedEpisodes), and an update that leaves
// any parameter non-finite is rolled back by restoring the last good
// weights and a fresh optimizer (Faults.Restores) — poisoned Adam
// moments must not survive the restore.
func (tr *Trainer) RunContext(ctx context.Context) {
	if tr.Scaler.Max == 0 && tr.Scaler.Min == 0 {
		tr.Calibrate()
	}
	tr.train(ctx, rng.NewTape(tr.rnd.Split("actions")))
}

// train plays the training episodes with actions drawn from tape.
//
// A round rolls out k episodes at once, episode j of the round from
// tape offset pos+j·G, where pos is where the round starts and G the
// episode length: a step almost always reads one draw (DESIGN.md §8
// lists the exceptions). Then, in episode order on this goroutine,
// each episode is rolled out again from its true offset if an earlier
// one read other than G draws, scored by the
// oracle, recorded and quarantined if non-finite, and its due snapshot
// taken; then the workers replay the round's accepted steps into the
// batch's fold. k is at most the workers, the episodes left before the
// batch fills and the episodes left in the run, so no episode of a
// round would have run after an update: every rollout reads the
// weights the sequential loop's would have. The round that fills the
// batch ends with the optimizer step, then its last episode's snapshot.
func (tr *Trainer) train(ctx context.Context, tape *rng.Tape) {
	if tr.Cfg.SnapshotEvery > 0 {
		tr.snapshot(0)
	}
	g := tr.Env.NumSteps()
	ws := tr.workers(runtime.GOMAXPROCS(0))
	slots := newSlots(min(len(ws), tr.Cfg.UpdateEvery, tr.Cfg.Episodes), g, tr.Agent.KeptBytes())
	var b batch
	var accepted []replayStep
	pos := 0 // tape offset of the next episode's first draw
	for ep := 1; ep <= tr.Cfg.Episodes; {
		if ctx.Err() != nil {
			tr.Interrupted = true
			return
		}
		round := slots[:min(len(slots), tr.Cfg.UpdateEvery-b.episodes, tr.Cfg.Episodes-ep+1)]
		rollout(ctx, ws, tape, round, pos, g)
		accepted = accepted[:0]
		for j := range round {
			// The sequential loop plays no episode once ctx is done.
			if ctx.Err() != nil {
				tr.Interrupted = true
				return
			}
			e := &round[j]
			if e.start != pos {
				ws[0].play(tape.Reader(pos), e)
			}
			pos = e.end
			w := tr.WL(e.anchors)
			r := tr.Scaler.Reward(w)
			tr.History = append(tr.History, EpisodeStat{Episode: ep + j, Wirelength: w, Reward: r})
			obsEpisodes.Inc()
			obsReward.Set(r)
			obsWirelength.Set(w)
			if isFinite(w) && isFinite(r) {
				b.episodes++
				for i := range e.steps {
					accepted = append(accepted, replayStep{step: &e.steps[i], reward: float32(r)})
				}
			} else {
				tr.Faults.SkippedEpisodes++
				obsQuarantined.Inc()
				tr.logf("rl: episode %d skipped (wirelength %v, reward %v)", ep+j, w, r)
			}
			if j < len(round)-1 {
				tr.snapshotDue(ep + j)
			}
		}
		ep += len(round)
		b.replay(ws, accepted, float32(tr.Cfg.EntropyCoef))
		if b.episodes >= tr.Cfg.UpdateEvery || ep > tr.Cfg.Episodes {
			tr.guardedUpdate(&b, ep-1)
			b = batch{}
		}
		tr.snapshotDue(ep - 1)
	}
}

// snapshotDue stores a snapshot after episode ep when one falls due.
func (tr *Trainer) snapshotDue(ep int) {
	if tr.Cfg.SnapshotEvery > 0 && ep%tr.Cfg.SnapshotEvery == 0 {
		tr.snapshot(ep)
	}
}

func (tr *Trainer) snapshot(ep int) {
	tr.Snapshots = append(tr.Snapshots, Snapshot{Episode: ep, Agent: tr.Agent.Clone()})
}

// guardedUpdate applies one batch's optimizer step under the watchdog:
// the pre-update weights are kept (lazily, as the last good copy) and
// restored if the update leaves any parameter NaN/Inf. The restore
// also rebuilds the optimizer — Adam's moment estimates were computed
// from the poisoned gradients and would re-poison the next step.
func (tr *Trainer) guardedUpdate(b *batch, ep int) {
	if b.episodes == 0 {
		return
	}
	if tr.lastGood == nil {
		tr.lastGood = tr.Agent.Clone()
	}
	tr.update(b)
	if agentHealthy(tr.Agent) {
		tr.lastGood.CopyWeightsFrom(tr.Agent)
		return
	}
	tr.Faults.Restores++
	obsRestores.Inc()
	tr.logf("rl: update at episode %d poisoned the network; restoring last good weights", ep)
	tr.Agent.CopyWeightsFrom(tr.lastGood)
	tr.opt = nn.NewAdam(tr.Agent.Params(), float32(tr.Cfg.LR))
}

// agentHealthy reports whether every parameter of ag is finite.
func agentHealthy(ag *agent.Agent) bool {
	for _, p := range ag.Params() {
		for _, v := range p.W {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
	}
	return true
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (tr *Trainer) logf(format string, args ...any) {
	if tr.Logf != nil {
		tr.Logf(format, args...)
	}
}
