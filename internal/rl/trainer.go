package rl

import (
	"context"
	"fmt"
	"math"

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
// in this repository — the trainer, greedy play, and the parallel
// MCTS (which serializes oracle calls behind a mutex) — invokes it
// from one goroutine at a time.
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

// episodeRecord is one completed episode awaiting the batched update.
type episodeRecord struct {
	steps  []step
	reward float64
}

// step is one recorded decision of an episode.
type step struct {
	sp     []float64
	sa     []float64
	t      int
	action int
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
	if tr.Cfg.SnapshotEvery > 0 {
		tr.Snapshots = append(tr.Snapshots, Snapshot{Episode: 0, Agent: tr.Agent.Clone()})
	}
	var batch []episodeRecord
	sampler := tr.rnd.Split("actions")
	// Rollouts read the weights through the pure inference path; each
	// step's state is freshly allocated because the update replays it.
	var in [1]agent.BatchInput
	var out [1]agent.Output

	for ep := 1; ep <= tr.Cfg.Episodes; ep++ {
		if ctx.Err() != nil {
			tr.Interrupted = true
			return
		}
		env := tr.Env
		env.Reset()
		var steps []step
		for !env.Done() {
			st := step{sp: env.SP(), sa: env.Avail(), t: env.T()}
			in[0] = agent.BatchInput{SP: st.sp, SA: st.sa, T: st.t}
			tr.Agent.EvaluateBatchInto(in[:], out[:])
			st.action = sampleAction(out[0].Probs, env, sampler)
			steps = append(steps, st)
			if err := env.Step(st.action); err != nil {
				panic(fmt.Sprintf("rl: training episode produced illegal action: %v", err))
			}
		}
		w := tr.WL(env.Anchors())
		r := tr.Scaler.Reward(w)
		tr.History = append(tr.History, EpisodeStat{Episode: ep, Wirelength: w, Reward: r})
		obsEpisodes.Inc()
		obsReward.Set(r)
		obsWirelength.Set(w)
		if isFinite(w) && isFinite(r) {
			batch = append(batch, episodeRecord{steps: steps, reward: r})
		} else {
			tr.Faults.SkippedEpisodes++
			obsQuarantined.Inc()
			tr.logf("rl: episode %d skipped (wirelength %v, reward %v)", ep, w, r)
		}

		if len(batch) >= tr.Cfg.UpdateEvery || ep == tr.Cfg.Episodes {
			tr.guardedUpdate(batch, ep)
			batch = batch[:0]
		}
		if tr.Cfg.SnapshotEvery > 0 && ep%tr.Cfg.SnapshotEvery == 0 {
			tr.Snapshots = append(tr.Snapshots, Snapshot{Episode: ep, Agent: tr.Agent.Clone()})
		}
	}
}

// guardedUpdate applies one batched update under the watchdog: the
// pre-update weights are kept (lazily, as the last good copy) and
// restored if the update leaves any parameter NaN/Inf. The restore
// also rebuilds the optimizer — Adam's moment estimates were computed
// from the poisoned gradients and would re-poison the next step.
func (tr *Trainer) guardedUpdate(batch []episodeRecord, ep int) {
	if len(batch) == 0 {
		return
	}
	if tr.lastGood == nil {
		tr.lastGood = tr.Agent.Clone()
	}
	tr.update(batch)
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

// sampleAction draws from probs restricted to in-bounds actions.
func sampleAction(probs []float32, env *grid.Env, rnd *rng.RNG) int {
	w := make([]float64, len(probs))
	for i, p := range probs {
		if p > 0 && env.InBounds(i) {
			w[i] = float64(p)
		}
	}
	a := rnd.Choice(w)
	if a < 0 {
		a = randomInBounds(env, rnd)
	}
	return a
}
