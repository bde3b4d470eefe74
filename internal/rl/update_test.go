package rl

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
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

// TestUpdateGoldenAcrossGOMAXPROCS pins a whole training run — the final
// agent, every snapshot, the History bits and the update's gauges — to
// values recorded with the sequential replay the parallel update
// replaced, at 1, 2 and 4 update workers. Three batches of 7 episodes
// and a 6-episode tail, with an entropy bonus, exercise partial
// batches and the entropy gradient across updates. Episodes 0 and 5
// share a fingerprint because no update runs between them.
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
	for _, procs := range []int{1, 2, 4} {
		var tr *Trainer
		withProcs(procs, func() {
			tr = testTrainer(Config{Episodes: 20, UpdateEvery: 7, CalibrationEpisodes: 6,
				EntropyCoef: 0.01, SnapshotEvery: 5, LR: 3e-3, Seed: 9})
			tr.Run()
		})
		if got := tr.Agent.Fingerprint(); got != wantAgent {
			t.Errorf("GOMAXPROCS=%d: agent fingerprint %#x, want %#x", procs, got, uint64(wantAgent))
		}
		if got := historyHash(tr.History); got != wantHistory {
			t.Errorf("GOMAXPROCS=%d: history hash %#x, want %#x", procs, got, uint64(wantHistory))
		}
		if len(tr.Snapshots) != len(wantSnaps) {
			t.Fatalf("GOMAXPROCS=%d: %d snapshots, want %d", procs, len(tr.Snapshots), len(wantSnaps))
		}
		for i, w := range wantSnaps {
			s := tr.Snapshots[i]
			if s.Episode != w.episode || s.Agent.Fingerprint() != w.fp {
				t.Errorf("GOMAXPROCS=%d: snapshot %d = episode %d %#x, want episode %d %#x",
					procs, i, s.Episode, s.Agent.Fingerprint(), w.episode, w.fp)
			}
		}
		for _, w := range wantGauges {
			if got := math.Float64bits(w.g.Value()); got != w.bits {
				t.Errorf("GOMAXPROCS=%d: %s gauge bits %#x, want %#x", procs, w.name, got, w.bits)
			}
		}
	}
}

// sequentialUpdate is the one-worker replay the parallel update
// replaced, kept as the test oracle: every step's gradient accumulates
// straight into the agent's. It returns the gauge values.
func sequentialUpdate(ag *agent.Agent, opt *nn.Adam, batch []episodeRecord, entropyCoef float64) (policyLoss, valueLoss, entropy, gradNorm float64) {
	count := 0
	var tp agent.Tape
	for _, ep := range batch {
		r := float32(ep.reward)
		for _, st := range ep.steps {
			out := ag.Forward(&tp, st.sp, st.sa, st.t)
			adv := r - out.Value
			ag.Backward(&tp, st.action, adv, r, float32(entropyCoef))
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

// TestUpdateMatchesSequentialOracle replays a recorded ζ=16 batch (4
// episodes, 20 steps) twice through the parallel update and through
// the sequential oracle, at 1, 2 and 4 workers, and requires
// bit-identical weights and gauges.
func TestUpdateMatchesSequentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 20-step ζ=16 batch four times per worker count")
	}
	base, batch := recordedBatch(4, 4)
	for _, procs := range []int{1, 2, 4} {
		want := base.Clone()
		opt := nn.NewAdam(want.Params(), 1e-3)
		tr := NewTrainer(Config{EntropyCoef: 0.01}, base.Clone(), nil, nil)
		for round := 0; round < 2; round++ {
			wp, wv, we, wg := sequentialUpdate(want, opt, batch, 0.01)
			withProcs(procs, func() { tr.update(batch) })
			if got, w := tr.Agent.Fingerprint(), want.Fingerprint(); got != w {
				t.Fatalf("GOMAXPROCS=%d round %d: fingerprint %#x, oracle %#x", procs, round, got, w)
			}
			for _, g := range []struct {
				name      string
				got, want float64
			}{
				{"policy loss", obsPolicyLoss.Value(), wp},
				{"value loss", obsValueLoss.Value(), wv},
				{"entropy", obsEntropy.Value(), we},
				{"grad norm", obsGradNorm.Value(), wg},
			} {
				if math.Float64bits(g.got) != math.Float64bits(g.want) {
					t.Errorf("GOMAXPROCS=%d round %d: %s %v, oracle %v", procs, round, g.name, g.got, g.want)
				}
			}
		}
	}
}

// TestUpdatePanicResurfaces: a replay step that panics on a worker
// (here a state of the wrong length) must re-panic on the caller with
// the worker's value, after every other worker has stopped — none may
// stay blocked waiting for the failed step's turn, and no goroutine may
// outlive the update.
func TestUpdatePanicResurfaces(t *testing.T) {
	base, batch := recordedBatch(1, 4)
	bad := batch[1].steps[2]
	bad.sp = bad.sp[:len(bad.sp)-1]
	batch[1].steps[2] = bad
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 2, 4} {
		tr := NewTrainer(Config{}, base.Clone(), nil, nil)
		done := make(chan any)
		go withProcs(procs, func() {
			defer func() { done <- recover() }()
			tr.update(batch)
		})
		select {
		case v := <-done:
			if msg := fmt.Sprint(v); !strings.Contains(msg, "state length") {
				t.Fatalf("GOMAXPROCS=%d: update re-panicked with %q, want the worker's state-length panic", procs, msg)
			}
		case <-time.After(time.Minute):
			t.Fatalf("GOMAXPROCS=%d: update deadlocked after a worker panic", procs)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the panicking updates, %d before: a worker leaked", n, before)
	}
}

// recordedBatch records an update batch of uniformly random episodes on
// a ζ=16 grid with five macro groups (five steps per episode), and
// returns it with an agent of the daemon-default tower (16 channels, 2
// residual blocks) and the given seed.
func recordedBatch(seed int64, episodes int) (*agent.Agent, []episodeRecord) {
	g := grid.New(geom.NewRect(0, 0, 16, 16), 16)
	shape := func(gw, gh int) grid.Shape {
		u := make([]float64, gw*gh)
		for i := range u {
			u[i] = 0.7
		}
		return grid.Shape{GW: gw, GH: gh, Util: u, W: float64(gw), H: float64(gh), Area: 0.7 * float64(gw*gh)}
	}
	env := grid.NewEnv(g, []grid.Shape{shape(3, 3), shape(3, 2), shape(2, 2), shape(2, 1), shape(1, 1)}, nil)
	r := rng.New(seed)
	var batch []episodeRecord
	for ep := 0; ep < episodes; ep++ {
		env.Reset()
		var steps []step
		for !env.Done() {
			sp, sa, t := env.SP(), env.Avail(), env.T()
			a := r.Choice(sa)
			if a < 0 {
				a = randomInBounds(env, r)
			}
			steps = append(steps, step{sp: sp, sa: sa, t: t, action: a})
			if err := env.Step(a); err != nil {
				panic(err)
			}
		}
		batch = append(batch, episodeRecord{steps: steps, reward: 0.5 + 0.02*float64(ep%7)})
	}
	return agent.New(agent.Config{Zeta: 16, Channels: 16, ResBlocks: 2, MaxSteps: 8, Seed: seed}), batch
}

// BenchmarkTrainUpdate times one update over a fixed recorded batch of
// 30 episodes (150 steps) at the daemon-default tower, on one and on
// two update workers. The procs=2 row must beat procs=1 by the margin
// scripts/benchgate.sh checks.
func BenchmarkTrainUpdate(b *testing.B) {
	ag, batch := recordedBatch(11, 30)
	steps := 0
	for _, ep := range batch {
		steps += len(ep.steps)
	}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tr := NewTrainer(Config{EntropyCoef: 0.01}, ag.Clone(), nil, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.update(batch)
			}
			b.ReportMetric(float64(steps*b.N)/b.Elapsed().Seconds(), "steps/sec")
		})
	}
}
