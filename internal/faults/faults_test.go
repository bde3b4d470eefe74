package faults_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/atomicio"
	"macroplace/internal/faults"
	"macroplace/internal/geom"
	"macroplace/internal/grid"
	"macroplace/internal/mcts"
	"macroplace/internal/rl"
)

// cornerEnv builds a ζ=4 env with 3 unit groups and an oracle that
// strictly prefers anchors near the origin (mirrors the mcts tests).
func cornerEnv() (*grid.Env, rl.WirelengthFunc) {
	g := grid.New(geom.NewRect(0, 0, 4, 4), 4)
	shape := grid.Shape{GW: 1, GH: 1, Util: []float64{0.6}, W: 1, H: 1, Area: 0.6}
	env := grid.NewEnv(g, []grid.Shape{shape, shape, shape}, nil)
	wl := func(anchors []int) float64 {
		var total float64
		for _, a := range anchors {
			gx, gy := g.Coords(a)
			total += float64(gx + gy)
		}
		return total
	}
	return env, wl
}

func testScaler() rl.Scaler {
	return rl.Calibrate(rl.Shaped, []float64{0, 6, 12}, 0.75)
}

func testAgent(seed int64) *agent.Agent {
	return agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: seed})
}

// requireLegalComplete asserts the allocation covers every group with
// in-bounds anchors and that the reported wirelength matches them.
func requireLegalComplete(t *testing.T, env *grid.Env, wl rl.WirelengthFunc, res mcts.Result) {
	t.Helper()
	if len(res.Anchors) != env.NumSteps() {
		t.Fatalf("anchors = %v, want %d groups", res.Anchors, env.NumSteps())
	}
	for _, a := range res.Anchors {
		if a < 0 || a >= env.G.NumCells() {
			t.Fatalf("illegal anchor %d", a)
		}
	}
	if math.IsNaN(res.Wirelength) || math.IsInf(res.Wirelength, 0) {
		t.Fatalf("non-finite wirelength %v", res.Wirelength)
	}
	if got := wl(res.Anchors); res.Wirelength != got {
		t.Fatalf("reported wirelength %v does not match anchors (%v)", res.Wirelength, got)
	}
}

func TestZeroInjectorIsTransparent(t *testing.T) {
	run := func(wrap bool) mcts.Result {
		env, wl := cornerEnv()
		var ev mcts.Evaluator = testAgent(11)
		inj := &faults.Injector{}
		if wrap {
			ev = inj.Evaluator(ev)
			wl = inj.Wirelength(wl)
		}
		s := mcts.New(mcts.Config{Gamma: 8, Seed: 1, Workers: 1}, ev, wl, testScaler())
		return s.Run(env)
	}
	plain, wrapped := run(false), run(true)
	if plain.Wirelength != wrapped.Wirelength || plain.Explorations != wrapped.Explorations {
		t.Fatalf("zero injector changed the search: %+v vs %+v", plain, wrapped)
	}
}

// TestDeadlineMidSearchReturnsLegalBestSoFar pins documented recovery
// #1: a search whose deadline expires mid-run still returns a
// complete legal allocation, marked Interrupted.
func TestDeadlineMidSearchReturnsLegalBestSoFar(t *testing.T) {
	for _, workers := range []int{1, 4} {
		inj := &faults.Injector{SlowEvery: 1, SlowDelay: 5 * time.Millisecond}
		env, wl := cornerEnv()
		s := mcts.New(mcts.Config{Gamma: 50, Seed: 2, Workers: workers},
			inj.Evaluator(testAgent(11)), wl, testScaler())
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
		res := s.RunContext(ctx, env)
		cancel()
		requireLegalComplete(t, env, wl, res)
		if !res.Interrupted {
			t.Errorf("workers=%d: search with an expired deadline must report Interrupted", workers)
		}
	}
}

// TestPanickingWorkersKeepTreeConsistent pins documented recovery #2
// at one worker and at four: injected evaluator panics are recovered,
// counted, and never corrupt the shared tree — the search still commits
// a legal allocation. Every leaf is one evaluator call, so each
// injected panic is exactly one abandoned pass, and the top-up restores
// the full budget. Which pass draws a faulting call depends on
// scheduling, so the accounting is checked over ten runs. go test
// -race makes the "never corrupt" part load-bearing.
func TestPanickingWorkersKeepTreeConsistent(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for seed := int64(1); seed <= 10; seed++ {
			inj := &faults.Injector{PanicEvery: 3}
			env, wl := cornerEnv()
			s := mcts.New(mcts.Config{Gamma: 24, Seed: seed, Workers: workers},
				inj.Evaluator(testAgent(11)), wl, testScaler())
			res := s.Run(env)
			requireLegalComplete(t, env, wl, res)
			if inj.Panics() == 0 {
				t.Fatalf("workers=%d seed %d: injector never fired — the test exercised nothing", workers, seed)
			}
			if res.WorkerPanics != inj.Panics() {
				t.Errorf("workers=%d seed %d: Result.WorkerPanics = %d, want the %d injected panics", workers, seed, res.WorkerPanics, inj.Panics())
			}
			if res.Explorations != 3*24 {
				t.Errorf("workers=%d seed %d: explorations = %d, want %d (γ per step, topped up after each panic)", workers, seed, res.Explorations, 3*24)
			}
		}
	}
}

// TestDeadEvaluatorStillCommitsLegalAllocation is the extreme of
// recovery #2: every evaluator call panics, all workers retire, and
// the commit fallback still produces a complete legal allocation, at
// one worker and at four.
func TestDeadEvaluatorStillCommitsLegalAllocation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		inj := &faults.Injector{PanicEvery: 1}
		env, wl := cornerEnv()
		s := mcts.New(mcts.Config{Gamma: 8, Seed: 4, Workers: workers},
			inj.Evaluator(testAgent(11)), wl, testScaler())
		res := s.Run(env)
		requireLegalComplete(t, env, wl, res)
		if res.WorkerPanics == 0 {
			t.Errorf("workers=%d: a dead evaluator must be visible in Result.WorkerPanics", workers)
		}
	}
}

// TestNaNActivationsDoNotPoisonSearch: NaN network outputs are
// clamped by the search (priors renormalised, values floored) and the
// result stays finite and legal at both worker counts.
func TestNaNActivationsDoNotPoisonSearch(t *testing.T) {
	for _, workers := range []int{1, 3} {
		inj := &faults.Injector{NaNEvery: 2}
		env, wl := cornerEnv()
		s := mcts.New(mcts.Config{Gamma: 16, Seed: 5, Workers: workers},
			inj.Evaluator(testAgent(11)), wl, testScaler())
		res := s.Run(env)
		requireLegalComplete(t, env, wl, res)
		if inj.NaNs() == 0 {
			t.Fatalf("workers=%d: injector never fired", workers)
		}
	}
}

// TestTornCheckpointWriteKeepsPreviousGeneration pins documented
// recovery #3: a write killed mid-checkpoint (here: a torn first
// write) leaves the previous generation loadable and no stray staging
// files behind.
func TestTornCheckpointWriteKeepsPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "agent.ckpt")
	gen1 := testAgent(1)
	if err := gen1.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	gen2 := testAgent(2)
	inj := &faults.Injector{WriteFailAt: 1}
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		return gen2.Save(inj.Writer(w))
	})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("injected write failure not propagated: %v", err)
	}

	loaded, err := agent.LoadFile(path)
	if err != nil {
		t.Fatalf("previous generation unreadable after torn write: %v", err)
	}
	want, got := gen1.Params()[0].W, loaded.Params()[0].W
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("weight %d: loaded %v, want gen1's %v", i, got[i], want[i])
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("staging file leaked: %v", entries)
	}
}

// TestTruncatedCheckpointRejected: a file cut mid-payload (what a
// non-atomic writer would leave after a crash) must fail to load, not
// yield a half-initialised agent.
func TestTruncatedCheckpointRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := testAgent(3).Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.LoadFile(path); err == nil {
		t.Fatal("truncated checkpoint loaded without error")
	}
}

// TestTrainerSurvivesInjectedNaNWirelengths pins documented recovery
// #4: NaN oracle results are skipped before they reach an update
// batch, the network stays finite, and at most one weight restore is
// needed.
func TestTrainerSurvivesInjectedNaNWirelengths(t *testing.T) {
	env, wl := cornerEnv()
	inj := &faults.Injector{WLNaNEvery: 3}
	ag := testAgent(7)
	tr := rl.NewTrainer(rl.Config{
		Episodes: 12, UpdateEvery: 4, CalibrationEpisodes: 1, Seed: 9,
	}, ag, env, inj.Wirelength(wl))
	tr.Scaler = testScaler() // preset so calibration cannot be poisoned
	tr.Run()

	if len(tr.History) != 12 {
		t.Fatalf("history has %d episodes, want 12", len(tr.History))
	}
	if tr.Faults.SkippedEpisodes == 0 {
		t.Fatal("injector never fired — no episode was skipped")
	}
	if tr.Faults.Restores > 1 {
		t.Errorf("recovery took %d restores, want at most 1", tr.Faults.Restores)
	}
	for _, p := range ag.Params() {
		for i, v := range p.W {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("parameter %s[%d] non-finite after training: %v", p.Name, i, v)
			}
		}
	}
}
