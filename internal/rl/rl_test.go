package rl

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"macroplace/internal/agent"
	"macroplace/internal/geom"
	"macroplace/internal/grid"
	"macroplace/internal/rng"
)

// ---------------------------------------------------------------------------
// Reward (Eq. 9)

func TestCalibrateStats(t *testing.T) {
	s := Calibrate(Shaped, []float64{10, 20, 30, 40}, 0.75)
	if s.Max != 40 || s.Min != 10 || s.Avg != 25 {
		t.Errorf("calibration = %+v", s)
	}
}

func TestRewardEquation9(t *testing.T) {
	s := Scaler{Mode: Shaped, Max: 40, Min: 10, Avg: 25, Alpha: 0.75}
	// 𝔇(W) = (−W + Δ)/(δ − γ) + α.
	if got := s.Reward(25); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("reward at mean = %v, want α", got)
	}
	if got := s.Reward(10); math.Abs(got-(15.0/30+0.75)) > 1e-12 {
		t.Errorf("reward at best = %v", got)
	}
	if got := s.Reward(40); math.Abs(got-(-15.0/30+0.75)) > 1e-12 {
		t.Errorf("reward at worst = %v", got)
	}
	// Better (smaller) wirelength always yields a larger reward.
	if s.Reward(12) <= s.Reward(38) {
		t.Error("reward must be decreasing in wirelength")
	}
}

func TestRewardModes(t *testing.T) {
	wls := []float64{100, 150, 200}
	withAlpha := Calibrate(Shaped, wls, 0.75)
	noAlpha := Calibrate(ShapedNoAlpha, wls, 0.75)
	negwl := Calibrate(NegWL, wls, 0.75)
	w := 160.0
	if math.Abs((withAlpha.Reward(w)-noAlpha.Reward(w))-0.75) > 1e-12 {
		t.Error("alpha must shift the reward by exactly α")
	}
	if negwl.Reward(w) != -w {
		t.Errorf("negWL reward = %v, want %v", negwl.Reward(w), -w)
	}
}

func TestRewardDegenerateCalibration(t *testing.T) {
	// All calibration episodes identical: span is zero; reward must
	// stay finite.
	s := Calibrate(Shaped, []float64{50, 50, 50}, 0.6)
	if math.IsNaN(s.Reward(50)) || math.IsInf(s.Reward(50), 0) {
		t.Error("degenerate calibration must stay finite")
	}
	s2 := Calibrate(Shaped, nil, 0.6)
	if math.IsNaN(s2.Reward(1)) {
		t.Error("empty calibration must stay finite")
	}
}

func TestRewardMonotoneProperty(t *testing.T) {
	s := Calibrate(Shaped, []float64{5, 15, 30}, 0.8)
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a == b {
			return s.Reward(a) == s.Reward(b)
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return s.Reward(lo) >= s.Reward(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRewardModeString(t *testing.T) {
	if Shaped.String() != "shaped" || ShapedNoAlpha.String() != "shaped-no-alpha" || NegWL.String() != "negWL" {
		t.Error("mode strings wrong")
	}
	if RewardMode(99).String() != "unknown" {
		t.Error("unknown mode string wrong")
	}
}

// ---------------------------------------------------------------------------
// Trainer on a synthetic environment

// testEnv builds a ζ=4 environment with 3 unit groups and a wirelength
// oracle that prefers anchors near the origin — a trivially learnable
// objective.
func testEnv() (*grid.Env, WirelengthFunc) {
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

func testTrainer(cfg Config) *Trainer {
	env, wl := testEnv()
	ag := agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 2})
	return NewTrainer(cfg, ag, env, wl)
}

func TestTrainerRunHistory(t *testing.T) {
	tr := testTrainer(Config{Episodes: 25, UpdateEvery: 10, CalibrationEpisodes: 8, Seed: 3})
	tr.Run()
	if len(tr.History) != 25 {
		t.Fatalf("history = %d entries, want 25", len(tr.History))
	}
	for i, st := range tr.History {
		if st.Episode != i+1 {
			t.Fatalf("episode numbering broken at %d", i)
		}
		if st.Wirelength < 0 {
			t.Fatalf("negative wirelength at %d", i)
		}
	}
	// Scaler must be calibrated.
	if tr.Scaler.Max == 0 && tr.Scaler.Min == 0 {
		t.Error("trainer did not calibrate")
	}
}

func TestTrainerSnapshots(t *testing.T) {
	tr := testTrainer(Config{Episodes: 20, UpdateEvery: 5, CalibrationEpisodes: 5, SnapshotEvery: 10, Seed: 4})
	tr.Run()
	// Episode 0 + episodes 10, 20.
	if len(tr.Snapshots) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(tr.Snapshots))
	}
	if tr.Snapshots[0].Episode != 0 || tr.Snapshots[1].Episode != 10 || tr.Snapshots[2].Episode != 20 {
		t.Errorf("snapshot episodes = %v %v %v", tr.Snapshots[0].Episode, tr.Snapshots[1].Episode, tr.Snapshots[2].Episode)
	}
	// Snapshots are independent copies: later training changed the
	// live agent, so snapshot 0 and the final agent should differ on
	// some weight.
	w0 := tr.Snapshots[0].Agent.Params()[0].W
	wf := tr.Agent.Params()[0].W
	same := true
	for i := range w0 {
		if w0[i] != wf[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("episode-0 snapshot identical to trained weights; training had no effect or snapshot aliases live agent")
	}
}

func TestTrainerLearnsTrivialObjective(t *testing.T) {
	tr := testTrainer(Config{Episodes: 120, UpdateEvery: 10, CalibrationEpisodes: 10, LR: 3e-3, Seed: 5})
	tr.Run()
	// Compare mean wirelength of the first and last 20 episodes.
	mean := func(h []EpisodeStat) float64 {
		var s float64
		for _, e := range h {
			s += e.Wirelength
		}
		return s / float64(len(h))
	}
	early := mean(tr.History[:20])
	late := mean(tr.History[100:])
	if late >= early {
		t.Errorf("training did not improve: early %v late %v", early, late)
	}
}

func TestTrainerDeterminism(t *testing.T) {
	run := func() []EpisodeStat {
		tr := testTrainer(Config{Episodes: 15, UpdateEvery: 5, CalibrationEpisodes: 5, Seed: 6})
		tr.Run()
		return tr.History
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("training must be deterministic for a fixed seed")
	}
}

// TestPretrainingLeavesAgentUntilFirstUpdate: rollouts only read the
// weights, so a trainer cancelled after five rollouts and before its
// first update (UpdateEvery 30) leaves a checkpoint byte-identical to
// the one saved before it ran.
func TestPretrainingLeavesAgentUntilFirstUpdate(t *testing.T) {
	env, wl := testEnv()
	ag := agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 2})
	var before bytes.Buffer
	if err := ag.Save(&before); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const calibration, rollouts = 6, 5
	calls := 0
	cancelling := func(anchors []int) float64 {
		if calls++; calls == calibration+rollouts {
			cancel()
		}
		return wl(anchors)
	}
	tr := NewTrainer(Config{Episodes: 50, UpdateEvery: 30, CalibrationEpisodes: calibration, Seed: 6}, ag, env, cancelling)
	tr.RunContext(ctx)
	if !tr.Interrupted || len(tr.History) != rollouts {
		t.Fatalf("interrupted=%v after %d episodes, want a cancel after %d", tr.Interrupted, len(tr.History), rollouts)
	}
	var after bytes.Buffer
	if err := ag.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Error("rollouts changed the agent's checkpoint before its first update")
	}
}

func TestRandomEpisodeLegality(t *testing.T) {
	env, _ := testEnv()
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		anchors := RandomEpisode(env, r)
		if len(anchors) != 3 {
			t.Fatalf("anchors = %v", anchors)
		}
		for _, a := range anchors {
			if a < 0 || a >= env.G.NumCells() {
				t.Fatalf("illegal anchor %d", a)
			}
		}
	}
}

func TestPlayGreedyDeterministic(t *testing.T) {
	env, wl := testEnv()
	ag := agent.New(agent.Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 8})
	a1, w1 := PlayGreedy(ag, env.Clone(), wl)
	a2, w2 := PlayGreedy(ag, env.Clone(), wl)
	if !reflect.DeepEqual(a1, a2) || w1 != w2 {
		t.Error("greedy play must be deterministic")
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.Normalize()
	if c.Episodes != 300 || c.UpdateEvery != 30 || c.CalibrationEpisodes != 50 || c.Alpha != 0.75 {
		t.Errorf("paper defaults wrong: %+v", c)
	}
	c2 := Config{Episodes: 7, UpdateEvery: 3, Alpha: 0.5}.Normalize()
	if c2.Episodes != 7 || c2.UpdateEvery != 3 || c2.Alpha != 0.5 {
		t.Error("explicit values must survive Normalize")
	}
}
