package agent

import (
	"math"
	"os"
	"testing"

	"macroplace/internal/nn"
	"macroplace/internal/rng"
)

func testAgent() *Agent {
	return New(Config{Zeta: 6, Channels: 4, ResBlocks: 1, MaxSteps: 8, Seed: 3})
}

func randState(r *rng.RNG, n int, masked int) (sp, sa []float64) {
	sp = make([]float64, n)
	sa = make([]float64, n)
	for i := range sp {
		sp[i] = r.Float64()
		sa[i] = r.Float64()
	}
	for i := 0; i < masked; i++ {
		sa[r.Intn(n)] = 0
	}
	return sp, sa
}

func TestForwardShapes(t *testing.T) {
	a := testAgent()
	r := rng.New(1)
	sp, sa := randState(r, 36, 5)
	var tp Tape
	out := a.Forward(&tp, sp, sa, 2)
	if len(out.Probs) != 36 {
		t.Fatalf("probs len = %d, want 36", len(out.Probs))
	}
	var sum float32
	for i, p := range out.Probs {
		if p < 0 || p > 1 {
			t.Fatalf("prob[%d] = %v out of range", i, p)
		}
		if sa[i] == 0 && p != 0 {
			t.Errorf("masked action %d has prob %v", i, p)
		}
		sum += p
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Errorf("probs sum = %v", sum)
	}
	if math.IsNaN(float64(out.Value)) {
		t.Error("value is NaN")
	}
}

func TestForwardDeterministic(t *testing.T) {
	a := testAgent()
	r := rng.New(2)
	sp, sa := randState(r, 36, 3)
	var tp Tape
	o1 := a.Forward(&tp, sp, sa, 1)
	o2 := a.Forward(&tp, sp, sa, 1)
	if o1.Value != o2.Value {
		t.Error("value must be deterministic")
	}
	for i := range o1.Probs {
		if o1.Probs[i] != o2.Probs[i] {
			t.Fatal("probs must be deterministic")
		}
	}
}

func TestCloneMatchesOriginal(t *testing.T) {
	a := testAgent()
	r := rng.New(3)
	sp, sa := randState(r, 36, 4)
	cp := a.Clone()
	o1 := evalState(a, sp, sa, 0)
	o2 := evalState(cp, sp, sa, 0)
	if o1.Value != o2.Value {
		t.Errorf("clone value %v != original %v", o2.Value, o1.Value)
	}
	for i := range o1.Probs {
		if o1.Probs[i] != o2.Probs[i] {
			t.Fatal("clone probs differ")
		}
	}
	// Training the clone must not change the original.
	var tp Tape
	cp.Forward(&tp, sp, sa, 0)
	cp.Backward(&tp, &tp, 0, 1, 1, 0)
	opt := nn.NewAdam(cp.Params(), 0.01)
	opt.Step()
	o3 := evalState(a, sp, sa, 0)
	if o3.Value != o1.Value {
		t.Error("training the clone leaked into the original")
	}
}

// TestCopyWeightsFromRefusesOtherShape: agents with the same number of
// parameter slices but other slice lengths (a wider tower, a longer
// position embedding) must not copy a prefix of every slice.
func TestCopyWeightsFromRefusesOtherShape(t *testing.T) {
	base := testAgent().Cfg
	wide, long := base, base
	wide.Channels++
	long.MaxSteps++
	for _, cfg := range []Config{wide, long} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: CopyWeightsFrom a %+v agent did not panic", cfg, base)
				}
			}()
			New(cfg).CopyWeightsFrom(New(base))
		}()
	}
}

func TestBackwardAccumulatesGradients(t *testing.T) {
	a := testAgent()
	r := rng.New(4)
	sp, sa := randState(r, 36, 0)
	var tp Tape
	a.Forward(&tp, sp, sa, 0)
	a.Backward(&tp, &tp, 3, 0.5, 1, 0)
	nonzero := 0
	for _, p := range a.Params() {
		for _, g := range p.G {
			if g != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("Backward produced all-zero gradients")
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	a := testAgent()
	defer func() {
		if recover() == nil {
			t.Error("Backward without Forward should panic")
		}
	}()
	var tp Tape
	a.Backward(&tp, &tp, 0, 1, 1, 0)
}

func TestForwardWrongStateLengthPanics(t *testing.T) {
	a := testAgent()
	defer func() {
		if recover() == nil {
			t.Error("short state should panic")
		}
	}()
	a.Forward(&Tape{}, make([]float64, 5), make([]float64, 5), 0)
}

// TestPolicyLearnsPreferredAction trains the agent to prefer a single
// rewarded action from a fixed state — the minimal policy-gradient
// sanity check.
func TestPolicyLearnsPreferredAction(t *testing.T) {
	a := New(Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 5})
	r := rng.New(6)
	sp, sa := randState(r, 16, 0)
	const target = 7
	opt := nn.NewAdam(a.Params(), 5e-3)
	var tp Tape
	before := evalState(a, sp, sa, 0).Probs[target]
	for step := 0; step < 120; step++ {
		out := a.Forward(&tp, sp, sa, 0)
		// Constant positive advantage on the target action; value
		// target equals the current estimate so the critic loss stays
		// zero and only the policy moves.
		a.Backward(&tp, &tp, target, 1, out.Value, 0)
		opt.Step()
	}
	after := evalState(a, sp, sa, 0).Probs[target]
	if after <= before {
		t.Errorf("policy did not move toward rewarded action: %v -> %v", before, after)
	}
	if after < 0.5 {
		t.Errorf("target prob after training = %v, want > 0.5", after)
	}
}

// TestValueLearnsTarget trains only the critic toward a constant
// return.
func TestValueLearnsTarget(t *testing.T) {
	a := New(Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 7})
	r := rng.New(8)
	sp, sa := randState(r, 16, 0)
	opt := nn.NewAdam(a.Params(), 5e-3)
	const target = 0.8
	var tp Tape
	for step := 0; step < 80; step++ {
		a.Forward(&tp, sp, sa, 1)
		// Zero advantage: only the value loss is active.
		a.Backward(&tp, &tp, 0, 0, target, 0)
		opt.Step()
	}
	got := evalState(a, sp, sa, 1).Value
	if math.Abs(float64(got)-target) > 0.15 {
		t.Errorf("value = %v, want ≈%v", got, target)
	}
}

func TestPaperConfigBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-sized tower is slow")
	}
	cfg := Paper(32, 1)
	if cfg.Channels != 128 || cfg.ResBlocks != 10 || cfg.Zeta != 16 {
		t.Fatalf("Paper config = %+v", cfg)
	}
	a := New(cfg)
	// Table I parameter count sanity: the tower dominates with
	// 10 blocks × 2 convs × (128·128·9) ≈ 2.95M weights.
	if n := a.NumParams(); n < 2_000_000 {
		t.Errorf("paper network has %d params, expected millions", n)
	}
	sp := make([]float64, 256)
	sa := make([]float64, 256)
	for i := range sa {
		sa[i] = 1
	}
	out := evalState(a, sp, sa, 0)
	if len(out.Probs) != 256 {
		t.Errorf("probs len = %d", len(out.Probs))
	}
}

func TestEntropyBonusFlattensPolicy(t *testing.T) {
	// With a large entropy coefficient and zero advantage, training
	// should push the distribution toward uniform.
	a := New(Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 4, Seed: 9})
	r := rng.New(10)
	sp, sa := randState(r, 16, 0)
	opt := nn.NewAdam(a.Params(), 1e-2)
	entBefore := entropy(evalState(a, sp, sa, 0).Probs)
	var tp Tape
	for step := 0; step < 40; step++ {
		a.Forward(&tp, sp, sa, 0)
		a.Backward(&tp, &tp, 0, 0, 0, 1.0)
		opt.Step()
	}
	entAfter := entropy(evalState(a, sp, sa, 0).Probs)
	if entAfter < entBefore {
		t.Errorf("entropy decreased under entropy bonus: %v -> %v", entBefore, entAfter)
	}
}

func entropy(p []float32) float64 {
	var h float64
	for _, v := range p {
		if v > 1e-12 {
			h -= float64(v) * math.Log(float64(v))
		}
	}
	return h
}

func TestCheckpointRoundTrip(t *testing.T) {
	a := testAgent()
	r := rng.New(30)
	sp, sa := randState(r, 36, 4)
	want := evalState(a, sp, sa, 2)

	path := t.TempDir() + "/agent.ckpt"
	if err := a.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	got := evalState(loaded, sp, sa, 2)
	if got.Value != want.Value {
		t.Errorf("loaded value %v != original %v", got.Value, want.Value)
	}
	for i := range want.Probs {
		if got.Probs[i] != want.Probs[i] {
			t.Fatalf("loaded probs differ at %d", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := t.TempDir() + "/bad.ckpt"
	if err := os.WriteFile(path, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("garbage file should fail to load")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file should fail to load")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	a := testAgent()
	path := t.TempDir() + "/trunc.ckpt"
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("truncated checkpoint should fail to load")
	}
}
