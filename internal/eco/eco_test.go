package eco

import (
	"context"
	"math"
	"testing"

	"macroplace/internal/agent"
	"macroplace/internal/core"
	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/mcts"
	"macroplace/internal/netlist"
	"macroplace/internal/rl"
)

func testOptions() core.Options {
	return core.Options{
		Zeta: 8,
		Agent: agent.Config{
			Zeta: 8, Channels: 8, ResBlocks: 1, MaxSteps: 32, Seed: 7,
		},
		RL: rl.Config{
			Episodes:            10,
			UpdateEvery:         5,
			CalibrationEpisodes: 6,
			Alpha:               0.75,
			LR:                  1e-3,
			Seed:                11,
		},
		MCTS: mcts.Config{Gamma: 4, Seed: 13, Workers: 1},
		Seed: 5,
	}
}

func testDesign(seed int64) *netlist.Design {
	return gen.Generate(gen.Spec{Name: "eco", MovableMacros: 6, Cells: 120, Nets: 200, Seed: seed})
}

// priorFrom snapshots the design's current movable-macro centers as a
// prior placement (tests use the generator's layout as the "previous
// job's" answer; production priors come from a full job's
// placement.json).
func priorFrom(d *netlist.Design) map[string]geom.Point {
	prior := map[string]geom.Point{}
	for _, mi := range d.MovableMacroIndices() {
		prior[d.Nodes[mi].Name] = d.Nodes[mi].Center()
	}
	return prior
}

func testDelta() *Delta {
	return &Delta{
		AddNets: []DeltaNet{{
			Name:   "eco_new0",
			Weight: 2,
			Pins:   []DeltaPin{{Node: "m0"}, {Node: "m1"}, {Node: "c0"}},
		}},
		Reweight: map[string]float64{"n0": 3},
	}
}

func TestDeltaValidate(t *testing.T) {
	d := testDesign(60)
	cases := []struct {
		name string
		dl   Delta
	}{
		{"unnamed add", Delta{AddNets: []DeltaNet{{Pins: []DeltaPin{{Node: "m0"}, {Node: "m1"}}}}}},
		{"duplicate add", Delta{AddNets: []DeltaNet{
			{Name: "x", Pins: []DeltaPin{{Node: "m0"}, {Node: "m1"}}},
			{Name: "x", Pins: []DeltaPin{{Node: "m0"}, {Node: "m1"}}}}}},
		{"nan weight", Delta{AddNets: []DeltaNet{{Name: "x", Weight: math.NaN(), Pins: []DeltaPin{{Node: "m0"}, {Node: "m1"}}}}}},
		{"inf weight", Delta{AddNets: []DeltaNet{{Name: "x", Weight: math.Inf(1), Pins: []DeltaPin{{Node: "m0"}, {Node: "m1"}}}}}},
		{"negative weight", Delta{AddNets: []DeltaNet{{Name: "x", Weight: -1, Pins: []DeltaPin{{Node: "m0"}, {Node: "m1"}}}}}},
		{"one pin", Delta{AddNets: []DeltaNet{{Name: "x", Pins: []DeltaPin{{Node: "m0"}}}}}},
		{"unknown cell", Delta{AddNets: []DeltaNet{{Name: "x", Pins: []DeltaPin{{Node: "m0"}, {Node: "nosuch"}}}}}},
		{"nan pin offset", Delta{AddNets: []DeltaNet{{Name: "x", Pins: []DeltaPin{{Node: "m0", Dx: math.NaN()}, {Node: "m1"}}}}}},
		{"existing net name", Delta{AddNets: []DeltaNet{{Name: "n0", Pins: []DeltaPin{{Node: "m0"}, {Node: "m1"}}}}}},
		{"empty drop name", Delta{DropNets: []string{""}}},
		{"duplicate drop", Delta{DropNets: []string{"n0", "n0"}}},
		{"unknown drop", Delta{DropNets: []string{"nosuch"}}},
		{"unknown reweight", Delta{Reweight: map[string]float64{"nosuch": 2}}},
		{"nan reweight", Delta{Reweight: map[string]float64{"n0": math.NaN()}}},
		{"negative reweight", Delta{Reweight: map[string]float64{"n0": -2}}},
		{"drop and reweight", Delta{DropNets: []string{"n0"}, Reweight: map[string]float64{"n0": 2}}},
	}
	for _, tc := range cases {
		if err := tc.dl.Validate(d); err == nil {
			t.Errorf("%s: Validate accepted a bad delta", tc.name)
		}
	}
	if err := testDelta().Validate(d); err != nil {
		t.Fatalf("good delta rejected: %v", err)
	}
	if err := (&Delta{}).Validate(d); err != nil {
		t.Fatalf("empty delta rejected: %v", err)
	}
}

func TestDeltaApply(t *testing.T) {
	d := testDesign(61)
	nets := len(d.Nets)
	dl := &Delta{
		AddNets:  testDelta().AddNets,
		DropNets: []string{"n1"},
		Reweight: map[string]float64{"n0": 5},
	}
	if err := dl.Apply(d); err != nil {
		t.Fatal(err)
	}
	if len(d.Nets) != nets { // -1 dropped, +1 added
		t.Fatalf("net count %d, want %d", len(d.Nets), nets)
	}
	for i := range d.Nets {
		switch d.Nets[i].Name {
		case "n1":
			t.Error("dropped net survived Apply")
		case "n0":
			if d.Nets[i].Weight != 5 {
				t.Errorf("reweight not applied: %v", d.Nets[i].Weight)
			}
		case "eco_new0":
			if len(d.Nets[i].Pins) != 3 || d.Nets[i].Pins[0].Node != d.NodeIndex("m0") {
				t.Error("added net wired incorrectly")
			}
		}
	}
	// Apply re-validates: a dangling delta must fail even post-hoc.
	if err := (&Delta{DropNets: []string{"n1"}}).Apply(d); err == nil {
		t.Error("Apply accepted a delta referencing an already-dropped net")
	}
}

// TestRunColdThenWarmBitIdentical is the tentpole acceptance test: the
// same prior + delta run twice against one warm store must (a) train
// only once, (b) report eval-cache hits on the warm repeat, and (c)
// produce bit-identical results.
func TestRunColdThenWarmBitIdentical(t *testing.T) {
	base := testDesign(62)
	prior := priorFrom(base)
	dl := testDelta()
	store := NewWarmStore(4)
	cfg := Config{Core: testOptions(), Moves: 48, Warm: store}

	cold, err := Run(context.Background(), base, prior, dl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Warm {
		t.Fatal("first run reported warm state")
	}
	if cold.HPWL <= 0 || len(cold.Anchors) == 0 {
		t.Fatalf("degenerate cold result: %+v", cold)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries after cold run, want 1", store.Len())
	}

	warm, err := Run(context.Background(), base, prior, dl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("second run did not reuse warm state")
	}
	if warm.CacheHits == 0 {
		t.Fatal("warm run reported zero eval-cache hits")
	}
	if warm.HPWL != cold.HPWL {
		t.Fatalf("warm HPWL %x != cold %x", math.Float64bits(warm.HPWL), math.Float64bits(cold.HPWL))
	}
	if !anchorsEqual(warm.Anchors, cold.Anchors) {
		t.Fatalf("warm anchors %v != cold %v", warm.Anchors, cold.Anchors)
	}
	if warm.BestCost != cold.BestCost || warm.PriorCost != cold.PriorCost {
		t.Fatalf("warm coarse costs (%v, %v) != cold (%v, %v)",
			warm.PriorCost, warm.BestCost, cold.PriorCost, cold.BestCost)
	}
}

// The search keeps the prior as incumbent: its best coarse cost never
// exceeds the prior's, whatever the budget.
func TestRunNeverWorseThanPriorUnderCoarseOracle(t *testing.T) {
	base := testDesign(63)
	res, err := Run(context.Background(), base, priorFrom(base), testDelta(),
		Config{Core: testOptions(), Moves: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost > res.PriorCost {
		t.Fatalf("search regressed the incumbent: best %v > prior %v", res.BestCost, res.PriorCost)
	}
	if res.MovesProbed == 0 {
		t.Fatal("search probed no moves")
	}
	if res.Warm {
		t.Fatal("warm without a store")
	}
}

func TestRunRejectsIncompletePrior(t *testing.T) {
	base := testDesign(64)
	prior := priorFrom(base)
	for name := range prior {
		delete(prior, name)
		break
	}
	if _, err := Run(context.Background(), base, prior, nil, Config{Core: testOptions(), Moves: 4}); err == nil {
		t.Fatal("Run accepted a prior missing a movable macro")
	}
}

// Retrain must swap the entry's agent and retarget its persistent
// cache; with identical training config the weights reproduce, so the
// results stay bit-identical to the cold run — and the store still
// holds exactly one entry whose fingerprint matches its agent.
func TestRunRetrainRetargetsWarmEntry(t *testing.T) {
	base := testDesign(65)
	prior := priorFrom(base)
	dl := testDelta()
	store := NewWarmStore(4)
	cfg := Config{Core: testOptions(), Moves: 24, Warm: store}

	cold, err := Run(context.Background(), base, prior, dl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Retrain = true
	re, err := Run(context.Background(), base, prior, dl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if re.Warm {
		t.Fatal("retrain run must not count as warm")
	}
	if re.HPWL != cold.HPWL {
		t.Fatalf("deterministic retrain changed the result: %v != %v", re.HPWL, cold.HPWL)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", store.Len())
	}
	key := warmKeyForTest(base, dl, cfg)
	e, ok := store.Lookup(key)
	if !ok {
		t.Fatal("entry vanished after retrain")
	}
	if e.FP != e.Agent.Fingerprint() {
		t.Fatal("entry fingerprint out of sync with its agent")
	}
	if e.Cache.Fingerprint() != e.FP {
		t.Fatal("cache not retargeted to the retrained agent")
	}
}

// warmKeyForTest recomputes the store key the way Run does.
func warmKeyForTest(base *netlist.Design, dl *Delta, cfg Config) uint64 {
	d := base.Clone()
	if err := dl.Apply(d); err != nil {
		panic(err)
	}
	p, err := core.New(d, cfg.Core)
	if err != nil {
		panic(err)
	}
	return warmKey(d, p.Opts)
}

func TestWarmStoreLRUAndInvalidate(t *testing.T) {
	s := NewWarmStore(2)
	e := func() *Entry { return &Entry{} }
	s.Store(1, e())
	s.Store(2, e())
	if _, ok := s.Lookup(1); !ok { // refresh 1; 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	s.Store(3, e()) // evicts 2
	if _, ok := s.Lookup(2); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if _, ok := s.Lookup(1); !ok {
		t.Fatal("recently used entry 1 evicted")
	}
	s.InvalidateAll()
	if s.Len() != 0 {
		t.Fatalf("store not empty after InvalidateAll: %d", s.Len())
	}
}
