package serve

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"macroplace/internal/eco"
	"macroplace/internal/mcts"
)

// ecoSpec builds a valid baseline ECO spec tests then perturb.
func ecoSpec(seed int64) Spec {
	sp := tinySpec(seed)
	sp.Eco = &EcoSpec{
		Prior: map[string][2]float64{"m0": {10, 10}, "m1": {20, 20}},
		Moves: 16,
	}
	return sp
}

// TestEcoSpecValidate pins the admission-time hardening of the eco job
// class: non-finite and out-of-range budgets, conflicting job classes,
// ambiguous or missing priors, and structurally bad deltas are all
// refused before a worker ever sees the spec.
func TestEcoSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(sp *Spec)
	}{
		{"combined with race", func(sp *Spec) { sp.Race = []string{"mcts"} }},
		{"combined with resume", func(sp *Spec) { sp.Resume = &mcts.Snapshot{} }},
		{"both prior_job and prior", func(sp *Spec) { sp.Eco.PriorJob = "job-000001" }},
		{"neither prior_job nor prior", func(sp *Spec) { sp.Eco.Prior = nil }},
		{"negative moves", func(sp *Spec) { sp.Eco.Moves = -1 }},
		{"huge moves", func(sp *Spec) { sp.Eco.Moves = 2_000_000 }},
		{"nan effort", func(sp *Spec) { sp.Eco.Effort = math.NaN() }},
		{"inf effort", func(sp *Spec) { sp.Eco.Effort = math.Inf(1) }},
		{"negative effort", func(sp *Spec) { sp.Eco.Effort = -0.5 }},
		{"huge effort", func(sp *Spec) { sp.Eco.Effort = 1001 }},
		{"nan prior coordinate", func(sp *Spec) { sp.Eco.Prior["m0"] = [2]float64{math.NaN(), 0} }},
		{"inf prior coordinate", func(sp *Spec) { sp.Eco.Prior["m1"] = [2]float64{0, math.Inf(-1)} }},
		{"unnamed prior macro", func(sp *Spec) { sp.Eco.Prior[""] = [2]float64{1, 1} }},
		{"unnamed delta net", func(sp *Spec) {
			sp.Eco.Delta = &eco.Delta{AddNets: []eco.DeltaNet{{Pins: []eco.DeltaPin{{Node: "m0"}, {Node: "m1"}}}}}
		}},
		{"one-pin delta net", func(sp *Spec) {
			sp.Eco.Delta = &eco.Delta{AddNets: []eco.DeltaNet{{Name: "x", Pins: []eco.DeltaPin{{Node: "m0"}}}}}
		}},
		{"nan delta weight", func(sp *Spec) {
			sp.Eco.Delta = &eco.Delta{AddNets: []eco.DeltaNet{{Name: "x", Weight: math.NaN(), Pins: []eco.DeltaPin{{Node: "m0"}, {Node: "m1"}}}}}
		}},
		{"delta drop and reweight conflict", func(sp *Spec) {
			sp.Eco.Delta = &eco.Delta{DropNets: []string{"n0"}, Reweight: map[string]float64{"n0": 2}}
		}},
	}
	for _, tc := range cases {
		sp := ecoSpec(1)
		tc.mut(&sp)
		if err := sp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad eco spec", tc.name)
		}
	}

	good := []Spec{
		ecoSpec(1),
		func() Spec { // prior-job form with a delta and effort scaling
			sp := ecoSpec(1)
			sp.Eco.Prior = nil
			sp.Eco.PriorJob = "job-000001"
			sp.Eco.Effort = 0.5
			sp.Eco.Delta = &eco.Delta{
				AddNets:  []eco.DeltaNet{{Name: "x", Weight: 2, Pins: []eco.DeltaPin{{Node: "m0"}, {Node: "m1"}}}},
				Reweight: map[string]float64{"n0": 3},
			}
			return sp
		}(),
	}
	for i, sp := range good {
		if err := sp.Validate(); err != nil {
			t.Errorf("good eco spec %d rejected: %v", i, err)
		}
	}
}

func TestEcoMovesBudget(t *testing.T) {
	for _, tc := range []struct {
		moves  int
		effort float64
		want   int
	}{
		{0, 0, eco.DefaultMoves},
		{64, 0, 64},
		{64, 0.5, 32},
		{64, 2, 128},
		{64, 0.001, 1}, // floor: effort never starves the search to zero
	} {
		e := EcoSpec{Moves: tc.moves, Effort: tc.effort}
		if got := e.MovesBudget(); got != tc.want {
			t.Errorf("MovesBudget(moves=%d, effort=%v) = %d, want %d", tc.moves, tc.effort, got, tc.want)
		}
	}
}

// A spec referencing a job the daemon has never seen must be refused at
// submission, not discovered as a run-time failure.
func TestEcoSubmitRejectsDanglingPriorJob(t *testing.T) {
	d, err := NewServer(Config{Workers: 1, QueueCap: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		d.Shutdown(ctx)
	}()
	sp := ecoSpec(3)
	sp.Eco.Prior = nil
	sp.Eco.PriorJob = "job-999999"
	if _, err := d.Submit(sp); err == nil {
		t.Fatal("Submit accepted an eco spec with a dangling prior-job reference")
	}
}

// TestDaemonECOBitIdenticalToDirectRun is satellite 4: a full job on
// the daemon persists its placement, an ECO job chained from it via
// prior_job re-places under a delta, and the outcome is bit-identical
// to calling eco.Run directly with the same prior, delta, and seed.
func TestDaemonECOBitIdenticalToDirectRun(t *testing.T) {
	d, err := NewServer(Config{Workers: 1, QueueCap: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		d.Shutdown(ctx)
	}()

	sp := tinySpec(7)
	full, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, d, full.ID); st != StateDone {
		t.Fatalf("full job state %q, want done", st)
	}

	delta := &eco.Delta{
		AddNets:  []eco.DeltaNet{{Name: "eco_x", Weight: 2, Pins: []eco.DeltaPin{{Node: "m0"}, {Node: "m1"}}}},
		Reweight: map[string]float64{"n0": 2},
	}
	esp := sp
	esp.Eco = &EcoSpec{PriorJob: full.ID, Delta: delta, Moves: 32}
	ej, err := d.Submit(esp)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, d, ej.ID); st != StateDone {
		t.Fatalf("eco job state %q, want done", st)
	}
	got := ej.Result()
	if got == nil || got.HPWL <= 0 || len(got.Anchors) == 0 {
		t.Fatalf("degenerate eco result: %+v", got)
	}
	if got.MovesProbed == 0 {
		t.Fatal("eco job probed no moves")
	}

	wire, err := eco.ReadPlacementWire(filepath.Join(full.Dir, "placement.json"))
	if err != nil {
		t.Fatalf("full job persisted no usable placement: %v", err)
	}
	prior, err := eco.PriorFromWire(wire)
	if err != nil {
		t.Fatal(err)
	}
	design, _, _, err := sp.LoadDesignDoc(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eco.Run(context.Background(), design, prior, delta,
		eco.Config{Core: sp.Options(), Moves: 32})
	if err != nil {
		t.Fatal(err)
	}

	if got.HPWL != res.HPWL {
		t.Errorf("daemon eco HPWL %x != direct %x",
			math.Float64bits(got.HPWL), math.Float64bits(res.HPWL))
	}
	if got.MacroOverlap != res.MacroOverlap {
		t.Errorf("daemon eco overlap %v != direct %v", got.MacroOverlap, res.MacroOverlap)
	}
	if !reflect.DeepEqual(got.Anchors, res.Anchors) {
		t.Errorf("daemon eco anchors %v != direct %v", got.Anchors, res.Anchors)
	}
	if got.MovesProbed != res.MovesProbed || got.MovesCommitted != res.MovesCommitted {
		t.Errorf("daemon eco ledger (%d, %d) != direct (%d, %d)",
			got.MovesProbed, got.MovesCommitted, res.MovesProbed, res.MovesCommitted)
	}
}
