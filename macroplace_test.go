package macroplace

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"macroplace/internal/serve"
)

func quickOpts() Options {
	return Options{
		Zeta:  8,
		Agent: AgentConfig{Zeta: 8, Channels: 8, ResBlocks: 1, Seed: 2},
		RL:    RLConfig{Episodes: 20, UpdateEvery: 10, CalibrationEpisodes: 8, Seed: 3},
		MCTS:  MCTSConfig{Gamma: 8, Seed: 4},
		Seed:  1,
	}
}

func TestPlaceEndToEnd(t *testing.T) {
	d, err := GenerateIBM("ibm01", 0.015, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Place(d, quickOpts())
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if res.Final.HPWL <= 0 {
		t.Fatal("final HPWL <= 0")
	}
	if len(res.History) != 20 {
		t.Fatalf("history = %d, want 20", len(res.History))
	}
}

func TestGenerateSuites(t *testing.T) {
	if len(IBMNames()) != 17 || len(CirNames()) != 6 {
		t.Fatalf("suites = %d/%d, want 17/6", len(IBMNames()), len(CirNames()))
	}
	if _, err := GenerateIBM("ibm05", 0.1, 1); err == nil {
		t.Error("ibm05 must be rejected (no macros)")
	}
	d, err := GenerateCir("cir3", 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats().PreplacedMacro == 0 {
		t.Error("industrial benchmark should carry pre-placed macros")
	}
}

func TestBookshelfRoundTripViaFacade(t *testing.T) {
	dir := t.TempDir()
	d := Generate(BenchmarkSpec{Name: "api", MovableMacros: 4, Cells: 80, Nets: 120, Seed: 6})
	if err := WriteBookshelf(d, dir, "api"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBookshelf(filepath.Join(dir, "api.aux"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(d.Nodes) || len(got.Nets) != len(d.Nets) {
		t.Errorf("roundtrip: %d/%d nodes, %d/%d nets",
			len(got.Nodes), len(d.Nodes), len(got.Nets), len(d.Nets))
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	d, err := GenerateIBM("ibm06", 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	orig := d.HPWL()
	for _, bl := range []struct {
		name string
		run  func() BaselineResult
	}{
		{"SE", func() BaselineResult { return BaselineSE(d, 1) }},
		{"DreamPlace", func() BaselineResult { return BaselineDreamPlace(d) }},
		{"RePlAce", func() BaselineResult { return BaselineRePlAce(d) }},
		{"MaskPlace", func() BaselineResult { return BaselineMaskPlace(d, 2) }},
	} {
		res := bl.run()
		if res.HPWL <= 0 {
			t.Errorf("%s: HPWL = %v", bl.name, res.HPWL)
		}
		// Baselines run on a clone: the input must be untouched.
		if d.HPWL() != orig {
			t.Fatalf("%s mutated the input design", bl.name)
		}
	}
}

func TestStagedFlowWithSnapshots(t *testing.T) {
	d, err := GenerateIBM("ibm01", 0.015, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.RL.SnapshotEvery = 10
	p, err := NewPlacer(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Preprocess(); err != nil {
		t.Fatal(err)
	}
	tr := p.Pretrain()
	if len(tr.Snapshots) < 2 {
		t.Fatalf("snapshots = %d, want >= 2", len(tr.Snapshots))
	}
	// Fig. 5 workflow via the facade: greedy vs search per snapshot.
	for _, snap := range tr.Snapshots {
		_, rlWL := GreedyRL(p, snap.Agent)
		sres := SearchWithAgent(p, snap.Agent, opts.MCTS)
		if rlWL <= 0 || sres.Wirelength <= 0 {
			t.Fatalf("episode %d: degenerate wirelengths %v/%v", snap.Episode, rlWL, sres.Wirelength)
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Zeta != 16 || o.RL.Episodes != 120 || o.MCTS.Gamma != 24 {
		t.Errorf("DefaultOptions = %+v", o)
	}
	// One search worker: 0 would mean every CPU, and a multi-worker
	// search is not bit-reproducible.
	if o.MCTS.Workers != 1 {
		t.Errorf("DefaultOptions MCTS.Workers = %d, want 1", o.MCTS.Workers)
	}
	pa := PaperAgent(40, 1)
	if pa.Channels != 128 || pa.ResBlocks != 10 {
		t.Errorf("PaperAgent = %+v", pa)
	}
}

// TestDefaultOptionsPlaceTheDaemonJob: the facade's default job places
// what a daemon or CLI job of the same knobs places (serve.RunDesign),
// bit for bit.
func TestDefaultOptionsPlaceTheDaemonJob(t *testing.T) {
	sp := serve.Spec{Bench: "ibm01", Scale: 0.02, Seed: 1, Episodes: 20, Gamma: 8}
	d, _, _, err := sp.LoadDesignDoc(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := serve.RunDesign(context.Background(), sp, d, serve.Sinks{})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.RL.Episodes, opts.MCTS.Gamma = 20, 8
	got, err := Place(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Final.HPWL) != math.Float64bits(want.HPWL) ||
		math.Float64bits(got.RLFinal.HPWL) != math.Float64bits(want.RLHPWL) {
		t.Errorf("facade HPWL %v, RL-only %v; daemon job %v, %v",
			got.Final.HPWL, got.RLFinal.HPWL, want.HPWL, want.RLHPWL)
	}
}

// TestMidScaleOrdering runs the flow and key baselines on a mid-scale
// benchmark and checks the paper's qualitative ordering: the full flow
// beats the plain mixed-size analytical baseline. Skipped with -short.
func TestMidScaleOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale integration test")
	}
	d, err := GenerateIBM("ibm01", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Zeta:  16,
		Agent: AgentConfig{Zeta: 16, Channels: 16, ResBlocks: 2, Seed: 2},
		RL:    RLConfig{Episodes: 80, Seed: 3},
		// Sequential search: the 1.05×RL-only threshold below is
		// calibrated against the deterministic committed path.
		MCTS: MCTSConfig{Gamma: 24, Seed: 4, Workers: 1},
		Seed: 1,
	}
	res, err := Place(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	dp := BaselineDreamPlace(d)
	t.Logf("ours=%.4g dreamplace=%.4g rlOnly=%.4g", res.Final.HPWL, dp.HPWL, res.RLFinal.HPWL)
	// On a small instance the grid quantization gives the free
	// analytical baseline an edge; the flow must stay competitive
	// (the full-scale comparison lives in EXPERIMENTS.md).
	if res.Final.HPWL > 1.15*dp.HPWL {
		t.Errorf("flow HPWL %.4g not competitive with DREAMPlace-like %.4g", res.Final.HPWL, dp.HPWL)
	}
	// MCTS must not lose to its own greedy RL policy by more than
	// legalization noise: the flow picks the better allocation under
	// the fast oracle, and the final full placement can reorder
	// near-ties by a few percent.
	if res.Final.HPWL > 1.05*res.RLFinal.HPWL {
		t.Errorf("MCTS result %.4g worse than RL-only %.4g", res.Final.HPWL, res.RLFinal.HPWL)
	}
}

func TestLegalizeCellsOption(t *testing.T) {
	d, err := GenerateIBM("ibm01", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.LegalizeCells = true
	res, err := Place(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.LegalHPWL <= 0 {
		t.Fatal("LegalizeCells did not produce a legalized wirelength")
	}
	if res.Final.CellsFailed > 0 {
		t.Errorf("row legalizer failed on %d cells", res.Final.CellsFailed)
	}
	// Legalization perturbs the analytical placement modestly.
	if res.Final.LegalHPWL > 2*res.Final.HPWL {
		t.Errorf("legal HPWL %v vs analytical %v", res.Final.LegalHPWL, res.Final.HPWL)
	}
}

func TestQualityAndSVGFacade(t *testing.T) {
	d, err := GenerateIBM("ibm01", 0.01, 30)
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureQuality(d)
	if rep.HPWL <= 0 || rep.PeakCongestion <= 0 {
		t.Errorf("report = %+v", rep)
	}
	path := t.TempDir() + "/p.svg"
	if err := SaveSVG(path, d, SVGOptions{ShowGrid: true, Congestion: true}); err != nil {
		t.Fatalf("SaveSVG: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Error("SVG not written")
	}
}

func TestExtraBaselinesFacade(t *testing.T) {
	d, err := GenerateIBM("ibm06", 0.008, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, bl := range []struct {
		name string
		run  func() BaselineResult
	}{
		{"MinCut", func() BaselineResult { return BaselineMinCut(d, 3) }},
		{"CT", func() BaselineResult { return BaselineCT(d, 4) }},
	} {
		if res := bl.run(); res.HPWL <= 0 {
			t.Errorf("%s HPWL = %v", bl.name, res.HPWL)
		}
	}
}

func TestAgentCheckpointFacade(t *testing.T) {
	d, err := GenerateIBM("ibm01", 0.01, 32)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.MCTS.Workers = 1
	p, err := NewPlacer(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Preprocess(); err != nil {
		t.Fatal(err)
	}
	p.Pretrain()
	want := p.RunMCTS()
	path := t.TempDir() + "/agent.ckpt"
	if err := p.Agent.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAgent(path)
	if err != nil {
		t.Fatal(err)
	}
	// A second placer reuses the checkpoint: the search must produce a
	// legal full allocation without any training.
	p2, err := NewPlacer(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Preprocess(); err != nil {
		t.Fatal(err)
	}
	p2.Agent.CopyWeightsFrom(loaded)
	res := p2.RunMCTS()
	if len(res.Anchors) != len(p2.Shapes) {
		t.Fatalf("anchors = %d, want %d", len(res.Anchors), len(p2.Shapes))
	}
	// Without a trainer the search must still scale rewards to this
	// design's wirelengths: the calibration episodes depend only on the
	// RL seed and the oracle, so the loaded agent searches exactly like
	// the trained one.
	if p2.RewardScaler() != p.RewardScaler() {
		t.Fatalf("loaded placer scaler %+v, trained %+v", p2.RewardScaler(), p.RewardScaler())
	}
	if !reflect.DeepEqual(res.Anchors, want.Anchors) {
		t.Fatalf("loaded-agent search anchors %v, trained placer %v", res.Anchors, want.Anchors)
	}
}
