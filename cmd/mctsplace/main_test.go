package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"macroplace/internal/serve"
)

// parseSpec runs a command line through the CLI's flag set and spec
// builder, as main does.
func parseSpec(t *testing.T, cmdline string) (serve.Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("mctsplace", flag.ContinueOnError)
	f := newFlags(fs)
	if err := fs.Parse(strings.Fields(cmdline)); err != nil {
		t.Fatalf("parse %q: %v", cmdline, err)
	}
	return f.spec()
}

// daemonSpec decodes a job spec exactly as the daemon's submit handler
// receives it.
func daemonSpec(t *testing.T, body string) serve.Spec {
	t.Helper()
	var sp serve.Spec
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return sp
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func quote(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSmokeCommandLinesBuildDaemonSpecs pins the CLI-to-Spec mapping:
// every mctsplace command line the smoke scripts run fills exactly the
// Spec a daemon client would submit as JSON for the same job, so the
// two entry points run one job model.
func TestSmokeCommandLinesBuildDaemonSpecs(t *testing.T) {
	dir := t.TempDir()
	prior := filepath.Join(dir, "prior.json")
	priorJSON := `{"m0":[10.5,20],"m1":[30,40.25]}`
	writeFile(t, prior, `{"design":"ibm01","macros":`+priorJSON+`}`)
	delta := filepath.Join(dir, "delta.json")
	deltaJSON := `{"add_nets":[{"name":"eco_smoke0","weight":2,"pins":[{"node":"m0"},{"node":"m1"}]}],"reweight":{"n0":3}}`
	writeFile(t, delta, deltaJSON)
	lef := filepath.Join("..", "..", "internal", "lefdef", "testdata", "small.lef")
	def := filepath.Join("..", "..", "internal", "lefdef", "testdata", "small.def")
	lefText, err := os.ReadFile(lef)
	if err != nil {
		t.Fatal(err)
	}
	defText, err := os.ReadFile(def)
	if err != nil {
		t.Fatal(err)
	}

	common := "-bench ibm01 -scale 0.02 -seed 2 -zeta 8 -workers 1 -channels 4 -resblocks 1"
	commonJSON := `"bench":"ibm01","scale":0.02,"seed":2,"zeta":8,"workers":1,"channels":4,"resblocks":1`
	tiny := "-seed 2 -zeta 8 -episodes 4 -gamma 2 -workers 1 -channels 4 -resblocks 1"
	tinyJSON := `"seed":2,"zeta":8,"episodes":4,"gamma":2,"workers":1,"channels":4,"resblocks":1`
	for _, tc := range []struct{ script, cmdline, spec string }{
		{"placed_smoke.sh",
			"-bench ibm01 -scale 0.01 -zeta 8 -episodes 4 -gamma 2 -channels 4 -resblocks 1 -seed 42 -workers 1",
			`{"bench":"ibm01","scale":0.01,"zeta":8,"episodes":4,"gamma":2,"channels":4,"resblocks":1,"seed":42,"workers":1}`},
		{"portfolio_smoke.sh",
			"-bench ibm01 -scale 0.01 -portfolio mincut,maskplace,se -effort 0.05 -seed 7 -zeta 8 -episodes 8 -gamma 2 -workers 1 -channels 4 -resblocks 1",
			`{"bench":"ibm01","scale":0.01,"race":["mincut","maskplace","se"],"effort":0.05,"seed":7,"zeta":8,"episodes":8,"gamma":2,"workers":1,"channels":4,"resblocks":1}`},
		{"eco_smoke.sh (full)",
			common + " -episodes 24 -gamma 8 -saveplacement " + prior,
			`{` + commonJSON + `,"episodes":24,"gamma":8}`},
		// The scratch run's -delta is applied to the loaded design before
		// the run; the daemon has no equivalent, so it is not in the spec.
		{"eco_smoke.sh (scratch)",
			common + " -episodes 4 -gamma 2 -delta " + delta,
			`{` + commonJSON + `,"episodes":4,"gamma":2}`},
		{"eco_smoke.sh (eco)",
			common + " -episodes 4 -gamma 2 -eco -prior " + prior + " -delta " + delta + " -eco-moves 64 -eco-runs 2",
			`{` + commonJSON + `,"episodes":4,"gamma":2,"eco":{"prior":` + priorJSON + `,"delta":` + deltaJSON + `,"moves":64}}`},
		{"fleet_smoke.sh",
			"-fresh-root -bench ibm01 -scale 0.05 -zeta 32 -episodes 20 -gamma 96 -channels 4 -resblocks 1 -seed 7 -workers 1",
			`{"bench":"ibm01","scale":0.05,"zeta":32,"episodes":20,"gamma":96,"channels":4,"resblocks":1,"seed":7,"workers":1,"fresh_root":true}`},
		// -scale keeps its flag default on LEF/DEF inputs, where it has
		// no effect.
		{"lefdef_smoke.sh",
			"-lef " + lef + " -def " + def + " -halo 1 -channel 2 -fence 2,2,62,98 -snap " + tiny,
			`{"lef":` + quote(t, string(lefText)) + `,"def":` + quote(t, string(defText)) + `,"scale":0.05,` + tinyJSON +
				`,"phys":{"halo_x":1,"halo_y":1,"channel_x":2,"channel_y":2,"fence":{"Lx":2,"Ly":2,"Ux":62,"Uy":98}},"snap":true}`},
	} {
		got, err := parseSpec(t, tc.cmdline)
		if err != nil {
			t.Errorf("%s: %v", tc.script, err)
			continue
		}
		if want := daemonSpec(t, tc.spec); !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			t.Errorf("%s: CLI spec\n  %s\nwant daemon spec\n  %s", tc.script, g, tc.spec)
		}
	}
}

// TestWorkersDefaultIsSequential pins the one -workers rule: the flag's
// 0 default leaves Spec.Workers unset, which every job class runs as a
// single deterministic tree worker — as it does for daemon jobs.
func TestWorkersDefaultIsSequential(t *testing.T) {
	for _, cmdline := range []string{"-bench ibm01", "-bench ibm01 -portfolio mcts"} {
		sp, err := parseSpec(t, cmdline)
		if err != nil {
			t.Fatalf("%s: %v", cmdline, err)
		}
		if sp.Workers != 0 {
			t.Errorf("%s: Spec.Workers = %d, want 0 (unset)", cmdline, sp.Workers)
		}
		if w := sp.Options().MCTS.Workers; w != 1 {
			t.Errorf("%s: flow workers = %d, want 1", cmdline, w)
		}
		if w := sp.PortfolioOptions().Flow().MCTS.Workers; w != 1 {
			t.Errorf("%s: race's mcts backend workers = %d, want 1", cmdline, w)
		}
	}
}

// TestConflictingModesRefusedLikeTheDaemon: command lines that combine
// job classes the daemon refuses fail with the daemon's own message
// instead of silently running one class and ignoring the other flag;
// so do a network too large to allocate and -effort without a race.
func TestConflictingModesRefusedLikeTheDaemon(t *testing.T) {
	dir := t.TempDir()
	prior := filepath.Join(dir, "p.json")
	writeFile(t, prior, `{"design":"ibm01","macros":{"m0":[1,2]}}`)
	for _, tc := range []struct{ cmdline, spec string }{
		{"-bench ibm01 -portfolio mcts -eco -prior " + prior,
			`{"bench":"ibm01","race":["mcts"],"eco":{"prior":{"m0":[1,2]}}}`},
		{"-bench ibm01 -portfolio mcts -resume",
			`{"bench":"ibm01","race":["mcts"],"resume":{}}`},
		{"-bench ibm01 -eco -prior " + prior + " -resume",
			`{"bench":"ibm01","eco":{"prior":{"m0":[1,2]}},"resume":{}}`},
		{"-bench ibm01 -zeta 128", `{"bench":"ibm01","zeta":128}`},
		{"-bench ibm01 -effort 0.1", `{"bench":"ibm01","effort":0.1}`},
	} {
		_, err := parseSpec(t, tc.cmdline)
		want := daemonSpec(t, tc.spec).Validate()
		if want == nil {
			t.Fatalf("daemon accepts %s", tc.spec)
		}
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: error %v, want the daemon's %q", tc.cmdline, err, want)
		}
	}
	if _, err := parseSpec(t, "-bench ibm01 -resume"); err == nil || err.Error() != "-resume requires -checkpoint" {
		t.Errorf("-resume without -checkpoint: error %v", err)
	}
}

// agentRun runs cmdline's flow as a -loadagent/-saveagent run does.
func agentRun(t *testing.T, cmdline, load, save string) (*serve.Result, error) {
	t.Helper()
	sp, err := parseSpec(t, cmdline)
	if err != nil {
		t.Fatal(err)
	}
	d, _, _, err := sp.LoadDesignDoc(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runAgentFiles(context.Background(), sp, d, load, save)
	return res, err
}

// TestLoadAgentRefusesOtherShape: a checkpoint whose network shape
// differs from the run's — a wider tower, or a design with one more
// macro group and so one more position-embedding row — is an error
// naming both shapes, not a search on a prefix of every weight slice.
func TestLoadAgentRefusesOtherShape(t *testing.T) {
	const budget = " -scale 0.02 -seed 2 -zeta 8 -episodes 4 -gamma 2 -workers 1 -resblocks 1"
	ckpt := filepath.Join(t.TempDir(), "ibm01.ckpt")
	if _, err := agentRun(t, "-bench ibm01 -channels 4"+budget, "", ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := agentRun(t, "-bench ibm01 -channels 4"+budget, ckpt, ""); err != nil {
		t.Fatalf("same shape: %v", err)
	}
	for _, cmdline := range []string{"-bench ibm01 -channels 8" + budget, "-bench ibm03 -channels 4" + budget} {
		_, err := agentRun(t, cmdline, ckpt, "")
		if err == nil || !strings.Contains(err.Error(), "channels=4") || !strings.Contains(err.Error(), "this run needs") {
			t.Errorf("%s: error %v, want one naming both shapes", cmdline, err)
		}
	}
}

// TestSaveAgentReportsCacheCounters: an agent-file run reports its
// search's evaluation-cache counters, as a daemon job does.
func TestSaveAgentReportsCacheCounters(t *testing.T) {
	res, err := agentRun(t, "-bench ibm01 -scale 0.02 -seed 2 -zeta 8 -episodes 4 -gamma 2 -workers 1 -channels 4 -resblocks 1",
		"", filepath.Join(t.TempDir(), "a.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses == 0 {
		t.Errorf("eval cache %d hits / %d misses, want misses > 0", res.CacheHits, res.CacheMisses)
	}
}

// TestLoadAgentShipsWhatTheFlowShips: a -loadagent run plays the flow
// after pre-training with the saved weights, so it reports the saving
// run's HPWL and RL-only HPWL bit for bit. It used to finalize the
// committed search path alone and report that HPWL as both.
func TestLoadAgentShipsWhatTheFlowShips(t *testing.T) {
	const cmdline = "-bench ibm03 -scale 0.02 -seed 5 -zeta 8 -episodes 20 -gamma 8 -workers 1 -channels 8 -resblocks 1"
	ckpt := filepath.Join(t.TempDir(), "ibm03.ckpt")
	saved, err := agentRun(t, cmdline, "", ckpt)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := agentRun(t, cmdline, ckpt, "")
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(loaded.HPWL) != math.Float64bits(saved.HPWL) ||
		math.Float64bits(loaded.RLHPWL) != math.Float64bits(saved.RLHPWL) {
		t.Errorf("loaded agent: HPWL %v, RL-only %v; the saving run: %v, %v",
			loaded.HPWL, loaded.RLHPWL, saved.HPWL, saved.RLHPWL)
	}
}
