// Command mctsplace runs one placement job on a Bookshelf .aux file, a
// LEF/DEF pair or a named synthetic benchmark: the paper's full
// MCTS-guided-by-pretrained-RL flow, a portfolio race of several
// backends (-portfolio, DESIGN.md §11), or an ECO re-placement from a
// prior placement under a netlist delta (-eco, DESIGN.md §14). It is a
// thin shim over the daemon's job model: the flags fill a serve.Spec,
// the daemon's admission check (Spec.Validate) vets it, and
// serve.RunDesign — the runner behind every cmd/placed job — runs it,
// so a CLI run and a daemon job of the same spec agree by construction
// (DESIGN.md §10). Only steps with no daemon equivalent live here:
// -delta applied before a from-scratch run, -loadagent/-saveagent, the
// -eco-runs warm-repeat loop, and DEF synthesis for non-DEF inputs.
//
// SIGINT/SIGTERM or -timeout stop the job gracefully: the result is
// still a complete legal placement, marked interrupted. -checkpoint
// saves the search crash-safely after every commit step; -resume
// continues from it.
//
// Usage:
//
//	mctsplace -bench ibm01 -scale 0.05 -episodes 120 -gamma 24
//	mctsplace -aux path/to/ibm01.aux -out placed/ -svg placed.svg
//	mctsplace -bench ibm06 -timeout 2m -checkpoint search.json
//	mctsplace -bench ibm06 -checkpoint search.json -resume
//	mctsplace -bench ibm06 -portfolio mcts,se,mincut -effort 0.2 -race-grace 5s
//	mctsplace -lef tech.lef -def chip.def -halo 1 -channel 2 -snap -defout placed.def
//	mctsplace -bench ibm01 -defout placed.def -dbu 1000   # synthesizes placed.lef too
//	mctsplace -bench ibm01 -saveplacement prior.json
//	mctsplace -bench ibm01 -eco -prior prior.json -delta delta.json -eco-moves 128
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"macroplace"
	"macroplace/internal/eco"
	"macroplace/internal/lefdef"
	"macroplace/internal/mcts"
	"macroplace/internal/netlist"
	"macroplace/internal/netlist/bookshelf"
	"macroplace/internal/obs"
	"macroplace/internal/portfolio"
	"macroplace/internal/serve"
)

// flags is the parsed command line: the job spec's knobs plus the
// CLI's own inputs and outputs.
type flags struct {
	sp                                                  serve.Spec
	aux, lef, def, fence, portfolio, prior, delta, ckpt string
	halo, haloY, channel, channelY                      float64
	ecoMoves, ecoRuns, dbu                              int
	eco, ecoRetrain, resume                             bool
	raceGrace, timeout                                  time.Duration
	defOut, out, svg, saveAgent, loadAgent, savePlace   string
	cpuprofile, memprofile, telemetry, runSummary       string
}

func newFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.aux, "aux", "", "Bookshelf .aux file to place")
	fs.StringVar(&f.sp.Bench, "bench", "", "synthetic benchmark name (ibm01..ibm18, cir1..cir6)")
	fs.StringVar(&f.lef, "lef", "", "LEF library (sites, layers, macro geometry); use with -def")
	fs.StringVar(&f.def, "def", "", "DEF design to place (die area, rows, components, pins, nets); use with -lef")
	fs.StringVar(&f.defOut, "defout", "", "file to write the placed design back as DEF; with -aux/-bench inputs the design is synthesized at -dbu and a sibling .lef is written next to it")
	fs.IntVar(&f.dbu, "dbu", 1000, "DEF database units per micron when -defout synthesizes from a non-DEF input")
	fs.Float64Var(&f.halo, "halo", 0, "per-side macro halo, design units (both axes unless -halo-y is set)")
	fs.Float64Var(&f.haloY, "halo-y", 0, "per-side macro halo on Y (0 = same as -halo)")
	fs.Float64Var(&f.channel, "channel", 0, "minimum macro-to-macro channel (both axes unless -channel-y is set)")
	fs.Float64Var(&f.channelY, "channel-y", 0, "minimum macro channel on Y (0 = same as -channel)")
	fs.StringVar(&f.fence, "fence", "", "fence region \"lx,ly,ux,uy\" confining movable macros (with their halos)")
	fs.BoolVar(&f.sp.Snap, "snap", false, "snap macro origins to the DEF track/row lattice (requires -def)")
	fs.Float64Var(&f.sp.Scale, "scale", 0.05, "synthetic benchmark scale (1 = paper-sized)")
	fs.Int64Var(&f.sp.Seed, "seed", 1, "random seed")
	fs.IntVar(&f.sp.Zeta, "zeta", 16, "grid resolution ζ")
	fs.IntVar(&f.sp.Episodes, "episodes", 120, "RL pre-training episodes")
	fs.IntVar(&f.sp.Gamma, "gamma", 24, "MCTS explorations per macro group")
	fs.IntVar(&f.sp.Workers, "workers", 0, "MCTS tree workers (0 = 1: one worker, deterministic, as for daemon jobs)")
	fs.IntVar(&f.sp.Channels, "channels", 16, "agent tower width (paper: 128)")
	fs.IntVar(&f.sp.ResBlocks, "resblocks", 2, "agent tower depth (paper: 10)")
	fs.StringVar(&f.out, "out", "", "directory to write the placed design as Bookshelf files")
	fs.StringVar(&f.svg, "svg", "", "file to render the final placement as SVG")
	fs.StringVar(&f.saveAgent, "saveagent", "", "file to checkpoint the pre-trained agent to")
	fs.StringVar(&f.loadAgent, "loadagent", "", "agent checkpoint to load (skips RL pre-training)")
	fs.BoolVar(&f.eco, "eco", false, "ECO mode: incrementally re-place from -prior under -delta with a short local-move search instead of the full flow")
	fs.StringVar(&f.prior, "prior", "", "prior placement.json for -eco (from a previous run's -saveplacement, or a daemon job's placement.json)")
	fs.StringVar(&f.delta, "delta", "", "netlist delta JSON (add/drop/reweight nets); applied before the full flow, or searched under in -eco mode")
	fs.IntVar(&f.ecoMoves, "eco-moves", 0, "ECO local-move probe budget (0 = default 128)")
	fs.IntVar(&f.ecoRuns, "eco-runs", 1, "repeat the ECO run this many times against the in-process warm store (later runs skip training and hit the eval cache)")
	fs.BoolVar(&f.ecoRetrain, "eco-retrain", false, "force retraining in ECO mode even when warm state exists (retargets the warm entry's cache)")
	fs.StringVar(&f.savePlace, "saveplacement", "", "file to persist the final movable-macro placement to (the prior a later -eco run consumes)")
	fs.StringVar(&f.portfolio, "portfolio", "", "race these backends instead of running the single flow (comma-separated, or \"all\"); the best legal placement wins")
	fs.Float64Var(&f.sp.Effort, "effort", 0, "portfolio backend budget scale in (0,1] (0 = full budget); refused without -portfolio")
	fs.DurationVar(&f.raceGrace, "race-grace", 0, "cancel race losers this long after the first finisher (0 = run every backend to completion, deterministic)")
	fs.DurationVar(&f.timeout, "timeout", 0, "wall-clock budget; on expiry the job returns its best-so-far placement (0 = none)")
	fs.StringVar(&f.ckpt, "checkpoint", "", "file to save a crash-safe MCTS search snapshot to after every commit step")
	fs.BoolVar(&f.resume, "resume", false, "resume the MCTS stage from the -checkpoint file")
	fs.BoolVar(&f.sp.FreshRoot, "fresh-root", false, "rebuild the search tree after every commit; slower, but makes each step a pure function of the committed prefix, so resuming any checkpoint is bit-identical to the uninterrupted run")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole job to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write an allocation profile to this file on exit")
	fs.StringVar(&f.telemetry, "telemetry-addr", "", "serve /metrics, /healthz and pprof on this address (e.g. :6060; empty = off)")
	fs.StringVar(&f.runSummary, "run-summary", "", "write a JSON metric snapshot to this file at exit (crash-safe, includes interrupted runs)")
	return f
}

// spec fills the job spec from the flags, reading the files they name
// into its inline fields, and vets it with the daemon's admission
// check, so a command line the daemon would refuse fails the same way.
func (f *flags) spec() (serve.Spec, error) {
	sp := f.sp
	sp.RaceGraceMS = f.raceGrace.Milliseconds()
	var err error
	if sp.Phys, err = lefdef.PhysFromKnobs(f.halo, f.haloY, f.channel, f.channelY, f.fence); err != nil {
		return sp, err
	}
	if f.aux != "" {
		if sp.Bookshelf, err = readBookshelf(f.aux); err != nil {
			return sp, err
		}
	}
	if sp.LEF, err = readText(f.lef); err == nil {
		sp.DEF, err = readText(f.def)
	}
	if err != nil {
		return sp, err
	}
	switch {
	case f.portfolio == "all":
		sp.Race = portfolio.Names()
	case f.portfolio != "":
		sp.Race = strings.Split(f.portfolio, ",")
	}
	if f.eco {
		sp.Eco = &serve.EcoSpec{Moves: f.ecoMoves, Retrain: f.ecoRetrain}
		if sp.Eco.Delta, err = f.loadDelta(); err != nil {
			return sp, err
		}
		if f.prior != "" {
			if sp.Eco.Prior, err = eco.ReadPlacementWire(f.prior); err != nil {
				return sp, err
			}
		}
	}
	if f.resume {
		// A stand-in until the checkpoint is read, so Validate refuses a
		// resumed race or ECO job before any file is touched.
		sp.Resume = &mcts.Snapshot{}
	}
	if err := sp.Validate(); err != nil {
		return sp, err
	}
	if f.resume {
		if f.ckpt == "" {
			return sp, errors.New("-resume requires -checkpoint")
		}
		if sp.Resume, err = mcts.LoadSnapshot(f.ckpt); err != nil {
			return sp, fmt.Errorf("resume: %w", err)
		}
	}
	return sp, nil
}

// loadDelta parses the -delta file (eco.Delta wire form); nil without
// one.
func (f *flags) loadDelta() (*eco.Delta, error) {
	if f.delta == "" {
		return nil, nil
	}
	data, err := os.ReadFile(f.delta)
	if err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	var d eco.Delta
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("delta %s: %w", f.delta, err)
	}
	return &d, nil
}

// readBookshelf reads an .aux file and every file it lists into the
// spec's inline upload form (base name → content).
func readBookshelf(aux string) (map[string]string, error) {
	data, err := os.ReadFile(aux)
	if err != nil {
		return nil, err
	}
	files := map[string]string{filepath.Base(aux): string(data)}
	for _, name := range bookshelf.AuxFiles(data) {
		b, err := os.ReadFile(filepath.Join(filepath.Dir(aux), name))
		if err != nil {
			return nil, err
		}
		files[filepath.Base(name)] = string(b)
	}
	return files, nil
}

func readText(path string) (string, error) {
	if path == "" {
		return "", nil
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func main() {
	f := newFlags(flag.CommandLine)
	flag.Parse()

	// The run summary is written atomically on every exit path below.
	runFields := map[string]any{"command": "mctsplace", "interrupted": false}
	writeSummary := func() {
		if f.runSummary == "" {
			return
		}
		if err := macroplace.WriteRunSummary(f.runSummary, runFields); err != nil {
			fmt.Fprintln(os.Stderr, "mctsplace: run-summary:", err)
		}
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "mctsplace:", err)
		runFields["error"] = err.Error()
		writeSummary()
		os.Exit(1)
	}

	if f.telemetry != "" {
		srv, err := macroplace.StartTelemetry(f.telemetry)
		if err != nil {
			fail(err)
		}
		// Bounded graceful drain: an in-flight scrape still completes.
		defer srv.ShutdownTimeout(10 * time.Second)
		fmt.Printf("telemetry: http://%s/metrics\n", srv.Addr)
	}
	if f.cpuprofile != "" {
		stop, err := obs.StartCPUProfile(f.cpuprofile)
		if err != nil {
			fail(err)
		}
		defer stop()
	}
	if f.memprofile != "" {
		defer func() {
			if err := obs.WriteMemProfile(f.memprofile); err != nil {
				fmt.Fprintln(os.Stderr, "mctsplace:", err)
			}
		}()
	}

	// SIGINT/SIGTERM cancel the context and the job degrades gracefully
	// (the anytime property); a second signal force-exits 130.
	ctx, stop := serve.Signals(context.Background(), func() {
		runFields["interrupted"] = true
		runFields["forced"] = true
		writeSummary()
		fmt.Fprintln(os.Stderr, "mctsplace: forced exit")
	})
	defer stop()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}

	sp, err := f.spec()
	if err != nil {
		fail(err)
	}
	agentFiles := f.loadAgent != "" || f.saveAgent != ""
	if agentFiles && (len(sp.Race) > 0 || sp.Eco != nil || f.ckpt != "" || f.resume) {
		fail(errors.New("-loadagent/-saveagent run only the plain single flow (no -portfolio, -eco, -checkpoint or -resume)"))
	}
	// Uploads are staged as the daemon stages them, only while loading.
	dir, err := os.MkdirTemp("", "mctsplace-")
	if err != nil {
		fail(err)
	}
	d, doc, _, err := sp.LoadDesignDoc(dir)
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	runFields["design"] = d.Name
	stats := d.Stats()
	fmt.Printf("design %s: %d movable macros, %d pre-placed, %d pads, %d cells, %d nets\n",
		d.Name, stats.MovableMacros, stats.PreplacedMacro, stats.Pads, stats.Cells, stats.Nets)

	if sp.Eco == nil {
		// From-scratch runs place the post-delta netlist directly, so an
		// ECO result can be compared against a scratch run of the same
		// changed design at equal budget.
		delta, err := f.loadDelta()
		if err != nil {
			fail(err)
		}
		if delta != nil {
			if err := delta.Apply(d); err != nil {
				fail(err)
			}
			fmt.Printf("applied delta: +%d nets, -%d nets, %d reweighted\n",
				len(delta.AddNets), len(delta.DropNets), len(delta.Reweight))
		}
	}

	sinks := serve.Sinks{
		Event: func(typ, data string) { fmt.Fprintf(os.Stderr, "mctsplace: %s %s\n", typ, data) },
		Logf:  func(format string, args ...any) { fmt.Fprintf(os.Stderr, "mctsplace: "+format+"\n", args...) },
	}
	if f.ckpt != "" {
		sinks.Snapshot = func(sn mcts.Snapshot) error { return mcts.SaveSnapshot(f.ckpt, sn) }
	}

	var res *serve.Result
	var placed *netlist.Design
	if agentFiles {
		if res, placed, err = runAgentFiles(ctx, sp, d, f.loadAgent, f.saveAgent); err != nil {
			fail(err)
		}
	} else {
		// -eco-runs repeats an ECO against the process-wide warm store:
		// later runs skip training and must land the identical result.
		runs := 1
		if sp.Eco != nil && f.ecoRuns > 1 {
			runs = f.ecoRuns
			runFields["eco_runs"] = runs
		}
		for i := 1; i <= runs; i++ {
			r, p, err := serve.RunDesign(ctx, sp, d, sinks)
			if err != nil {
				fail(err)
			}
			if sp.Eco != nil {
				fmt.Printf("eco run %d/%d: HPWL %.6g overlap %.6g warm=%v probes=%d commits=%d cache %d hits / %d misses\n",
					i, runs, r.HPWL, r.MacroOverlap, r.EcoWarm, r.MovesProbed, r.MovesCommitted, r.CacheHits, r.CacheMisses)
				if res != nil && r.HPWL != res.HPWL {
					fail(fmt.Errorf("warm eco run %d diverged: HPWL %v != earlier run %v", i, r.HPWL, res.HPWL))
				}
			}
			res, placed = r, p
		}
	}

	// The run summary carries the same wire Result a daemon job
	// persists as result.json, minus the bulky per-group and
	// per-backend arrays.
	data, err := json.Marshal(res)
	if err == nil {
		err = json.Unmarshal(data, &runFields)
	}
	if err != nil {
		fail(err)
	}
	delete(runFields, "anchors")
	delete(runFields, "backends")
	defer writeSummary()
	report(sp, res, placed)

	if f.savePlace != "" {
		if err := eco.WritePlacement(f.savePlace, placed); err != nil {
			fail(err)
		}
		fmt.Printf("saved placement to %s\n", f.savePlace)
	}
	if f.out != "" {
		if err := macroplace.WriteBookshelf(placed, f.out, d.Name); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s/%s.{nodes,nets,pl,scl,aux}\n", f.out, d.Name)
	}
	if f.svg != "" {
		if err := macroplace.SaveSVG(f.svg, placed, macroplace.SVGOptions{ShowGrid: true, Zeta: sp.Options().Zeta}); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", f.svg)
	}
	if f.defOut != "" {
		if err := writeDEFOut(f.defOut, placed, doc, f.lef, f.dbu); err != nil {
			fail(err)
		}
	}
}

// runAgentFiles is the single flow with -loadagent (the flow after
// pre-training, with a pre-trained agent) or -saveagent (keep the
// trained agent). Agent files have no daemon equivalent, so this path
// drives the core flow directly, with the spec's own options; a loaded
// agent reports what the run that saved it reported.
func runAgentFiles(ctx context.Context, sp serve.Spec, d *netlist.Design, load, save string) (*serve.Result, *netlist.Design, error) {
	p, err := macroplace.NewPlacer(d, sp.Options())
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	var res *macroplace.Result
	if load != "" {
		ag, err := macroplace.LoadAgent(load)
		if err != nil {
			return nil, nil, err
		}
		if err := p.Preprocess(); err != nil {
			return nil, nil, err
		}
		got, want := ag.Cfg, p.Agent.Cfg
		got.Seed, want.Seed = 0, 0
		if got != want {
			shape := func(c macroplace.AgentConfig) string {
				return fmt.Sprintf("zeta=%d channels=%d resblocks=%d maxsteps=%d", c.Zeta, c.Channels, c.ResBlocks, c.MaxSteps)
			}
			return nil, nil, fmt.Errorf("agent %s has shape %s, this run needs %s", load, shape(got), shape(want))
		}
		p.Agent.CopyWeightsFrom(ag)
		if res, err = p.PlaceTrainedContext(ctx); err != nil {
			return nil, nil, err
		}
	} else if res, err = p.PlaceContext(ctx); err != nil {
		return nil, nil, err
	}
	if save != "" {
		if err := p.Agent.SaveFile(save); err != nil {
			return nil, nil, err
		}
		fmt.Printf("saved agent checkpoint to %s\n", save)
	}
	return serve.FlowResult(ctx, d.Name, res, start), p.Work, nil
}

// report prints the job's result: the race leaderboard, the ECO or
// single-flow figures, then the placed design's quality and
// constraint audit.
func report(sp serve.Spec, res *serve.Result, placed *netlist.Design) {
	switch {
	case len(sp.Race) > 0:
		for _, o := range res.Backends {
			note := fmt.Sprintf("hpwl=%.6g overlap=%.6g converged=%v", o.HPWL, o.MacroOverlap, o.Converged)
			switch {
			case o.Err != "":
				note = "error: " + o.Err
			case o.Cancelled:
				note += " cancelled (dominated)"
			case o.Interrupted:
				note += " interrupted"
			}
			if o.Backend == res.Winner {
				note += " WINNER"
			}
			fmt.Printf("%-10s %7.2fs %s\n", o.Backend, o.WallSeconds, note)
		}
		fmt.Printf("winner: %s hpwl=%.6g (%d backends, %.2fs)\n", res.Winner, res.HPWL, len(res.Backends), res.WallSeconds)
	case sp.Eco != nil:
		fmt.Printf("ECO HPWL:       %.6g\n", res.HPWL)
		fmt.Printf("macro overlap:  %.6g\n", res.MacroOverlap)
	default:
		fmt.Printf("RL-only HPWL:   %.6g\n", res.RLHPWL)
		fmt.Printf("MCTS HPWL:      %.6g\n", res.HPWL)
		fmt.Printf("macro overlap:  %.6g\n", res.MacroOverlap)
		fmt.Printf("explorations:   %d (eval cache %d hits / %d misses)\n", res.Explorations, res.CacheHits, res.CacheMisses)
	}
	if res.Interrupted {
		fmt.Println("interrupted: reporting the best-so-far placement")
	}
	fmt.Printf("quality:        %s\n", macroplace.MeasureQuality(placed))
	if placed.Phys.Active() {
		fmt.Printf("constraints:    %s\n", placed.ConstraintViolations())
	}
}

// writeDEFOut writes the placed design to path as DEF: into the input
// DEF document for LEF/DEF runs, else as a document plus companion
// .lef synthesized at dbu units per micron. The written file is then
// re-read and its HPWL printed with its exact bit pattern — the value
// any downstream DEF consumer observes.
func writeDEFOut(path string, placed *netlist.Design, doc *lefdef.Document, lefPath string, dbu int) error {
	if doc != nil {
		if err := lefdef.WritePlacedDEF(path, doc, placed); err != nil {
			return err
		}
	} else {
		if dbu < 1 {
			dbu = 1000
		}
		work := placed.Clone()
		if err := lefdef.SnapToDBU(work, dbu); err != nil {
			return err
		}
		sdoc, slef, err := lefdef.Synthesize(work, dbu)
		if err != nil {
			return err
		}
		lefPath = strings.TrimSuffix(path, filepath.Ext(path)) + ".lef"
		if err := lefdef.WriteLEFFile(lefPath, slef); err != nil {
			return err
		}
		if err := lefdef.WriteDEFFile(path, sdoc); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", lefPath)
	}
	rd, _, _, err := lefdef.ReadDesign(lefPath, path)
	if err != nil {
		return fmt.Errorf("re-read written DEF: %w", err)
	}
	h := rd.HPWL()
	fmt.Printf("wrote %s\n", path)
	fmt.Printf("def hpwl:       %.6g (bits %016x)\n", h, math.Float64bits(h))
	return nil
}
