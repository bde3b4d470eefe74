package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"macroplace/internal/core"
	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/lefdef"
	"macroplace/internal/mcts"
	"macroplace/internal/netlist"
	"macroplace/internal/netlist/bookshelf"
	"macroplace/internal/rl"
	"macroplace/internal/serve"
)

// flowSpec is a job's options as a daemon client would submit them,
// so every library job derives its core.Options the way the CLI and
// the daemon do (serve.Spec.Options).
func flowSpec(seed int64, episodes, gamma, workers int) serve.Spec {
	return serve.Spec{Seed: seed, Episodes: episodes, Gamma: gamma, Workers: workers}
}

// placeResult is the outcome of one complete flow.
type placeResult struct {
	p      *core.Placer
	res    *core.Result
	gp     float64       // HPWL of the initial analytical placement
	search time.Duration // the MCTS stage
}

// place runs the complete flow on d: core.Placer.PlaceContext when
// untraced, the traced rebuild of it otherwise. Preprocessing runs
// first on its own (PlaceContext then skips it), so the initial
// analytical placement's HPWL can be read in between.
func place(ctx context.Context, jt *jobTrace, d *netlist.Design, spec serve.Spec) (placeResult, error) {
	p, err := core.New(d, spec.Options())
	if err != nil {
		return placeResult{}, err
	}
	tp := &tracedPlacer{p: p, jt: jt}
	if jt == nil {
		err = p.Preprocess()
	} else {
		err = tp.preprocess()
	}
	if err != nil {
		return placeResult{}, err
	}
	pr := placeResult{p: p, gp: p.Work.HPWL()}
	if jt == nil {
		pr.res, err = p.PlaceContext(ctx)
		if err == nil {
			pr.search = pr.res.Times.MCTS
		}
	} else {
		pr.res, err = tp.place(ctx)
		pr.search = tp.searchTime
	}
	return pr, err
}

// result turns a finished flow into a jobResult, checking the placed
// design against the conformance rules.
func (pr placeResult) result(kind string, wall time.Duration) (jobResult, error) {
	res := pr.res
	out := jobResult{
		kind:         kind,
		wall:         wall,
		hpwl:         res.Final.HPWL,
		rlHPWL:       res.RLFinal.HPWL,
		gpHPWL:       pr.gp,
		illegal:      overlapExceeds(pr.p.Work, res.Final.MacroOverlap),
		explorations: res.Search.Explorations,
		searchTime:   pr.search,
		counts:       searchCounts(res.Search),
	}
	out.counts.episodes = len(res.History)
	if tr := pr.p.Trainer; tr != nil {
		out.counts.faults = tr.Faults.SkippedEpisodes + tr.Faults.Restores
	}
	return out, checkPlacement(pr.p.Work, res.Final.HPWL, res.Final.MacroOverlap)
}

func searchCounts(s mcts.Result) counters {
	return counters{
		terminalEvals: s.TerminalEvals,
		workerPanics:  s.WorkerPanics,
		cacheHits:     s.CacheHits,
		cacheMisses:   s.CacheMisses,
	}
}

// flowDesigns are the flow workload's designs: the three ICCAD04-style
// benchmarks the ROADMAP's quick preset uses.
var flowDesigns = []string{"ibm01", "ibm03", "ibm06"}

// runFlow: the full Algorithm 1 flow on generated designs. RL
// pre-training dominates the wall time, so this is where pre-training,
// forward/backward and optimizer changes show; at Workers=1 every
// repeat is bit-identical, so it also measures quality at equal budget.
func runFlow(r *runner) error {
	sz := r.p.flow
	q := sz.inputs
	designs := make([][]*netlist.Design, q)
	err := r.setup(func() error {
		for i := range designs {
			designs[i] = make([]*netlist.Design, len(flowDesigns))
			for k, name := range flowDesigns {
				d, err := gen.IBM(name, sz.scale, r.jobSeed(i))
				if err != nil {
					return err
				}
				designs[i][k] = d
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.rounds(flowDesigns, q, true, func(k, round int, jt *jobTrace) (jobResult, error) {
		i := round % q
		spec := flowSpec(r.jobSeed(i), sz.episodes, sz.gamma, 1)
		stop := startJob(jt, "bench.job")
		pr, err := place(r.ctx, jt, designs[i][k], spec)
		wall := stop()
		if err != nil {
			return jobResult{}, err
		}
		return pr.result(flowDesigns[k], wall)
	})
	return nil
}

// Ingest kinds: a Bookshelf design and a LEF/DEF design.
const (
	kindBookshelf = "cir1.bookshelf"
	kindLEFDEF    = "cir3.lefdef"
)

// ingestPhys is the constraint set the LEF/DEF job places under.
var ingestPhys = netlist.Constraints{HaloX: 0.5, HaloY: 0.5, ChannelX: 1, ChannelY: 1}

// ingestFiles are one round's input files.
type ingestFiles struct {
	aux, lef, def string
}

// runIngest: designs arrive as files. Parsing, the coarse and final
// analytical placement and legalization carry the time; network
// inference is a small share — the opposite of the search workload.
func runIngest(r *runner) error {
	sz := r.p.ingest
	q := sz.inputs
	files := make([]ingestFiles, q)
	err := r.setup(func() error {
		for i := range files {
			dir := filepath.Join(r.dir, fmt.Sprintf("input%d", i))
			f, err := writeIngestInputs(dir, sz.scale, r.jobSeed(i))
			if err != nil {
				return err
			}
			files[i] = f
		}
		return nil
	})
	if err != nil {
		return err
	}
	kinds := []string{kindBookshelf, kindLEFDEF}
	r.rounds(kinds, q, true, func(k, round int, jt *jobTrace) (jobResult, error) {
		i := round % q
		spec := flowSpec(r.jobSeed(i), sz.episodes, sz.gamma, 1)
		if kinds[k] == kindBookshelf {
			return bookshelfJob(r.ctx, jt, files[i].aux, spec)
		}
		return lefdefJob(r.ctx, jt, files[i], filepath.Join(r.dir, "placed.def"), spec)
	})
	return nil
}

// writeIngestInputs generates the round's designs and writes them in
// the interchange formats: cir1 as Bookshelf, cir3 as LEF/DEF.
func writeIngestInputs(dir string, scale float64, seed int64) (ingestFiles, error) {
	cir1, err := gen.Cir("cir1", scale, seed)
	if err != nil {
		return ingestFiles{}, err
	}
	if err := bookshelf.Write(cir1, dir, "cir1"); err != nil {
		return ingestFiles{}, err
	}
	cir3, err := gen.Cir("cir3", scale, seed)
	if err != nil {
		return ingestFiles{}, err
	}
	doc, lef, err := lefdef.Synthesize(cir3, 1000)
	if err != nil {
		return ingestFiles{}, err
	}
	f := ingestFiles{
		aux: filepath.Join(dir, "cir1.aux"),
		lef: filepath.Join(dir, "cir3.lef"),
		def: filepath.Join(dir, "cir3.def"),
	}
	if err := lefdef.WriteLEFFile(f.lef, lef); err != nil {
		return ingestFiles{}, err
	}
	return f, lefdef.WriteDEFFile(f.def, doc)
}

func bookshelfJob(ctx context.Context, jt *jobTrace, aux string, spec serve.Spec) (jobResult, error) {
	stop := startJob(jt, "bench.job")
	end := jt.begin("bookshelf.read")
	d, err := bookshelf.ReadAux(aux)
	end()
	if err != nil {
		stop()
		return jobResult{}, err
	}
	pr, err := place(ctx, jt, d, spec)
	wall := stop()
	if err != nil {
		return jobResult{}, err
	}
	return pr.result(kindBookshelf, wall)
}

// lefdefJob parses the LEF/DEF pair, places it under ingestPhys and
// writes the placed DEF to out. Beyond the placement checks, the
// placement must be constraint-clean and the written DEF must re-parse
// to the HPWL of the design it was written from, bit for bit.
func lefdefJob(ctx context.Context, jt *jobTrace, in ingestFiles, out string, spec serve.Spec) (jobResult, error) {
	stop := startJob(jt, "bench.job")
	end := jt.begin("lefdef.parse")
	d, doc, lef, err := readLEFDEF(in.lef, in.def)
	end()
	if err != nil {
		stop()
		return jobResult{}, err
	}
	pr, err := place(ctx, jt, d, spec)
	if err != nil {
		stop()
		return jobResult{}, err
	}
	end = jt.begin("lefdef.emit")
	work := pr.p.Work.Clone()
	err = lefdef.SnapToDBU(work, doc.DBU)
	if err == nil {
		err = lefdef.UpdateFromDesign(doc, work)
	}
	if err == nil {
		err = lefdef.WriteDEFFile(out, doc)
	}
	end()
	wall := stop()
	if err != nil {
		return jobResult{}, err
	}
	res, err := pr.result(kindLEFDEF, wall)
	if err != nil {
		return res, err
	}
	if rep := pr.p.Work.ConstraintViolations(); !rep.Clean() {
		return res, fmt.Errorf("constraint violations: %s", rep)
	}
	rdoc, err := lefdef.ParseDEFFile(out)
	if err != nil {
		return res, fmt.Errorf("re-read placed DEF: %w", err)
	}
	rd, err := lefdef.ToDesign(rdoc, lef)
	if err != nil {
		return res, fmt.Errorf("re-read placed DEF: %w", err)
	}
	if err := sameBits("placed DEF re-read", work.HPWL(), rd.HPWL()); err != nil {
		return res, err
	}
	for _, path := range []string{in.lef, in.def, out} {
		if st, err := os.Stat(path); err == nil {
			res.counts.lefdefBytes += st.Size()
		}
	}
	return res, nil
}

// readLEFDEF parses and converts a LEF/DEF pair and applies the
// ingest constraints.
func readLEFDEF(lefPath, defPath string) (*netlist.Design, *lefdef.Document, *lefdef.LEF, error) {
	lef, err := lefdef.ParseLEFFile(lefPath)
	if err != nil {
		return nil, nil, nil, err
	}
	doc, err := lefdef.ParseDEFFile(defPath)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := lefdef.ToDesign(doc, lef)
	if err != nil {
		return nil, nil, nil, err
	}
	// ApplyPhys clones the knobs it is given.
	if err := lefdef.ApplyPhys(d, &ingestPhys, doc, lef, false); err != nil {
		return nil, nil, nil, err
	}
	return d, doc, lef, nil
}

// searchDesigns are the search workload's designs, ibm01 at twice the
// workload's scale so the two have similar macro-group counts.
var searchDesigns = []struct {
	name  string
	scale float64 // relative to the workload's scale
}{{"ibm04", 1}, {"ibm01", 2}}

// searchDesignSeed fixes the search designs across runs; the run seed
// drives their training and every search. A search job's work is
// explorations × network calls, and explorations scale with the
// design's macro-group count, which varies by ±8% across generator
// seeds (ibm04 at 0.05: 23 to 27 groups) — that would measure the
// designs, not the search.
const searchDesignSeed = 1

// searchState is one search design after set-up: preprocessed and
// pre-trained, with the greedy-RL HPWL the searches are compared with.
type searchState struct {
	p        *core.Placer
	gp       float64 // HPWL of the initial analytical placement
	rlRef    float64
	rlPlaced []geom.Point
}

// runSearch: set-up preprocesses and pre-trains each design once; each
// job is then one MCTS run with a fresh evaluation cache and a new
// search seed, finalized like the flow does. Search and network
// inference carry the time and RL does no work, so search, batching,
// inference and cache changes show here and not in flow.
func runSearch(r *runner) error {
	states := make([]searchState, len(searchDesigns))
	err := r.setup(func() error {
		for k, sd := range searchDesigns {
			st, err := setupSearch(r, sd.name, sd.scale*r.p.search.scale)
			if err != nil {
				return err
			}
			states[k] = st
		}
		return nil
	})
	if err != nil {
		return err
	}
	kinds := make([]string, len(searchDesigns))
	for k, sd := range searchDesigns {
		kinds[k] = sd.name
	}
	r.rounds(kinds, r.p.search.inputs, false, func(k, round int, jt *jobTrace) (jobResult, error) {
		st := states[k]
		p := st.p
		p.Close() // a fresh evaluation cache per job
		p.Opts.MCTS.Seed = r.jobSeed(round)
		// Finalization starts from the current cell positions; every
		// job starts from the greedy-RL placement, as in the full flow.
		p.Work.SetPositions(st.rlPlaced)
		stop := startJob(jt, "bench.job")
		var (
			res    mcts.Result
			final  core.FinalResult
			err    error
			search time.Duration
		)
		if jt == nil {
			res = p.RunMCTSContext(r.ctx)
			search = p.Times().MCTS
			final, err = p.FinalizeContext(r.ctx, bestAnchors(p.EvalAnchors, res.Anchors, res.BestAnchors))
		} else {
			tp := &tracedPlacer{p: p, jt: jt}
			res = tp.search(r.ctx)
			search = tp.searchTime
			final, err = tp.finalize(r.ctx, bestAnchors(tp.oracle, res.Anchors, res.BestAnchors))
		}
		wall := stop()
		if err != nil {
			return jobResult{}, err
		}
		out := jobResult{
			kind:         kinds[k],
			wall:         wall,
			hpwl:         final.HPWL,
			rlHPWL:       st.rlRef,
			gpHPWL:       st.gp,
			illegal:      overlapExceeds(p.Work, final.MacroOverlap),
			explorations: res.Explorations,
			searchTime:   search,
			counts:       searchCounts(res),
		}
		return out, checkPlacement(p.Work, final.HPWL, final.MacroOverlap)
	})
	return nil
}

// setupSearch generates, preprocesses and pre-trains one search design
// (traced under a set-up job in a traced run) and finalizes its greedy
// RL allocation as the reference the searches must beat.
func setupSearch(r *runner, name string, scale float64) (searchState, error) {
	d, err := gen.IBM(name, scale, searchDesignSeed)
	if err != nil {
		return searchState{}, err
	}
	spec := flowSpec(r.jobSeed(0), r.p.search.episodes, r.p.search.gamma, 2)
	p, err := core.New(d, spec.Options())
	if err != nil {
		return searchState{}, err
	}
	var gp float64
	if r.tr == nil {
		if err := p.Preprocess(); err != nil {
			return searchState{}, err
		}
		gp = p.Work.HPWL()
		p.PretrainContext(r.ctx)
	} else {
		tp := &tracedPlacer{p: p, jt: r.tr.job("setup/" + name)}
		if err := tp.preprocess(); err != nil {
			return searchState{}, err
		}
		gp = p.Work.HPWL()
		tp.pretrain(r.ctx)
	}
	anchors, _ := rl.PlayGreedy(p.Agent, p.Env.Clone(), p.EvalAnchors)
	ref, err := p.FinalizeContext(r.ctx, anchors)
	if err != nil {
		return searchState{}, err
	}
	return searchState{p: p, gp: gp, rlRef: ref.HPWL, rlPlaced: p.Work.Positions()}, checkHPWL(ref.HPWL)
}
