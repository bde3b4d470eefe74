// Package core implements the paper's complete placement flow
// (Algorithm 1): preprocessing (grid partition, initial analytical
// placement, clustering, coarsening), RL pre-training, MCTS placement
// optimization, macro legalization, and final cell placement.
//
// The package is the integration point of every substrate in this
// repository; the root macroplace package re-exports a stable facade
// over it.
package core

import (
	"context"
	"fmt"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/cluster"
	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/grid"
	"macroplace/internal/legalize"
	"macroplace/internal/mcts"
	"macroplace/internal/netlist"
	"macroplace/internal/rl"
	"macroplace/internal/rng"
	"macroplace/internal/rowlegal"
)

// Options configures the full flow. Zero values select paper-guided
// defaults scaled to CPU-only execution.
type Options struct {
	// Zeta is the grid resolution ζ (paper: 16).
	Zeta int
	// Agent overrides the network shape; when zero-valued a default
	// shape is derived from Zeta and the episode length.
	Agent agent.Config
	// RL tunes pre-training.
	RL rl.Config
	// MCTS tunes the optimization stage.
	MCTS mcts.Config
	// GroupArea is the area past which clustering stops growing a
	// group (0: one grid's area). A vanishing area keeps every macro
	// in a group of its own, the grouping ablation.
	GroupArea float64
	// FinalPlaceIterations is the outer-iteration budget of the final
	// full-netlist cell placement (the DREAMPlace-substitute call).
	FinalPlaceIterations int
	// ShuffleOrder randomises the macro-group placement order instead
	// of Alg. 1's non-increasing-area order (ablation support).
	ShuffleOrder bool
	// LegalizeCells, when set, snaps standard cells onto rows after
	// the final analytical cell placement (Tetris legalization),
	// yielding a fully legal placement at some wirelength cost.
	LegalizeCells bool
	// EvalCacheSize bounds the LRU evaluation cache that the MCTS and
	// greedy-playout stages share: repeated evaluations of the same
	// placement state (transpositions, the greedy episode's states
	// re-reached by the search) skip the network. 0 selects
	// agent.DefaultCacheSize; negative disables the cache. The cache is
	// built lazily after pre-training and dropped whenever training
	// runs again (cached outputs assume frozen weights).
	EvalCacheSize int
	// Seed drives every random stream in the flow.
	Seed int64
	// SearchSnapshot, when set, receives a progress snapshot after
	// every MCTS commit step; pair with mcts.SaveSnapshot for
	// crash-safe search checkpoints.
	SearchSnapshot func(mcts.Snapshot)
	// SearchResume, when set, resumes the MCTS stage from a previously
	// saved snapshot.
	SearchResume *mcts.Snapshot
	// Logf receives diagnostic lines from the fault-tolerant layers
	// (recovered search panics, trainer watchdog actions). Nil
	// discards them.
	Logf func(format string, args ...any)
	// OnStage, when set, receives a StageEvent as each flow stage
	// starts and finishes, so a serving layer can stream live progress
	// without polling. Called synchronously from the flow goroutine —
	// keep it fast and never let it block on the consumer.
	OnStage func(StageEvent)
	// OnIncumbent, when set, receives the full-netlist HPWL of each
	// complete legal placement PlaceContext materialises along the way
	// (the greedy-RL intermediate, then the final) — the anytime
	// incumbent stream the portfolio racer consumes. Values are exact
	// (each corresponds to a placement that was fully legalized and
	// cell-placed), but not guaranteed monotone; consumers keep the
	// running minimum. Called synchronously from the flow goroutine.
	OnIncumbent func(hpwl float64)
	// WrapEvaluator, when set, wraps the evaluator the greedy episode
	// and the MCTS stage query (after the shared cache, so injected
	// behavior is per-call). It is the fault-injection seam the
	// conformance suite drives with internal/faults; the flow must
	// contain whatever the wrapper throws.
	WrapEvaluator func(mcts.Evaluator) mcts.Evaluator
}

// StageEvent reports a flow stage transition (Options.OnStage).
type StageEvent struct {
	// Stage is "preprocess", "pretrain", "search", or "finalize".
	Stage string
	// Done is false when the stage starts, true when it finishes.
	Done bool
	// Elapsed is the stage wall time (set only when Done).
	Elapsed time.Duration
}

func (o Options) normalize() Options {
	if o.Zeta <= 0 {
		o.Zeta = grid.DefaultZeta
	}
	if o.FinalPlaceIterations <= 0 {
		o.FinalPlaceIterations = 6
	}
	if o.RL.Seed == 0 {
		o.RL.Seed = o.Seed + 1
	}
	if o.MCTS.Seed == 0 {
		o.MCTS.Seed = o.Seed + 2
	}
	return o
}

// StageTimes records wall-clock time per stage.
type StageTimes struct {
	Preprocess time.Duration
	Pretrain   time.Duration
	MCTS       time.Duration
	Finalize   time.Duration
}

// FinalResult is a fully legalized and cell-placed outcome.
type FinalResult struct {
	// HPWL is the half-perimeter wirelength of the full netlist.
	HPWL float64
	// MacroOverlap is the residual macro-macro overlap area.
	MacroOverlap float64
	// Anchors is the macro-group allocation that produced it.
	Anchors []int
	// LegalHPWL is the wirelength after row legalization of the cells
	// (zero unless Options.LegalizeCells is set).
	LegalHPWL float64
	// CellsFailed counts cells the row legalizer could not place.
	CellsFailed int
}

// Result is the outcome of the complete flow.
type Result struct {
	Final FinalResult
	// RLFinal is the greedy-policy result without MCTS (for the
	// paper's RL-vs-MCTS comparisons).
	RLFinal FinalResult
	// Search carries the MCTS statistics.
	Search mcts.Result
	// History is the RL training trace.
	History []rl.EpisodeStat
	Times   StageTimes
}

// Placer orchestrates the flow on one design. Construct with New;
// stages may be run individually (Preprocess → Pretrain → RunMCTS →
// Finalize), all at once with Place, or all after pre-training with
// PlaceTrainedContext.
type Placer struct {
	Opts Options
	// Work is the mutable working copy of the input design; final
	// node positions land here.
	Work *netlist.Design

	Grid   *grid.Grid
	Clus   *cluster.Clustering
	Coarse *cluster.Coarse
	Shapes []grid.Shape
	Env    *grid.Env
	Agent  *agent.Agent

	Trainer *rl.Trainer

	coarsePlacer *gplace.Placer
	// coarseHome is the canonical coarse placement restored before
	// every EvalAnchors call so the oracle is a pure function of the
	// anchors (the B2B linearization depends on its starting point).
	coarseHome []geom.Point
	// baseUtil is the pre-placed-macro utilization map; groupArea is
	// the summed macro-group area. Both feed the oracle's overflow
	// penalty.
	baseUtil  []float64
	groupArea float64
	// utilScratch is reused by EvalAnchors.
	utilScratch []float64
	// evalCache is the shared post-training evaluation cache (see
	// Options.EvalCacheSize); nil until searchEvaluator builds it.
	evalCache *agent.CachedEvaluator
	// calibrated is the reward scaler RewardScaler calibrated for a
	// placer that never pre-trained (nil until first needed).
	calibrated *rl.Scaler
	times      StageTimes
}

// stageStart emits the start event for a stage and returns the
// closure that emits the matching done event. Reading Opts.OnStage at
// call time (not New time) lets callers install observers on an
// already-constructed Placer, mirroring SearchSnapshot.
func (p *Placer) stageStart(name string) func() {
	onStage := p.Opts.OnStage
	if onStage == nil {
		return func() {}
	}
	onStage(StageEvent{Stage: name})
	start := time.Now()
	return func() {
		onStage(StageEvent{Stage: name, Done: true, Elapsed: time.Since(start)})
	}
}

// New clones the design and prepares a placer.
func New(d *netlist.Design, opts Options) (*Placer, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(d.MovableMacroIndices()) == 0 {
		return nil, fmt.Errorf("core: design %q has no movable macros", d.Name)
	}
	return &Placer{Opts: opts.normalize(), Work: d.Clone()}, nil
}

// Preprocess runs Alg. 1 lines 1–2: grid partition, initial analytical
// placement, clustering with Eq. (1)/(2), and coarsened-netlist
// generation. Macro groups come out sorted by non-increasing area, the
// placement order the paper motivates.
func (p *Placer) Preprocess() error {
	start := time.Now()
	defer p.stageStart("preprocess")()
	p.Grid = grid.New(p.Work.Region, p.Opts.Zeta)

	// Initial prototype placement for the clustering distances
	// (paper's [23] reference).
	gplace.InitialPlacement(p.Work)

	gridArea := p.Opts.GroupArea
	if gridArea <= 0 {
		gridArea = p.Grid.CellArea()
	}
	p.Clus = cluster.Build(p.Work, gridArea)
	if len(p.Clus.MacroGroups) == 0 {
		return fmt.Errorf("core: clustering produced no macro groups")
	}
	if p.Opts.ShuffleOrder {
		r := rng.New(p.Opts.Seed).Split("order")
		p.Clus.ReorderMacroGroups(r.Perm(len(p.Clus.MacroGroups)))
	}
	p.Coarse = cluster.Coarsen(p.Work, p.Clus)

	// Active physical constraints (DEF designs, constraint knobs)
	// shape the search space itself: group footprints inflate by the
	// worst-case pad so availability prices halo/channel spacing,
	// pre-placed macros claim their halos, and an explicit fence masks
	// the anchor set. All of it is gated on Phys, so unconstrained
	// flows stay bit-identical.
	phys := p.Work.Phys
	var padX, padY float64
	if phys.Active() {
		padX, padY = phys.MaxPad()
	}
	p.Shapes = make([]grid.Shape, len(p.Clus.MacroGroups))
	for i := range p.Clus.MacroGroups {
		p.Shapes[i] = grid.ShapeOfPadded(p.Grid, &p.Clus.MacroGroups[i], padX, padY)
	}

	// Pre-placed macros seed the utilization map.
	var fixedRects []geom.Rect
	for i := range p.Work.Nodes {
		n := &p.Work.Nodes[i]
		if n.Kind == netlist.Macro && n.Fixed {
			r := n.Rect()
			if phys.Active() {
				px, py := phys.Pad(n.Name)
				r = r.Inflate(px, py)
			}
			fixedRects = append(fixedRects, r)
		}
	}
	p.baseUtil = grid.BaseUtilFromFixed(p.Grid, fixedRects)
	p.Env = grid.NewEnv(p.Grid, p.Shapes, p.baseUtil)
	if phys.Active() && phys.Fence != nil {
		p.Env.SetFence(phys.FenceRect(p.Work.Region))
	}
	p.utilScratch = make([]float64, p.Grid.NumCells())
	for i := range p.Clus.MacroGroups {
		p.groupArea += p.Clus.MacroGroups[i].Area
	}

	// Persistent QP placer over the coarse design for the reward
	// loop: re-places cell groups with macro groups pinned.
	p.coarsePlacer = gplace.New(p.Coarse.Design, gplace.Config{Mode: gplace.MoveCells})
	p.coarseHome = p.Coarse.Design.Positions()

	acfg := p.Opts.Agent
	if acfg.Zeta == 0 && acfg.Channels == 0 {
		acfg = agent.Default(p.Opts.Zeta, len(p.Shapes)+1, p.Opts.Seed+3)
	}
	acfg.Zeta = p.Opts.Zeta
	if acfg.MaxSteps < len(p.Shapes)+1 {
		acfg.MaxSteps = len(p.Shapes) + 1
	}
	p.Agent = agent.New(acfg)
	p.times.Preprocess = time.Since(start)
	obsPreprocess.Observe(p.times.Preprocess)
	return nil
}

// EvalAnchors is the fast wirelength oracle used by both RL training
// and MCTS (Alg. 1 lines 7–8 on the coarsened netlist): macro groups
// are pinned at the centers of their allocated grid blocks, cell
// groups are re-placed by one QP solve, and the weighted HPWL of the
// coarse netlist is returned, charged for grid overflow
// (OverflowCost).
//
// Substitution note (DESIGN.md): the paper runs full macro
// legalization + DREAMPlace here; the coarse QP preserves the ordering
// between allocations at a small fraction of the cost, and the exact
// flow still runs once per candidate in Finalize.
func (p *Placer) EvalAnchors(anchors []int) float64 {
	p.Coarse.Design.SetPositions(p.coarseHome)
	for gi := range p.Clus.MacroGroups {
		c := p.Env.BlockCenter(gi, anchors[gi])
		p.Coarse.Design.Nodes[gi].SetCenter(c.X, c.Y)
	}
	p.coarsePlacer.PlaceQuadraticOnly()
	return p.OverflowCost(p.Coarse.Design.WeightedHPWL(), anchors)
}

// baseEvaluator returns the clean evaluator (shared LRU cache over the
// agent, built lazily so it only ever caches post-training weights;
// the raw agent with EvalCacheSize < 0) without the Options wrapper.
func (p *Placer) baseEvaluator() mcts.Evaluator {
	if p.Opts.EvalCacheSize < 0 {
		return p.Agent
	}
	if p.evalCache == nil {
		p.evalCache = agent.NewCachedEvaluator(p.Agent, p.Opts.EvalCacheSize)
	}
	return p.evalCache
}

// Close drops the evaluation cache. Safe to call multiple times; the
// placer remains usable — the next search rebuilds the cache lazily.
func (p *Placer) Close() {
	p.evalCache = nil
}

// searchEvaluator returns the evaluator the search stages should
// query: the clean base evaluator, wrapped by Options.WrapEvaluator
// when set. The wrapper sits outside the cache so per-call injected
// faults are never cached as truth.
func (p *Placer) searchEvaluator() mcts.Evaluator {
	ev := p.baseEvaluator()
	if p.Opts.WrapEvaluator != nil {
		ev = p.Opts.WrapEvaluator(ev)
	}
	return ev
}

// greedyAnchors plays the greedy policy episode through the (possibly
// wrapped) search evaluator, containing evaluator panics: a panicking
// wrapper fails over to the clean base evaluator, so a faulty network
// path degrades the RL-only answer instead of escaping PlaceContext.
func (p *Placer) greedyAnchors() []int {
	anchors, ok := func() (a []int, ok bool) {
		defer func() {
			if v := recover(); v != nil {
				if p.Opts.Logf != nil {
					p.Opts.Logf("core: greedy episode evaluator panicked (%v); retrying clean", v)
				}
				a, ok = nil, false
			}
		}()
		a, _ = rl.PlayGreedyEval(p.searchEvaluator(), p.Env.Clone(), p.EvalAnchors)
		return a, true
	}()
	if !ok {
		anchors, _ = rl.PlayGreedyEval(p.baseEvaluator(), p.Env.Clone(), p.EvalAnchors)
	}
	return anchors
}

// BaseUtil returns the pre-placed-macro utilization map Preprocess
// computed (read-only; length ζ²). The ECO search builds its policy
// states over it.
func (p *Placer) BaseUtil() []float64 { return p.baseUtil }

// OverflowCost charges the coarse wirelength wl of an allocation for
// its grid-capacity overflow, as EvalAnchors does and the ECO
// local-move search (internal/eco) does for its candidates. The
// paper's per-episode evaluation legalizes macros, so overlapping
// allocations pay their real wirelength cost; the coarse oracle must
// charge them explicitly or the search would happily stack every
// group on one grid.
func (p *Placer) OverflowCost(wl float64, anchors []int) float64 {
	if ratio := p.anchorOverflow(anchors); ratio > 0 {
		// β = 8: a fully-stacked allocation (ratio → 1) must cost
		// several times its raw coarse wirelength, because its
		// legalized reality spreads the macros back across the chip.
		wl *= 1 + 8*ratio
	}
	return wl
}

// anchorOverflow returns the grid-capacity overflow of an allocation
// as a fraction of the total macro-group area: 0 when every grid's
// accumulated utilization (pre-placed macros included) stays <= 1.
func (p *Placer) anchorOverflow(anchors []int) float64 {
	util := p.utilScratch
	copy(util, p.baseUtil)
	zeta := p.Grid.Zeta
	for gi := range p.Shapes {
		s := &p.Shapes[gi]
		gx, gy := p.Grid.Coords(anchors[gi])
		for r := 0; r < s.GH; r++ {
			row := (gy+r)*zeta + gx
			for c := 0; c < s.GW; c++ {
				util[row+c] += s.Util[r*s.GW+c]
			}
		}
	}
	var overflow float64
	for _, u := range util {
		if u > 1 {
			overflow += u - 1
		}
	}
	if p.groupArea <= 0 {
		return 0
	}
	return overflow * p.Grid.CellArea() / p.groupArea
}

// Pretrain runs the RL stage (Alg. 1 lines 3–10) and returns the
// trainer for inspection of history and snapshots.
func (p *Placer) Pretrain() *rl.Trainer {
	return p.PretrainContext(context.Background())
}

// PretrainContext is Pretrain under a context: cancellation stops
// training between episodes, leaving the agent with the last
// completed update — still a usable (if less trained) search guide.
func (p *Placer) PretrainContext(ctx context.Context) *rl.Trainer {
	start := time.Now()
	defer p.stageStart("pretrain")()
	// Training mutates the weights, so any cached evaluations are
	// stale; searchEvaluator rebuilds the cache on next use.
	p.Close()
	p.Trainer = rl.NewTrainer(p.Opts.RL, p.Agent, p.Env.Clone(), p.EvalAnchors)
	p.Trainer.Logf = p.Opts.Logf
	p.Trainer.RunContext(ctx)
	p.times.Pretrain = time.Since(start)
	obsPretrain.Observe(p.times.Pretrain)
	return p.Trainer
}

// RewardScaler returns the reward scaler the search stages use: the
// trainer's after pre-training. A placer whose agent was loaded rather
// than trained calibrates once, on the same random episodes
// PretrainContext plays first (they depend only on the RL seed and the
// oracle), so search rewards are scaled to this design's wirelengths
// either way.
func (p *Placer) RewardScaler() rl.Scaler {
	if p.Trainer != nil {
		return p.Trainer.Scaler
	}
	if p.calibrated == nil {
		tr := rl.NewTrainer(p.Opts.RL, p.Agent, p.Env.Clone(), p.EvalAnchors)
		tr.Calibrate()
		p.calibrated = &tr.Scaler
	}
	return *p.calibrated
}

// RunMCTS runs the optimization stage (Alg. 1 lines 11–15) using the
// current agent weights and the calibrated reward scaler.
func (p *Placer) RunMCTS() mcts.Result {
	return p.RunMCTSContext(context.Background())
}

// RunMCTSContext is RunMCTS under a context: an interrupted search
// still returns a complete allocation (see mcts.RunContext).
func (p *Placer) RunMCTSContext(ctx context.Context) mcts.Result {
	start := time.Now()
	defer p.stageStart("search")()
	s := mcts.New(p.Opts.MCTS, p.searchEvaluator(), p.EvalAnchors, p.RewardScaler())
	s.Logf = p.Opts.Logf
	s.OnSnapshot = p.Opts.SearchSnapshot
	s.Resume = p.Opts.SearchResume
	res := s.RunContext(ctx, p.Env)
	p.times.MCTS = time.Since(start)
	obsSearch.Observe(time.Since(start))
	return res
}

// Finalize turns a macro-group allocation into a legal full placement
// (Alg. 1 lines 15–16): macro legalization per Sec. II-B, then the
// final cell placement on the complete netlist.
func (p *Placer) Finalize(anchors []int) (FinalResult, error) {
	return p.FinalizeContext(context.Background(), anchors)
}

// FinalizeContext is Finalize under a context: macro legalization
// always completes (macro legality is non-negotiable), while the
// final cell placement commits whatever iterations it finished — a
// coarser but complete cell placement.
func (p *Placer) FinalizeContext(ctx context.Context, anchors []int) (FinalResult, error) {
	start := time.Now()
	defer p.stageStart("finalize")()
	res, err := legalize.Macros(legalize.Input{
		Design:     p.Work,
		Clustering: p.Clus,
		Coarse:     p.Coarse,
		Grid:       p.Grid,
		Shapes:     p.Shapes,
		Anchors:    anchors,
	})
	if err != nil {
		return FinalResult{}, err
	}
	gplace.New(p.Work, gplace.Config{
		Mode:       gplace.MoveCells,
		Iterations: p.Opts.FinalPlaceIterations,
	}).PlaceContext(ctx)
	out := FinalResult{
		HPWL:         p.Work.HPWL(),
		MacroOverlap: res.Overlap,
		Anchors:      append([]int(nil), anchors...),
	}
	if p.Opts.LegalizeCells {
		lres, lerr := rowlegal.Legalize(p.Work)
		if lerr != nil {
			return FinalResult{}, lerr
		}
		dres := rowlegal.OptimizeDetailed(p.Work)
		out.LegalHPWL = dres.HPWLAfter
		out.CellsFailed = lres.Failed
	}
	p.times.Finalize += time.Since(start)
	obsFinalize.Observe(time.Since(start))
	return out, nil
}

// Place runs the complete flow and returns the consolidated result.
func (p *Placer) Place() (*Result, error) {
	return p.PlaceContext(context.Background())
}

// PlaceContext is Place under a context. Cancellation degrades the
// flow instead of aborting it: training stops at the last completed
// episode, the search commits its best-so-far allocation, and cell
// placement keeps its finished iterations — the returned result is
// always a complete legal placement. Only a cancellation arriving
// before preprocessing yields an error-free but effectively untrained
// flow, which is still well-defined (greedy over the fresh network).
func (p *Placer) PlaceContext(ctx context.Context) (*Result, error) {
	if p.Env == nil {
		if err := p.Preprocess(); err != nil {
			return nil, err
		}
	}
	p.PretrainContext(ctx)
	return p.PlaceTrainedContext(ctx)
}

// PlaceTrainedContext is PlaceContext after pre-training, on a
// preprocessed placer whose agent holds its weights already (trained
// by PretrainContext, or copied from a checkpoint): the greedy
// episode and its RL-only finalize, the search, the selection among
// its candidates and the final finalize. A loaded agent thus ships
// what the trained one would. Result.History is the trainer's, empty
// when the placer never pre-trained.
func (p *Placer) PlaceTrainedContext(ctx context.Context) (*Result, error) {
	// RL-only result (greedy policy), for the comparisons of Fig. 5.
	// Routed through the shared evaluation cache: the search's root
	// explores the same opening states the greedy episode visits, so
	// priming the cache here guarantees hits in RunMCTS below.
	rlAnchors := p.greedyAnchors()
	rlFinal, err := p.FinalizeContext(ctx, rlAnchors)
	if err != nil {
		return nil, err
	}
	if p.Opts.OnIncumbent != nil {
		p.Opts.OnIncumbent(rlFinal.HPWL)
	}

	search := p.RunMCTSContext(ctx)
	// Candidate selection under the fast oracle: the committed search
	// path, the best terminal evaluated during exploration, and the
	// greedy-RL allocation (the search should never ship something
	// worse than the policy it was guided by); a tie keeps the earlier.
	anchors := search.Anchors
	bestCost := p.EvalAnchors(anchors)
	for _, cand := range [][]int{search.BestAnchors, rlAnchors} {
		if len(cand) == 0 {
			continue
		}
		if c := p.EvalAnchors(cand); c < bestCost {
			bestCost = c
			anchors = cand
		}
	}
	final, err := p.FinalizeContext(ctx, anchors)
	if err != nil {
		return nil, err
	}
	if p.Opts.OnIncumbent != nil {
		p.Opts.OnIncumbent(final.HPWL)
	}

	res := &Result{Final: final, RLFinal: rlFinal, Search: search, Times: p.times}
	if p.Trainer != nil {
		res.History = p.Trainer.History
	}
	return res, nil
}

// Times returns per-stage wall-clock durations accumulated so far.
func (p *Placer) Times() StageTimes { return p.times }
