package eco

import (
	"context"
	"fmt"
	"math"

	"macroplace/internal/agent"
	"macroplace/internal/core"
	"macroplace/internal/geom"
	"macroplace/internal/mcts"
	"macroplace/internal/netlist"
	"macroplace/internal/rl"
)

// Config tunes one ECO run.
type Config struct {
	// Core carries the full-flow options: grid resolution, network
	// shape, the RL budget a *cold* start trains with, and the seeds.
	// The warm-store key mixes the training-relevant fields in, so
	// runs with different recipes never share state.
	Core core.Options
	// Moves is the probe budget of the local-move search: the number
	// of candidate move/swap evaluations (default DefaultMoves).
	Moves int
	// Retrain forces training even when warm state exists; the warm
	// entry's persistent cache is retargeted to the new weights
	// (stale entries become unreachable via the fingerprint salt).
	Retrain bool
	// Warm, when non-nil, is consulted before training and updated
	// after. Nil runs cold and keeps nothing.
	Warm *WarmStore
	// Logf receives diagnostic lines. Nil discards them.
	Logf func(format string, args ...any)
}

// DefaultMoves is the probe budget when Config.Moves <= 0.
const DefaultMoves = 128

// Result is the outcome of an ECO run.
type Result struct {
	// HPWL is the final full-netlist wirelength (exact, legalized
	// macros + placed cells), and Anchors the allocation behind it.
	HPWL         float64
	MacroOverlap float64
	Anchors      []int
	// PriorCost and BestCost are coarse-oracle costs of the prior
	// allocation and the search's best (BestCost <= PriorCost always:
	// the prior is the incumbent the search starts from).
	PriorCost, BestCost float64
	// MovesProbed counts candidate evaluations, MovesCommitted the
	// strict improvements taken.
	MovesProbed, MovesCommitted int
	// CacheHits/CacheMisses are this run's evaluation-cache deltas; a
	// warm repeat of the same delta reports hits > 0.
	CacheHits, CacheMisses uint64
	// Warm reports whether per-design state was reused (no training).
	Warm bool
	// Macros holds the winning placement's movable-macro centers in
	// wire form (name → [x, y]) — what a chained ECO consumes as its
	// prior.
	Macros map[string][2]float64
	// Placed is the winning fully-placed design (macros legalized,
	// cells placed) — what DEF emission and constraint audits consume.
	Placed *netlist.Design
}

// Run re-places base under delta starting from prior: apply the delta
// to a clone, obtain a trained agent + evaluation cache + reward
// scaler (from cfg.Warm when the design is known, by training
// otherwise), derive the prior's macro-group anchors, and spend
// cfg.Moves probes on a PUCT-guided local-move search (single-group
// grid shifts and pairwise anchor swaps, scored by incremental coarse
// HPWL times the standard overflow penalty). The best allocation —
// never worse than the prior under the coarse oracle — is finalized
// exactly; when the search moved away from the prior, the prior is
// finalized too and the better exact result wins, so an ECO can only
// lose to its own prior through the finalizer, never the search.
//
// prior maps movable-macro names to their placed centers (the
// placement.json a full job persists). Every movable macro of the
// post-delta design must appear.
func Run(ctx context.Context, base *netlist.Design, prior map[string]geom.Point, delta *Delta, cfg Config) (*Result, error) {
	d := base.Clone()
	if err := delta.Apply(d); err != nil {
		return nil, err
	}
	for _, mi := range d.MovableMacroIndices() {
		if _, ok := prior[d.Nodes[mi].Name]; !ok {
			return nil, fmt.Errorf("eco: prior placement missing movable macro %q", d.Nodes[mi].Name)
		}
	}

	p, err := core.New(d, cfg.Core)
	if err != nil {
		return nil, err
	}
	if err := p.Preprocess(); err != nil {
		return nil, err
	}
	defer p.Close()
	obsRuns.Inc()

	key := warmKey(d, p.Opts)
	evaluator, scaler, warm, release := warmState(ctx, p, key, cfg)
	defer release()
	if warm {
		obsWarmRuns.Inc()
	}
	hits0, misses0 := evaluator.Stats()

	res := &Result{Warm: warm}
	priorAnchors := anchorsFromPrior(p, prior)
	best := searchLocalMoves(ctx, p, evaluator, scaler, priorAnchors, cfg, res)

	// Exact finalization; the prior acts as incumbent end to end.
	if !anchorsEqual(best, priorAnchors) {
		pf, err := p.FinalizeContext(ctx, priorAnchors)
		if err != nil {
			return nil, err
		}
		res.HPWL, res.MacroOverlap, res.Anchors = pf.HPWL, pf.MacroOverlap, pf.Anchors
		res.Macros = SnapshotPlacement(p.Work).Macros
		res.Placed = p.Work.Clone()
	}
	bf, err := p.FinalizeContext(ctx, best)
	if err != nil {
		return nil, err
	}
	if res.Anchors == nil || bf.HPWL < res.HPWL {
		res.HPWL, res.MacroOverlap, res.Anchors = bf.HPWL, bf.MacroOverlap, bf.Anchors
		res.Macros = SnapshotPlacement(p.Work).Macros
		res.Placed = p.Work.Clone()
	}

	hits, misses := evaluator.Stats()
	res.CacheHits, res.CacheMisses = hits-hits0, misses-misses0
	return res, nil
}

// warmKey mixes the post-delta design's structural hash with every
// configuration word that changes what the warm state would be.
func warmKey(d *netlist.Design, opts core.Options) uint64 {
	return Key(d.ContentHash(),
		uint64(opts.Zeta),
		uint64(opts.Agent.Channels),
		uint64(opts.Agent.ResBlocks),
		uint64(opts.Agent.Seed),
		uint64(opts.RL.Episodes),
		uint64(opts.RL.UpdateEvery),
		uint64(opts.RL.CalibrationEpisodes),
		math.Float64bits(opts.RL.Alpha),
		uint64(opts.RL.Mode),
		math.Float64bits(opts.RL.LR),
		math.Float64bits(opts.RL.EntropyCoef),
		uint64(opts.RL.Seed),
		uint64(opts.Seed),
	)
}

// warmState resolves the evaluator/scaler pair: a warm-store entry
// when one exists for key (training only if cfg.Retrain demands it), a
// fresh training run otherwise. The caller must invoke the returned
// release when the run is over — it drops the read lock that keeps a
// concurrent retrain from retargeting the cache mid-search.
func warmState(ctx context.Context, p *core.Placer, key uint64, cfg Config) (*agent.CachedEvaluator, rl.Scaler, bool, func()) {
	if cfg.Warm != nil {
		if e, ok := cfg.Warm.Lookup(key); ok {
			if cfg.Retrain {
				trainer := p.PretrainContext(ctx)
				e.mu.Lock()
				e.retrain(p.Agent, trainer.Scaler)
				e.mu.Unlock()
			}
			e.mu.RLock()
			return e.Cache, e.Scaler, !cfg.Retrain, e.mu.RUnlock
		}
	}
	trainer := p.PretrainContext(ctx)
	cache := agent.NewCachedEvaluator(p.Agent, cfg.Core.EvalCacheSize)
	if cfg.Warm != nil {
		e := &Entry{
			Agent:  p.Agent,
			Cache:  cache,
			Scaler: trainer.Scaler,
			FP:     p.Agent.Fingerprint(),
		}
		e.mu.RLock()
		cfg.Warm.Store(key, e)
		return cache, trainer.Scaler, false, e.mu.RUnlock
	}
	return cache, trainer.Scaler, false, func() {}
}

// anchorsFromPrior maps each macro group to the grid anchor whose
// block center is nearest the area-weighted centroid of the group's
// macros in the prior placement, clamped so the footprint fits. The
// prior re-validates against the design's active constraints here:
// an anchor the environment rejects (a fence the prior placement
// predates, say) is moved to the nearest legal anchor before the
// search starts, so the incumbent itself is constraint-clean.
func anchorsFromPrior(p *core.Placer, prior map[string]geom.Point) []int {
	g := p.Grid
	anchors := make([]int, len(p.Clus.MacroGroups))
	for gi := range p.Clus.MacroGroups {
		grp := &p.Clus.MacroGroups[gi]
		var cx, cy, area float64
		for _, m := range grp.Members {
			n := &p.Work.Nodes[m]
			pos, ok := prior[n.Name]
			if !ok {
				continue // fixed member; its position is already baked into baseUtil
			}
			a := n.Area()
			if a <= 0 {
				a = 1
			}
			cx += pos.X * a
			cy += pos.Y * a
			area += a
		}
		if area > 0 {
			cx /= area
			cy /= area
		} else {
			cx = (g.Region.Lx + g.Region.Ux) / 2
			cy = (g.Region.Ly + g.Region.Uy) / 2
		}
		s := &p.Shapes[gi]
		gx := clampGrid(int(math.Round((cx-g.Region.Lx)/g.CellW-float64(s.GW)/2)), g.Zeta-s.GW)
		gy := clampGrid(int(math.Round((cy-g.Region.Ly)/g.CellH-float64(s.GH)/2)), g.Zeta-s.GH)
		anchors[gi] = nearestFit(p, gi, g.Index(gx, gy))
	}
	return anchors
}

// nearestFit returns anchor when the environment accepts it for group
// gi, otherwise the accepted anchor with the smallest grid distance
// (deterministic tie-break: lowest flat index). When no anchor fits —
// an over-tight fence the environment already falls back from — the
// original anchor stands and the legalizer clamps later.
func nearestFit(p *core.Placer, gi, anchor int) int {
	if p.Env.FitsAt(gi, anchor) {
		return anchor
	}
	g := p.Grid
	ax, ay := g.Coords(anchor)
	best, bestDist := -1, 0
	for idx := 0; idx < g.NumCells(); idx++ {
		if !p.Env.FitsAt(gi, idx) {
			continue
		}
		gx, gy := g.Coords(idx)
		dist := abs(gx-ax) + abs(gy-ay)
		if best < 0 || dist < bestDist {
			best, bestDist = idx, dist
		}
	}
	if best < 0 {
		return anchor
	}
	return best
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func clampGrid(v, max int) int {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

// move is one local action: group gi re-anchored to anchor; when
// gj >= 0 it is a swap and gj simultaneously takes anchorJ.
type move struct {
	gi, anchor  int
	gj, anchorJ int
}

// searchLocalMoves runs the budgeted PUCT bandit over the local-move
// menu at the incumbent allocation. Probes are exact under the coarse
// model: group centers move on an incremental-HPWL evaluator over the
// coarse design (cell groups frozen at the prior allocation's QP
// solution) and pay the overflow penalty EvalAnchors charges
// (core.Placer.OverflowCost). A strict improvement commits,
// re-anchoring the bandit; all other probes revert. Returns the
// incumbent after the budget (never worse than prior under this
// model).
func searchLocalMoves(ctx context.Context, p *core.Placer, evaluator *agent.CachedEvaluator, scaler rl.Scaler, prior []int, cfg Config, res *Result) []int {
	budget := cfg.Moves
	if budget <= 0 {
		budget = DefaultMoves
	}

	// EvalAnchors pins groups at their block centers and QP-places the
	// cell groups; the incremental evaluator then owns the coarse
	// design's positions for the whole search.
	p.EvalAnchors(prior)
	ev := netlist.NewIncrementalHPWL(p.Coarse.Design)

	cur := append([]int(nil), prior...)
	cost := func(anchors []int) float64 {
		return p.OverflowCost(ev.Total(), anchors)
	}
	place := func(gi, anchor int) {
		ctr := p.Env.BlockCenter(gi, anchor)
		ev.MoveCenter(gi, ctr.X, ctr.Y)
	}
	curCost := cost(cur)
	res.PriorCost = curCost

	var (
		moves  []move
		priors []float64
		visits []int
		values []float64
	)
	rebuild := func() {
		moves = enumerateMoves(p, cur, moves[:0])
		priors = movePriors(p, evaluator, cur, moves, priors[:0])
		visits = make([]int, len(moves))
		values = make([]float64, len(moves))
	}
	rebuild()

	scratch := make([]int, len(cur))
	for probed := 0; probed < budget && len(moves) > 0; probed++ {
		if ctx.Err() != nil {
			break
		}
		k := mcts.SelectPUCT(mcts.DefaultC, scaler.Reward(curCost), priors, visits, values, nil, 0)
		if k < 0 {
			break
		}
		m := moves[k]
		cand := append(scratch[:0], cur...)
		cand[m.gi] = m.anchor
		place(m.gi, m.anchor)
		if m.gj >= 0 {
			cand[m.gj] = m.anchorJ
			place(m.gj, m.anchorJ)
		}
		candCost := cost(cand)
		res.MovesProbed++
		obsMovesProbed.Inc()
		visits[k]++
		values[k] += scaler.Reward(candCost)
		if candCost < curCost {
			copy(cur, cand)
			curCost = candCost
			res.MovesCommitted++
			obsMovesCommitted.Inc()
			rebuild()
			continue
		}
		// Revert the probe.
		place(m.gi, cur[m.gi])
		if m.gj >= 0 {
			place(m.gj, cur[m.gj])
		}
	}
	res.BestCost = curCost
	if cfg.Logf != nil {
		cfg.Logf("eco: %d probes, %d commits, coarse cost %.6g -> %.6g",
			res.MovesProbed, res.MovesCommitted, res.PriorCost, res.BestCost)
	}
	return cur
}

// enumerateMoves lists the legal local moves at cur: four single-grid
// shifts per group plus every pairwise anchor swap whose footprints
// fit at each other's anchors. Legality is the environment's own
// FitsAt — partition bounds plus the active fence — so under a fenced
// design the move menu never offers an anchor the full flow's search
// would refuse (previously only the grid bounds were checked and an
// ECO could walk a group out of its fence).
func enumerateMoves(p *core.Placer, cur []int, out []move) []move {
	g := p.Grid
	fits := p.Env.FitsAt
	for gi := range cur {
		gx, gy := g.Coords(cur[gi])
		for _, dxy := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := gx+dxy[0], gy+dxy[1]
			if nx < 0 || ny < 0 {
				continue
			}
			a := g.Index(nx, ny)
			if fits(gi, a) {
				out = append(out, move{gi: gi, anchor: a, gj: -1})
			}
		}
	}
	for gi := 0; gi < len(cur); gi++ {
		for gj := gi + 1; gj < len(cur); gj++ {
			if cur[gi] == cur[gj] {
				continue
			}
			if fits(gi, cur[gj]) && fits(gj, cur[gi]) {
				out = append(out, move{gi: gi, anchor: cur[gj], gj: gj, anchorJ: cur[gi]})
			}
		}
	}
	return out
}

// movePriors derives PUCT priors for the move menu from the policy
// network: one evaluation per group — state ⟨s_p without group g,
// availability of g's shape under it (Eq. (4) as the environment
// computes it, fence included), t = g⟩ — looked up in the shared cache
// (deterministic states, so a warm repeat of the same delta replays
// these as hits). A shift move's prior is the policy mass at its
// target anchor; a swap averages the two groups' masses at each
// other's anchors. Floored and normalised to a distribution.
func movePriors(p *core.Placer, evaluator *agent.CachedEvaluator, cur []int, moves []move, out []float64) []float64 {
	in := make([]agent.BatchInput, len(cur))
	for gi := range cur {
		sp := spWithout(p, cur, gi)
		in[gi] = agent.BatchInput{SP: sp, SA: p.Env.GroupAvailInto(nil, gi, sp), T: gi}
	}
	outs := make([]agent.Output, len(in))
	evaluator.EvaluateBatchInto(in, outs)

	const floor = 1e-6
	var sum float64
	for _, m := range moves {
		pr := float64(outs[m.gi].Probs[m.anchor])
		if m.gj >= 0 {
			pr = 0.5 * (pr + float64(outs[m.gj].Probs[m.anchorJ]))
		}
		pr += floor
		out = append(out, pr)
		sum += pr
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// spWithout builds the utilization map of every group except gi (at
// their cur anchors) over the pre-placed-macro base utilization —
// the state the policy sees when asked where group gi belongs.
func spWithout(p *core.Placer, cur []int, gi int) []float64 {
	sp := append([]float64(nil), p.BaseUtil()...)
	for gj := range cur {
		if gj != gi {
			p.Grid.AddShape(sp, &p.Shapes[gj], cur[gj])
		}
	}
	return sp
}

func anchorsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
