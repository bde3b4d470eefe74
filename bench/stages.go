package main

import (
	"context"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/core"
	"macroplace/internal/gplace"
	"macroplace/internal/legalize"
	"macroplace/internal/mcts"
	"macroplace/internal/rl"
)

// tracedPlacer runs the stages of core.Placer (Algorithm 1) rebuilt
// from the layers' public calls, with a span around each call. At
// Workers=1 it must reproduce core.Placer.PlaceContext bit for bit;
// every traced flow and ingest job checks that against an untraced run
// of the same job.
type tracedPlacer struct {
	p          *core.Placer
	jt         *jobTrace
	ev         *agent.CachedEvaluator // built after training, like core's cache
	searchTime time.Duration          // the last search's wall time
}

// oracle is p.EvalAnchors, timed.
func (t *tracedPlacer) oracle(anchors []int) float64 {
	defer t.jt.leaf("core.oracle", time.Now(), 0)
	return t.p.EvalAnchors(anchors)
}

func (t *tracedPlacer) preprocess() error {
	defer t.jt.begin("core.preprocess")()
	return t.p.Preprocess()
}

// pretrain is core.Placer.PretrainContext: calibration, then the
// training episodes, over the timed oracle.
func (t *tracedPlacer) pretrain(ctx context.Context) {
	defer t.jt.begin("rl.pretrain")()
	p := t.p
	tr := rl.NewTrainer(p.Opts.RL, p.Agent, p.Env.Clone(), t.oracle)
	end := t.jt.begin("rl.calibrate")
	tr.Calibrate()
	end()
	tr.RunContext(ctx)
	p.Trainer = tr
	t.ev = nil
}

// evaluator is the evaluation cache the greedy episode and the search
// share, over the timed inferencer.
func (t *tracedPlacer) evaluator() *agent.CachedEvaluator {
	if t.ev == nil {
		t.ev = agent.NewCachedEvaluatorFor(timedInferencer{t.p.Agent, t.jt}, t.p.Opts.EvalCacheSize)
	}
	return t.ev
}

func (t *tracedPlacer) greedy() []int {
	defer t.jt.begin("rl.greedy")()
	anchors, _ := rl.PlayGreedyEval(t.evaluator(), t.p.Env.Clone(), t.oracle)
	return anchors
}

func (t *tracedPlacer) search(ctx context.Context) mcts.Result {
	defer t.jt.begin("mcts.search")()
	start := time.Now()
	defer func() { t.searchTime = time.Since(start) }()
	p := t.p
	return mcts.New(p.Opts.MCTS, t.evaluator(), t.oracle, p.Trainer.Scaler).RunContext(ctx, p.Env)
}

// finalize is core.Placer.FinalizeContext: macro legalization, then
// the final cell placement on the full netlist.
func (t *tracedPlacer) finalize(ctx context.Context, anchors []int) (core.FinalResult, error) {
	p := t.p
	end := t.jt.begin("legalize.macros")
	res, err := legalize.Macros(legalize.Input{
		Design:     p.Work,
		Clustering: p.Clus,
		Coarse:     p.Coarse,
		Grid:       p.Grid,
		Shapes:     p.Shapes,
		Anchors:    anchors,
	})
	end()
	if err != nil {
		return core.FinalResult{}, err
	}
	end = t.jt.begin("gplace.final")
	gplace.New(p.Work, gplace.Config{Mode: gplace.MoveCells, Iterations: p.Opts.FinalPlaceIterations}).PlaceContext(ctx)
	end()
	return core.FinalResult{HPWL: p.Work.HPWL(), MacroOverlap: res.Overlap, Anchors: append([]int(nil), anchors...)}, nil
}

// place is core.Placer.PlaceContext on a preprocessed placer.
func (t *tracedPlacer) place(ctx context.Context) (*core.Result, error) {
	t.pretrain(ctx)
	rlAnchors := t.greedy()
	rlFinal, err := t.finalize(ctx, rlAnchors)
	if err != nil {
		return nil, err
	}
	search := t.search(ctx)
	final, err := t.finalize(ctx, bestAnchors(t.oracle, search.Anchors, search.BestAnchors, rlAnchors))
	if err != nil {
		return nil, err
	}
	return &core.Result{Final: final, RLFinal: rlFinal, Search: search, History: t.p.Trainer.History}, nil
}

// bestAnchors returns the candidate the oracle scores lowest, keeping
// the earliest on ties and skipping empty candidates — the selection
// core.Placer.PlaceContext makes among the committed search path, the
// best terminal and the greedy-RL allocation.
func bestAnchors(oracle rl.WirelengthFunc, first []int, rest ...[]int) []int {
	best, bestCost := first, oracle(first)
	for _, cand := range rest {
		if len(cand) == 0 {
			continue
		}
		if c := oracle(cand); c < bestCost {
			best, bestCost = cand, c
		}
	}
	return best
}
