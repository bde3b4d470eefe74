package experiments

import (
	"fmt"
	"io"
	"time"

	"macroplace/internal/core"
	"macroplace/internal/mcts"
	"macroplace/internal/netlist"
)

// AblationRow is one configuration's outcome in an ablation study.
type AblationRow struct {
	Name string
	HPWL float64
	// Steps is the episode length (macro groups to place) — the
	// search-space depth the grouping ablation measures.
	Steps int
	// TerminalEvals counts real placement evaluations during MCTS.
	TerminalEvals int
	// Duration is the wall-clock of the varied stage.
	Duration time.Duration
}

// AblationResult is a titled list of rows.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// WriteAblation renders an ablation table.
func WriteAblation(w io.Writer, r *AblationResult) {
	fmt.Fprintln(w, r.Title)
	fmt.Fprintf(w, "%-28s %12s %8s %10s %12s\n", "config", "HPWL", "steps", "termEvals", "duration")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-28s %12.4g %8d %10d %12s\n",
			row.Name, row.HPWL, row.Steps, row.TerminalEvals, row.Duration.Round(time.Millisecond))
	}
}

func ablationDesign(cfg Config) (*netlist.Design, error) {
	// ibm10 is the macro-richest mid-size benchmark (786 at full
	// scale): grouping decisions actually matter on it.
	return cfg.ibmDesign("ibm10", 200)
}

// AblationGrouping compares the paper's macro-group allocation against
// per-macro allocation (grouping disabled): search-space depth and
// final HPWL.
func AblationGrouping(cfg Config) (*AblationResult, error) {
	cfg = cfg.normalize()
	res := &AblationResult{Title: "Ablation — macro grouping vs per-macro actions"}
	// A coarse grid makes grids larger than typical macros so the
	// grouping arm actually merges; at ζ=16 most macros exceed one
	// grid and both arms would degenerate to singletons.
	cfg.Zeta = 8
	for _, grouped := range []bool{true, false} {
		if err := cfg.ctx().Err(); err != nil {
			return res, err
		}
		d, err := ablationDesign(cfg)
		if err != nil {
			return nil, err
		}
		opts := cfg.coreOptions(201)
		name := "grouped (paper)"
		if !grouped {
			name = "per-macro"
			// A vanishing group area makes every pair merge-ineligible,
			// so each macro stays a singleton group.
			opts.GroupArea = 1e-9
		}
		p, err := core.New(d, opts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		r, err := p.Place()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:          name,
			HPWL:          r.Final.HPWL,
			Steps:         len(p.Shapes),
			TerminalEvals: r.Search.TerminalEvals,
			Duration:      time.Since(start),
		})
		cfg.logf("ablation grouping %s HPWL=%.4g steps=%d", name, r.Final.HPWL, len(p.Shapes))
	}
	return res, nil
}

// AblationRollout compares value-network evaluation (the paper's
// method) against traditional random rollouts in MCTS: quality, real
// placement evaluations, and runtime.
func AblationRollout(cfg Config) (*AblationResult, error) {
	cfg = cfg.normalize()
	res := &AblationResult{Title: "Ablation — MCTS evaluation: value network vs random rollout"}
	d, err := ablationDesign(cfg)
	if err != nil {
		return nil, err
	}
	opts := cfg.coreOptions(210)
	p, err := core.New(d, opts)
	if err != nil {
		return nil, err
	}
	if err := p.Preprocess(); err != nil {
		return nil, err
	}
	p.PretrainContext(cfg.ctx())
	for _, mode := range []mcts.EvalMode{mcts.ValueNet, mcts.Rollout} {
		if err := cfg.ctx().Err(); err != nil {
			return res, err
		}
		name := "value-net (paper)"
		if mode == mcts.Rollout {
			name = "random rollout"
		}
		p.Opts.MCTS.Mode = mode
		start := time.Now()
		search := p.RunMCTS()
		final, err := p.Finalize(search.Anchors)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:          name,
			HPWL:          final.HPWL,
			Steps:         len(p.Shapes),
			TerminalEvals: search.TerminalEvals,
			Duration:      time.Since(start),
		})
		cfg.logf("ablation rollout %s HPWL=%.4g evals=%d", name, final.HPWL, search.TerminalEvals)
	}
	return res, nil
}

// AblationPUCT sweeps the PUCT constant c of Eq. (11) around the
// paper's 1.05.
func AblationPUCT(cfg Config) (*AblationResult, error) {
	cfg = cfg.normalize()
	res := &AblationResult{Title: "Ablation — PUCT exploration constant c (paper: 1.05)"}
	d, err := ablationDesign(cfg)
	if err != nil {
		return nil, err
	}
	opts := cfg.coreOptions(220)
	p, err := core.New(d, opts)
	if err != nil {
		return nil, err
	}
	if err := p.Preprocess(); err != nil {
		return nil, err
	}
	p.PretrainContext(cfg.ctx())
	for _, c := range []float64{0.3, 1.05, 2.0, 4.0} {
		if err := cfg.ctx().Err(); err != nil {
			return res, err
		}
		p.Opts.MCTS.C = c
		start := time.Now()
		search := p.RunMCTS()
		final, err := p.Finalize(search.Anchors)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:          fmt.Sprintf("c=%.2f", c),
			HPWL:          final.HPWL,
			Steps:         len(p.Shapes),
			TerminalEvals: search.TerminalEvals,
			Duration:      time.Since(start),
		})
		cfg.logf("ablation puct c=%.2f HPWL=%.4g", c, final.HPWL)
	}
	return res, nil
}

// AblationOrder compares Alg. 1's non-increasing-area placement order
// with a shuffled order.
func AblationOrder(cfg Config) (*AblationResult, error) {
	cfg = cfg.normalize()
	res := &AblationResult{Title: "Ablation — placement order: area-sorted (paper) vs shuffled"}
	for _, shuffle := range []bool{false, true} {
		if err := cfg.ctx().Err(); err != nil {
			return res, err
		}
		d, err := ablationDesign(cfg)
		if err != nil {
			return nil, err
		}
		opts := cfg.coreOptions(230)
		opts.ShuffleOrder = shuffle
		name := "area-sorted (paper)"
		if shuffle {
			name = "shuffled"
		}
		p, err := core.New(d, opts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		r, err := p.Place()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:          name,
			HPWL:          r.Final.HPWL,
			Steps:         len(p.Shapes),
			TerminalEvals: r.Search.TerminalEvals,
			Duration:      time.Since(start),
		})
		cfg.logf("ablation order %s HPWL=%.4g", name, r.Final.HPWL)
	}
	return res, nil
}
