package experiments

import (
	"fmt"
	"io"

	"macroplace/internal/core"
	"macroplace/internal/rl"
)

// AlphaPoint is one α setting's outcome.
type AlphaPoint struct {
	Alpha float64
	// MeanReward is the average training reward (the paper wants it
	// "slightly above zero").
	MeanReward float64
	// FinalWL is the final-quarter mean episode wirelength.
	FinalWL float64
	// MCTSWL is the post-optimization wirelength with the trained
	// agent: the better of the committed path and the best terminal
	// (mcts.Result.BestWirelength).
	MCTSWL float64
}

// AlphaSweepResult is the Eq. (9) α study.
type AlphaSweepResult struct {
	Benchmark string
	Points    []AlphaPoint
}

// AlphaSweep sweeps the reward offset α of Eq. (9) across and beyond
// the paper's recommended [0.5, 1] range, training an identical agent
// per setting and recording convergence level plus post-MCTS quality.
// It substantiates the paper's claim that rewards "slightly above
// zero" train best.
func AlphaSweep(cfg Config, alphas []float64) (*AlphaSweepResult, error) {
	cfg = cfg.normalize()
	if len(alphas) == 0 {
		alphas = []float64{0, 0.25, 0.5, 0.75, 1.0, 2.0}
	}
	const benchName = "ibm06"
	res := &AlphaSweepResult{Benchmark: benchName}
	for i, alpha := range alphas {
		if err := cfg.ctx().Err(); err != nil {
			return res, err
		}
		d, err := cfg.ibmDesign(benchName, 300)
		if err != nil {
			return nil, err
		}
		opts := cfg.coreOptions(301)
		opts.RL.Alpha = alpha
		if alpha == 0 {
			// Config.Normalize treats 0 as "use default": emulate a
			// true zero via the no-alpha reward mode.
			opts.RL.Mode = rl.ShapedNoAlpha
		}
		p, err := core.New(d, opts)
		if err != nil {
			return nil, err
		}
		if err := p.Preprocess(); err != nil {
			return nil, err
		}
		tr := p.PretrainContext(cfg.ctx())
		if len(tr.History) == 0 {
			// Cancelled before any episode: the point's means would be
			// 0/0; return what is complete.
			return res, cfg.ctx().Err()
		}
		pt := AlphaPoint{Alpha: alpha}
		n := len(tr.History)
		for _, st := range tr.History {
			pt.MeanReward += st.Reward
		}
		pt.MeanReward /= float64(n)
		for _, st := range tr.History[n*3/4:] {
			pt.FinalWL += st.Wirelength
		}
		pt.FinalWL /= float64(n - n*3/4)
		pt.MCTSWL = p.RunMCTS().BestWirelength
		res.Points = append(res.Points, pt)
		cfg.logf("alpha %v meanReward=%.3f finalWL=%.0f mctsWL=%.0f (%d/%d)",
			alpha, pt.MeanReward, pt.FinalWL, pt.MCTSWL, i+1, len(alphas))
	}
	return res, nil
}

// WriteAlphaSweep renders the sweep.
func WriteAlphaSweep(w io.Writer, r *AlphaSweepResult) {
	fmt.Fprintf(w, "Reward offset α sweep (Eq. 9) on %s — paper range [0.5, 1]\n", r.Benchmark)
	fmt.Fprintf(w, "%-8s %12s %14s %14s\n", "alpha", "meanReward", "final RL WL", "RL+MCTS WL")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-8.2f %12.4f %14.0f %14.0f\n", p.Alpha, p.MeanReward, p.FinalWL, p.MCTSWL)
	}
}
