package experiments

import (
	"fmt"
	"io"

	"macroplace/internal/core"
	"macroplace/internal/mcts"
	"macroplace/internal/rl"
)

// Fig4Series is one reward-function curve of Fig. 4.
type Fig4Series struct {
	Mode rl.RewardMode
	// Rewards holds the per-episode reward values (the figure's
	// y-axis); Wirelengths the underlying HPWLs for cross-mode
	// comparison (reward scales differ by design).
	Rewards     []float64
	Wirelengths []float64
}

// Fig4Result carries the three curves of Fig. 4.
type Fig4Result struct {
	Benchmark string
	Series    []Fig4Series
}

// FinalWL returns the mean wirelength over the last quarter of a
// series — the convergence level used when comparing modes.
func (s Fig4Series) FinalWL() float64 {
	n := len(s.Wirelengths)
	if n == 0 {
		return 0
	}
	start := n * 3 / 4
	var sum float64
	for _, w := range s.Wirelengths[start:] {
		sum += w
	}
	return sum / float64(n-start)
}

// MeanReward returns the average reward of the series.
func (s Fig4Series) MeanReward() float64 {
	if len(s.Rewards) == 0 {
		return 0
	}
	var sum float64
	for _, r := range s.Rewards {
		sum += r
	}
	return sum / float64(len(s.Rewards))
}

// Figure4 reproduces the reward-function convergence study of Fig. 4
// on the ibm10-like benchmark: the same initial agent weights are
// trained three times, once per reward mode, and the per-episode
// reward curves are reported.
func Figure4(cfg Config) (*Fig4Result, error) {
	cfg = cfg.normalize()
	const benchName = "ibm10"
	res := &Fig4Result{Benchmark: benchName}
	for _, mode := range []rl.RewardMode{rl.Shaped, rl.ShapedNoAlpha, rl.NegWL} {
		if err := cfg.ctx().Err(); err != nil {
			return res, err
		}
		d, err := cfg.ibmDesign(benchName, 40)
		if err != nil {
			return nil, err
		}
		opts := cfg.coreOptions(41)
		opts.RL.Mode = mode
		p, err := core.New(d, opts)
		if err != nil {
			return nil, err
		}
		if err := p.Preprocess(); err != nil {
			return nil, err
		}
		tr := p.PretrainContext(cfg.ctx())
		s := Fig4Series{Mode: mode}
		for _, st := range tr.History {
			s.Rewards = append(s.Rewards, st.Reward)
			s.Wirelengths = append(s.Wirelengths, st.Wirelength)
		}
		res.Series = append(res.Series, s)
		cfg.logf("fig4 %s mode=%s meanReward=%.3f finalWL=%.0f", benchName, mode, s.MeanReward(), s.FinalWL())
	}
	return res, nil
}

// WriteFig4 renders the curves as aligned columns (episode, reward per
// mode) plus a summary block.
func WriteFig4(w io.Writer, r *Fig4Result) {
	fmt.Fprintf(w, "Figure 4 — RL convergence on %s by reward function\n", r.Benchmark)
	fmt.Fprintf(w, "%-8s", "episode")
	for _, s := range r.Series {
		fmt.Fprintf(w, " %16s", s.Mode)
	}
	fmt.Fprintln(w)
	n := 0
	for _, s := range r.Series {
		if len(s.Rewards) > n {
			n = len(s.Rewards)
		}
	}
	stride := n / 20
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < n; i += stride {
		fmt.Fprintf(w, "%-8d", i+1)
		for _, s := range r.Series {
			if i < len(s.Rewards) {
				fmt.Fprintf(w, " %16.4f", s.Rewards[i])
			} else {
				fmt.Fprintf(w, " %16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "summary (final-quarter mean wirelength; lower is better):")
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %-16s meanReward=%10.4f  finalWL=%12.0f\n", s.Mode, s.MeanReward(), s.FinalWL())
	}
}

// Fig5Point is one training stage of Fig. 5.
type Fig5Point struct {
	Episode    int
	RLReward   float64
	MCTSReward float64
	RLWL       float64
	MCTSWL     float64
}

// Fig5Result is one benchmark's curve pair of Fig. 5.
type Fig5Result struct {
	Benchmark string
	Points    []Fig5Point
}

// Figure5 reproduces the MCTS-rescues-early-agents study of Fig. 5:
// the agent is snapshotted periodically during training; each snapshot
// plays one greedy RL episode and guides one MCTS search, and both
// rewards are recorded. benchmarks defaults to the paper's ibm01 and
// ibm06 when nil.
func Figure5(cfg Config, benchmarks []string) ([]*Fig5Result, error) {
	cfg = cfg.normalize()
	if len(benchmarks) == 0 {
		benchmarks = []string{"ibm01", "ibm06"}
	}
	snapshotEvery := cfg.Episodes / 8
	if snapshotEvery < 1 {
		snapshotEvery = 1
	}
	var out []*Fig5Result
	for bi, bench := range benchmarks {
		if err := cfg.ctx().Err(); err != nil {
			return out, err
		}
		d, err := cfg.ibmDesign(bench, int64(50+bi))
		if err != nil {
			return nil, err
		}
		opts := cfg.coreOptions(int64(51 + bi))
		opts.RL.SnapshotEvery = snapshotEvery
		p, err := core.New(d, opts)
		if err != nil {
			return nil, err
		}
		if err := p.Preprocess(); err != nil {
			return nil, err
		}
		tr := p.PretrainContext(cfg.ctx())

		res := &Fig5Result{Benchmark: bench}
		for _, snap := range tr.Snapshots {
			_, rlWL := rl.PlayGreedy(snap.Agent, p.Env.Clone(), p.EvalAnchors)
			search := mcts.New(opts.MCTS, snap.Agent, p.EvalAnchors, tr.Scaler)
			sres := search.RunContext(cfg.ctx(), p.Env)
			// Match the full flow (core.Place): the better of the
			// committed path and the best terminal evaluated during
			// exploration, which BestWirelength already is.
			mctsWL := sres.BestWirelength
			pt := Fig5Point{
				Episode:    snap.Episode,
				RLReward:   tr.Scaler.Reward(rlWL),
				MCTSReward: tr.Scaler.Reward(mctsWL),
				RLWL:       rlWL,
				MCTSWL:     mctsWL,
			}
			res.Points = append(res.Points, pt)
			cfg.logf("fig5 %s ep=%d rlReward=%.3f mctsReward=%.3f", bench, pt.Episode, pt.RLReward, pt.MCTSReward)
		}
		out = append(out, res)
	}
	return out, nil
}

// WriteFig5 renders the curve pairs.
func WriteFig5(w io.Writer, results []*Fig5Result) {
	for _, r := range results {
		fmt.Fprintf(w, "Figure 5 — rewards of MCTS vs RL across training stages (%s)\n", r.Benchmark)
		fmt.Fprintf(w, "%-10s %12s %12s %14s %14s\n", "episode", "RL reward", "MCTS reward", "RL WL", "MCTS WL")
		for _, p := range r.Points {
			fmt.Fprintf(w, "%-10d %12.4f %12.4f %14.0f %14.0f\n", p.Episode, p.RLReward, p.MCTSReward, p.RLWL, p.MCTSWL)
		}
	}
}
