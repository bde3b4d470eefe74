// Package experiments regenerates every table and figure of the
// paper's evaluation (Sec. VI) on the synthetic benchmark suites:
//
//	Figure4  — RL convergence under the three reward functions
//	Figure5  — MCTS vs RL reward across training stages
//	TableII  — SE / DREAMPlace-like / ours on the industrial suite
//	TableIII — CT / MaskPlace / RePlAce-like / ours on ICCAD04
//	TableIV  — MCTS runtime per benchmark
//
// plus the ablations DESIGN.md calls out (grouping, rollout-vs-value,
// PUCT constant, placement order). Every driver takes a Config whose
// Scale field shrinks the benchmarks; Scale=1 reproduces paper-sized
// instances (on a 2-CPU host, one ibm01 flow at the standard budget
// took about 40 s, and Table III on ibm01 and ibm06 about 10 min), the
// Quick preset finishes in minutes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"macroplace/internal/core"
	"macroplace/internal/gen"
	"macroplace/internal/netlist"
	"macroplace/internal/portfolio"
)

func pow(x, y float64) float64 { return math.Pow(x, y) }

// Config scales the experiment suite.
type Config struct {
	// Scale multiplies benchmark node/net counts (1 = paper-sized).
	Scale float64
	// Zeta is the grid resolution ζ.
	Zeta int
	// Episodes is the RL pre-training budget per benchmark.
	Episodes int
	// Gamma is the MCTS exploration budget per macro group.
	Gamma int
	// Workers is the MCTS tree worker count. It defaults to 1 rather
	// than all CPUs: the committed EXPERIMENTS.md numbers must be
	// bit-reproducible, which only a one-worker search guarantees. Set
	// >1 (or pass -workers to cmd/experiments) to trade
	// reproducibility for wall-clock speed.
	Workers int
	// SweepWorkers is the number of independent benchmarks the table
	// sweeps (TableII/III/IV) run concurrently through the serving
	// scheduler; 0 defaults to Workers. Unlike Workers it never
	// affects the numbers: every benchmark keeps its own seeds
	// (c.Seed+seedOffset) and logs into a private buffer flushed in
	// benchmark order, so the rendered tables and the log stream are
	// bit-identical to the sequential sweep (pinned by a golden test).
	SweepWorkers int
	// Channels / ResBlocks set the agent tower size.
	Channels, ResBlocks int
	// Seed drives all randomness.
	Seed int64
	// IBM restricts Table III/IV to these benchmarks (nil: all 17).
	IBM []string
	// Cir restricts Table II to these benchmarks (nil: all 6).
	Cir []string
	// ExtendedBaselines adds the beyond-paper FM min-cut column to
	// Table II.
	ExtendedBaselines bool
	// Log receives progress lines (nil: silent).
	Log io.Writer
	// Context, when non-nil, makes the drivers interruptible: it is
	// checked between benchmarks and threaded into each benchmark's
	// flow. On cancellation a driver returns the rows completed so far
	// together with the context's error, so partial results can still
	// be rendered and saved.
	Context context.Context
}

// Quick returns a configuration sized for CI: tiny benchmarks, short
// training, small tower. The paper's qualitative shape (who wins)
// already shows at this scale.
func Quick() Config {
	return Config{
		Scale:    0.01,
		Zeta:     8,
		Episodes: 40,
		Gamma:    12,
		Channels: 8, ResBlocks: 1,
		Seed: 20250706,
		IBM:  []string{"ibm01", "ibm06", "ibm10"},
		Cir:  []string{"cir1", "cir3", "cir6"},
	}
}

// Standard returns the configuration used for the committed
// EXPERIMENTS.md numbers: mid-sized benchmarks, enough training for
// the curves to separate.
func Standard() Config {
	return Config{
		Scale:    0.05,
		Zeta:     16,
		Episodes: 120,
		Gamma:    24,
		Channels: 16, ResBlocks: 2,
		Seed: 20250706,
	}
}

func (c Config) normalize() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Zeta <= 0 {
		c.Zeta = 16
	}
	if c.Episodes <= 0 {
		c.Episodes = 120
	}
	if c.Gamma <= 0 {
		c.Gamma = 24
	}
	if c.Channels <= 0 {
		c.Channels = 16
	}
	if c.ResBlocks <= 0 {
		c.ResBlocks = 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = c.Workers
	}
	if len(c.IBM) == 0 {
		c.IBM = gen.IBMNames()
	}
	if len(c.Cir) == 0 {
		c.Cir = gen.CirNames()
	}
	return c
}

// ctx returns the configured context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// coreOptions derives the flow options for one benchmark run: the
// flow job portfolio.Options.Flow derives, seeded at c.Seed+seedOffset.
// The committed tables were recorded with the training and search
// streams at seed+200 and seed+300, where a flow job uses seed+1 and
// seed+2, so they stay there until the tables are re-run.
func (c Config) coreOptions(seedOffset int64) core.Options {
	seed := c.Seed + seedOffset
	opts := portfolio.Options{
		Seed: seed, Zeta: c.Zeta, Episodes: c.Episodes, Gamma: c.Gamma,
		Workers: c.Workers, Channels: c.Channels, ResBlocks: c.ResBlocks,
	}.Flow()
	opts.RL.Seed, opts.MCTS.Seed = seed+200, seed+300
	return opts
}

// ibmDesign generates one ICCAD04-like benchmark at the configured
// scale.
func (c Config) ibmDesign(name string, seedOffset int64) (*netlist.Design, error) {
	return gen.IBM(name, c.Scale, c.Seed+seedOffset)
}

// cirDesign generates one industrial-like benchmark.
func (c Config) cirDesign(name string, seedOffset int64) (*netlist.Design, error) {
	return gen.Cir(name, c.Scale, c.Seed+seedOffset)
}

// geomean returns the geometric mean of positive values (used for the
// normalised rows of Tables II/III).
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	prod := 1.0
	for _, v := range vals {
		prod *= v
	}
	// n-th root via successive halving-free approach: use math.Pow.
	return pow(prod, 1/float64(len(vals)))
}
