// Package macroplace is a from-scratch Go reproduction of "Effective
// Macro Placement for Very Large Scale Designs Using MCTS Guided by
// Pre-trained RL" (Lin, Lee, Lin — DATE 2025).
//
// The placer transforms macro placement into a macro-group allocation
// problem on a ζ×ζ grid, pre-trains an Actor–Critic agent to allocate
// the groups, and then runs a PUCT Monte Carlo Tree Search guided by
// that agent to find the final allocation, followed by sequence-pair
// macro legalization and analytical cell placement.
//
// # Quick start
//
//	d, _ := macroplace.GenerateIBM("ibm01", 0.05, 1)  // synthetic ICCAD04-like benchmark
//	res, err := macroplace.Place(d, macroplace.DefaultOptions())
//	if err != nil { ... }
//	fmt.Println("HPWL:", res.Final.HPWL)
//
// The heavy lifting lives in internal packages (netlist model,
// analytical global placement, clustering, a small neural-network
// library, RL, MCTS, legalization, baselines); this package re-exports
// the stable surface a downstream user needs: benchmark generation and
// I/O, the full flow, the individual stages, and the baseline placers
// used in the paper's comparison tables.
package macroplace

import (
	"context"

	"macroplace/internal/agent"
	"macroplace/internal/baseline"
	"macroplace/internal/core"
	"macroplace/internal/gen"
	"macroplace/internal/mcts"
	"macroplace/internal/metrics"
	"macroplace/internal/netlist"
	"macroplace/internal/netlist/bookshelf"
	"macroplace/internal/obs"
	"macroplace/internal/portfolio"
	"macroplace/internal/rl"
	"macroplace/internal/viz"
)

// Design is a circuit netlist plus placement region. See the
// internal/netlist package for the full model.
type Design = netlist.Design

// Options configures the complete placement flow (Algorithm 1).
type Options = core.Options

// Result is the outcome of the complete flow.
type Result = core.Result

// Placer exposes the staged flow: Preprocess → Pretrain → RunMCTS →
// Finalize, or Place for everything at once.
type Placer = core.Placer

// BenchmarkSpec describes a synthetic benchmark for Generate.
type BenchmarkSpec = gen.Spec

// BaselineResult is the outcome of a baseline placer run.
type BaselineResult = baseline.Result

// AgentConfig is the Actor–Critic network shape (Fig. 2 / Table I).
type AgentConfig = agent.Config

// RLConfig tunes the pre-training stage.
type RLConfig = rl.Config

// MCTSConfig tunes the search stage.
type MCTSConfig = mcts.Config

// SearchResult carries the MCTS search statistics.
type SearchResult = mcts.Result

// StageEvent reports a flow stage transition; receive them through
// Options.OnStage to stream live progress (the placed daemon does).
type StageEvent = core.StageEvent

// SearchSnapshot is the resumable progress of an MCTS search, emitted
// through Options.SearchSnapshot after every commit step and consumed
// through Options.SearchResume. Persist with SaveSearchSnapshot.
type SearchSnapshot = mcts.Snapshot

// Agent is the Actor–Critic network guiding the search.
type Agent = agent.Agent

// RLSnapshot is a frozen agent copy taken during training.
type RLSnapshot = rl.Snapshot

// Reward modes for RLConfig.Mode (the Fig. 4 ablation).
const (
	// RewardShaped is Eq. (9) with the α offset (paper default).
	RewardShaped = rl.Shaped
	// RewardShapedNoAlpha is Eq. (9) without α.
	RewardShapedNoAlpha = rl.ShapedNoAlpha
	// RewardNegWL is the intuitive −wirelength reward.
	RewardNegWL = rl.NegWL
)

// GreedyRL plays one deterministic (argmax) episode with ag on p's
// environment and returns the allocation and its fast-oracle
// wirelength — the "RL result" without MCTS. Preprocess (or Place)
// must have run on p.
func GreedyRL(p *Placer, ag *Agent) ([]int, float64) {
	return rl.PlayGreedy(ag, p.Env.Clone(), p.EvalAnchors)
}

// SearchWithAgent runs an MCTS search on p's environment guided by an
// arbitrary agent snapshot (e.g. a partially-trained one), using the
// placer's calibrated reward scaler (Placer.RewardScaler).
func SearchWithAgent(p *Placer, ag *Agent, cfg MCTSConfig) SearchResult {
	return SearchWithAgentContext(context.Background(), p, ag, cfg)
}

// SearchWithAgentContext is SearchWithAgent under a context: on
// cancellation (or deadline expiry) the search commits the remaining
// moves from the statistics gathered so far and returns a complete
// legal allocation with Interrupted set — the anytime property.
func SearchWithAgentContext(ctx context.Context, p *Placer, ag *Agent, cfg MCTSConfig) SearchResult {
	return mcts.New(cfg, ag, p.EvalAnchors, p.RewardScaler()).RunContext(ctx, p.Env)
}

// DefaultOptions returns the flow job every entry point runs by
// default (portfolio.Options.Flow): seed 1, ζ=16, a reduced 16-channel,
// 2-block agent tower, 120 training episodes and 24 explorations per
// macro group on one search worker, so a run is bit-reproducible and
// matches `mctsplace` and a daemon job of the same knobs. For the
// paper-exact network shape set Agent to PaperAgent; for parallel
// search raise MCTS.Workers.
func DefaultOptions() Options {
	return portfolio.Options{}.Flow()
}

// PaperAgent returns the exact Table I network configuration (128
// channels, 10 residual blocks). Training it on CPU is slow; see
// DESIGN.md for the substitution notes.
func PaperAgent(maxSteps int, seed int64) AgentConfig {
	return agent.Paper(maxSteps, seed)
}

// NewPlacer prepares the staged flow on a copy of d.
func NewPlacer(d *Design, opts Options) (*Placer, error) {
	return core.New(d, opts)
}

// Place runs the complete flow — preprocessing, RL pre-training, MCTS
// optimization, macro legalization, and final cell placement — and
// returns the consolidated result.
func Place(d *Design, opts Options) (*Result, error) {
	return PlaceContext(context.Background(), d, opts)
}

// PlaceContext is Place under a context: cancellation (SIGINT, a
// deadline) degrades each stage instead of aborting the flow —
// training stops at the last completed episode, the search commits
// its best-so-far allocation, cell placement keeps its finished
// iterations — so the result is always a complete legal placement.
func PlaceContext(ctx context.Context, d *Design, opts Options) (*Result, error) {
	p, err := core.New(d, opts)
	if err != nil {
		return nil, err
	}
	return p.PlaceContext(ctx)
}

// SaveSearchSnapshot persists a search snapshot with atomic
// replacement (crash-safe: a kill mid-write keeps the previous file).
func SaveSearchSnapshot(path string, sn SearchSnapshot) error {
	return mcts.SaveSnapshot(path, sn)
}

// LoadSearchSnapshot reads a snapshot written by SaveSearchSnapshot.
// Validate it against the flow's environment (Snapshot.Check) before
// resuming from it.
func LoadSearchSnapshot(path string) (*SearchSnapshot, error) {
	return mcts.LoadSnapshot(path)
}

// Generate synthesises a benchmark from an explicit spec.
func Generate(spec BenchmarkSpec) *Design {
	return gen.Generate(spec)
}

// GenerateIBM synthesises an ICCAD04-like benchmark ("ibm01".."ibm18",
// excluding the macro-less ibm05) whose statistics match the paper's
// Table III at the given scale (1 = paper-sized).
func GenerateIBM(name string, scale float64, seed int64) (*Design, error) {
	return gen.IBM(name, scale, seed)
}

// GenerateCir synthesises an industrial-like hierarchical benchmark
// ("cir1".."cir6") matching the paper's Table II statistics.
func GenerateCir(name string, scale float64, seed int64) (*Design, error) {
	return gen.Cir(name, scale, seed)
}

// IBMNames lists the available ICCAD04-like benchmark names in table
// order.
func IBMNames() []string { return gen.IBMNames() }

// CirNames lists the available industrial-like benchmark names.
func CirNames() []string { return gen.CirNames() }

// ReadBookshelf loads a design from a Bookshelf .aux file (the ICCAD04
// distribution format), classifying oversized movable nodes as macros.
func ReadBookshelf(auxPath string) (*Design, error) {
	return bookshelf.ReadAux(auxPath)
}

// WriteBookshelf writes the design as Bookshelf files <base>.* in dir.
func WriteBookshelf(d *Design, dir, base string) error {
	return bookshelf.Write(d, dir, base)
}

// BaselineSE runs the simulated-evolution macro placer (Table II's SE
// column) on a copy of d.
func BaselineSE(d *Design, seed int64) BaselineResult {
	return baseline.SE(d.Clone(), baseline.SEConfig{Seed: seed})
}

// BaselineDreamPlace runs the mixed-size analytical baseline (Table
// II's DREAMPlace column) on a copy of d.
func BaselineDreamPlace(d *Design) BaselineResult {
	return baseline.DreamPlaceLike(d.Clone())
}

// BaselineRePlAce runs the density-driven analytical baseline (Table
// III's RePlAce column) on a copy of d.
func BaselineRePlAce(d *Design) BaselineResult {
	return baseline.RePlAceLike(d.Clone(), baseline.RePlAceConfig{})
}

// BaselineCT runs the per-macro pure-RL baseline (Table III's CT
// column) on a copy of d.
func BaselineCT(d *Design, seed int64) BaselineResult {
	return baseline.CT(d.Clone(), baseline.CTConfig{Seed: seed})
}

// BaselineMaskPlace runs the wiremask baseline (Table III's MaskPlace
// column) on a copy of d.
func BaselineMaskPlace(d *Design, seed int64) BaselineResult {
	return baseline.MaskPlace(d.Clone(), baseline.MaskPlaceConfig{Seed: seed})
}

// QualityReport is a consolidated placement-quality snapshot (HPWL,
// macro overlap, RUDY congestion, region violations).
type QualityReport = metrics.Report

// MeasureQuality computes a quality report for the design's current
// placement.
func MeasureQuality(d *Design) QualityReport {
	return metrics.Measure(d)
}

// SVGOptions controls placement rendering.
type SVGOptions = viz.Options

// SaveSVG renders the design's current placement as an SVG file.
func SaveSVG(path string, d *Design, opts SVGOptions) error {
	return viz.SaveSVG(path, d, opts)
}

// LoadAgent reads a pre-trained agent checkpoint written by
// (*Agent).SaveFile. Install it into a staged flow with
// p.Agent.CopyWeightsFrom(loaded) after Preprocess, provided the
// configurations match.
func LoadAgent(path string) (*Agent, error) {
	return agent.LoadFile(path)
}

// BaselineMinCut runs the classic recursive-bisection (FM min-cut)
// placer on a copy of d.
func BaselineMinCut(d *Design, seed int64) BaselineResult {
	return baseline.MinCut(d.Clone(), baseline.MinCutConfig{Seed: seed})
}

// TelemetryServer is a running telemetry endpoint (see StartTelemetry).
type TelemetryServer = obs.Server

// StartTelemetry serves the process-wide metric registry over HTTP at
// addr (host:port; port 0 picks a free one): /metrics in Prometheus
// text format, /healthz, and the net/http/pprof suite. The search and
// training hot paths only ever write lock-free atomics, so scraping
// mid-run is safe and free of feedback — a Workers=1 search stays
// bit-identical with telemetry on. See DESIGN.md §9 for the metric
// catalogue.
func StartTelemetry(addr string) (*TelemetryServer, error) {
	return obs.Serve(addr, obs.Default)
}

// WriteRunSummary atomically writes a JSON snapshot of every
// process-wide metric, plus caller-supplied run-level fields (design
// name, final HPWL, interruption status, …), to path. Crash-safe: the
// file always holds a complete document.
func WriteRunSummary(path string, run map[string]any) error {
	return obs.WriteSummary(path, run)
}

// PlacerBackend is the unified placement interface every backend —
// the paper's flow and all baselines — implements; see
// internal/portfolio and DESIGN.md §11 for the contract.
type PlacerBackend = portfolio.Placer

// PortfolioOptions are the backend-neutral options a PlacerBackend
// accepts.
type PortfolioOptions = portfolio.Options

// PortfolioIncumbent is one entry of the anytime incumbent stream.
type PortfolioIncumbent = portfolio.Incumbent

// PortfolioResult is one backend's completed placement.
type PortfolioResult = portfolio.Result

// RaceConfig configures a portfolio race; RaceResult is its outcome.
type RaceConfig = portfolio.RaceConfig

// RaceResult is a completed portfolio race.
type RaceResult = portfolio.RaceResult

// PortfolioBackends lists every registered backend name, sorted.
func PortfolioBackends() []string { return portfolio.Names() }

// LookupBackend returns the named backend from the registry.
func LookupBackend(name string) (PlacerBackend, bool) { return portfolio.Lookup(name) }

// RaceBackends runs the named backends concurrently on d under one
// deadline and returns every outcome plus the winner — d is never
// mutated. With cfg.Grace > 0 the backends still running that long
// after the first finisher are cancelled (they commit their anytime
// incumbents); with Grace = 0 the race is a deterministic function of
// its inputs.
func RaceBackends(ctx context.Context, d *Design, cfg RaceConfig) (*RaceResult, error) {
	return portfolio.Race(ctx, d, cfg)
}
