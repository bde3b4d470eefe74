// Package portfolio defines the unified placer contract every backend
// in this repository implements — the paper's flow (MCTS guided by
// pre-trained RL) and the five comparison placers alike — plus a
// portfolio racer that runs several backends concurrently under one
// deadline and keeps the best legal placement.
//
// The contract exists because the paper's claim is comparative:
// Table II/III numbers only mean something when every method runs
// under one harness with identical legality checks and metrics. The
// conformance subpackage pins that harness down as executable
// invariants; DESIGN.md §11 documents the contract.
package portfolio

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"macroplace/internal/mcts"
	"macroplace/internal/netlist"
)

// Placer is the unified backend contract. Implementations must be
// safe for concurrent PlaceContext calls on distinct designs (the
// racer runs backends in parallel) and must never mutate the input
// design — they work on a clone.
type Placer interface {
	// Name is the stable registry key ("mcts", "se", ...).
	Name() string
	// Caps describes what the backend guarantees.
	Caps() Caps
	// PlaceContext produces a complete placement of d under opts.
	// Cancellation degrades the run — the backend commits its
	// best-so-far state, finishes legalization, and returns a complete
	// result with Interrupted set — rather than aborting. A non-nil
	// error means no usable placement was produced.
	PlaceContext(ctx context.Context, d *netlist.Design, opts Options) (Result, error)
}

// Caps are a backend's static capability flags.
type Caps struct {
	// Deterministic: a fixed Options.Seed (at Workers <= 1) yields a
	// bit-identical Result.
	Deterministic bool
	// Anytime: cancellation returns a complete legal placement within
	// a bounded grace period instead of an error.
	Anytime bool
	// Streaming: the backend emits intermediate incumbents through
	// Options.OnIncumbent before finishing (every backend emits at
	// least its final result).
	Streaming bool
	// UsesEvaluator: the backend queries an mcts.Evaluator and honors
	// Options.WrapEvaluator — the seam the conformance suite uses for
	// fault injection.
	UsesEvaluator bool
	// Eco: the backend's flow supports ECO incremental re-placement
	// (internal/eco) — a prior placement plus a netlist delta can be
	// re-placed with a short local-move search instead of a scratch
	// run, reusing warm per-design state.
	Eco bool
}

// Options is the backend-independent tuning surface. Zero values
// select each backend's own defaults; Effort scales the backend's
// default search budget (generations, episodes, restarts, ...)
// so one knob trades quality for wall time across the whole portfolio.
type Options struct {
	// Seed drives every random stream (default 1).
	Seed int64
	// Zeta is the grid / candidate resolution backends quantise over
	// (default 16).
	Zeta int
	// Effort multiplies each backend's default budget; 0 means 1.0.
	// Budgets never drop below a small per-backend floor, so Effort
	// 0.01 still produces a complete run.
	Effort float64
	// Workers is the search parallelism for backends that have any
	// (default 1 — the deterministic setting).
	Workers int
	// Channels / ResBlocks shape the network for the learned backends
	// (defaults per backend).
	Channels  int
	ResBlocks int
	// Episodes / Gamma override the RL and MCTS budgets of the mcts
	// backend (0: the backend's Effort-scaled defaults).
	Episodes int
	Gamma    int
	// OnIncumbent receives the backend's anytime incumbent stream.
	// Estimate incumbents carry internal objective values (comparable
	// only within one backend); exact incumbents are full-netlist HPWL
	// of complete legal placements. Adapters guarantee the stream is
	// monotone non-increasing per (backend, Estimate) class. Called
	// synchronously — keep it fast.
	OnIncumbent func(Incumbent)
	// OnStage receives stage transitions for backends that report them.
	OnStage func(StageEvent)
	// WrapEvaluator wraps the network evaluator of backends with
	// Caps.UsesEvaluator — the fault-injection seam. Faults thrown by
	// the wrapper must never escape PlaceContext.
	WrapEvaluator func(mcts.Evaluator) mcts.Evaluator
}

// effort returns the effective budget multiplier.
func (o Options) effort() float64 {
	if o.Effort <= 0 {
		return 1
	}
	return o.Effort
}

// scaleBudget applies the Effort multiplier to a backend's default
// budget with a floor, so tiny efforts still run end to end.
func scaleBudget(base int, effort float64, floor int) int {
	n := int(float64(base) * effort)
	if n < floor {
		n = floor
	}
	return n
}

// Incumbent is one entry of a backend's anytime incumbent stream.
type Incumbent struct {
	// Backend is the emitting backend's name.
	Backend string `json:"backend"`
	// HPWL is the incumbent value. Exact incumbents (Estimate false)
	// are full-netlist HPWL of a complete legal placement and are
	// comparable across backends; estimates are internal objective
	// values comparable only within one backend.
	HPWL float64 `json:"hpwl"`
	// Estimate marks internal-objective values.
	Estimate bool `json:"estimate,omitempty"`
}

// StageEvent is a backend stage transition (Options.OnStage).
type StageEvent struct {
	Backend string
	// Stage names the stage ("preprocess", "pretrain", "search",
	// "finalize" for the mcts backend).
	Stage string
	// Done is false at stage start, true at stage end.
	Done bool
	// Elapsed is the stage wall time (set only when Done).
	Elapsed time.Duration
}

// Result is a completed backend run.
type Result struct {
	// Backend is the producing backend's name.
	Backend string `json:"backend"`
	// HPWL is the final full-netlist half-perimeter wirelength; it
	// equals Placed.HPWL() exactly (a conformance invariant).
	HPWL float64 `json:"hpwl"`
	// MacroOverlap is the residual macro-macro overlap area.
	MacroOverlap float64 `json:"macro_overlap"`
	// Converged reports whether the placement is legal
	// (legalize.Clean): movable-macro overlap within
	// legalize.ConvergenceEps and no physical-constraint violation.
	Converged bool `json:"converged"`
	// Interrupted marks runs degraded by cancellation; the result is
	// still a complete legal placement.
	Interrupted bool `json:"interrupted,omitempty"`
	// Placed is the backend's placed clone of the input design.
	Placed *netlist.Design `json:"-"`
	// Wall is the backend's wall-clock time.
	Wall time.Duration `json:"-"`
}

// --- registry ---

var (
	regMu   sync.RWMutex
	regByID = map[string]Placer{}
)

var nameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Register adds a backend to the portfolio. It panics on a duplicate
// or malformed name — registration is an init-time programming error,
// not a runtime condition.
func Register(p Placer) {
	name := p.Name()
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("portfolio: invalid backend name %q", name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByID[name]; dup {
		panic(fmt.Sprintf("portfolio: backend %q registered twice", name))
	}
	regByID[name] = p
}

// Lookup returns the backend registered under name.
func Lookup(name string) (Placer, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := regByID[name]
	return p, ok
}

// Names returns every registered backend name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(regByID))
	for name := range regByID {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
