// Package mcts implements the placement-optimization stage of the
// paper (Sec. IV): a Monte Carlo Tree Search over macro-group
// allocations, guided by the pre-trained Actor–Critic agent. Selection
// follows PUCT (Eqs. 10–11), expansion initialises edge priors from
// π_θ, evaluation uses v_θ at non-terminal nodes (the paper's key
// runtime reduction — real placements run only at terminal nodes), and
// backpropagation updates N/W/Q along the path (Eq. 12).
//
// Every search runs one worker loop: Config.Workers workers descend one
// shared tree under per-node mutexes, in-flight paths are discouraged
// by virtual loss, and each worker evaluates the leaf it claimed
// itself, so network passes of different workers overlap. Worker 0 runs
// on the calling goroutine, so a one-worker search spawns nothing and
// is bit-reproducible for a fixed seed. See parallel.go and DESIGN.md
// §"Parallel search".
package mcts

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"macroplace/internal/agent"
	"macroplace/internal/grid"
	"macroplace/internal/rl"
)

// Evaluator is the pre-trained network the search queries: each worker
// evaluates the leaf it claimed through EvaluateBatchInto with a
// one-state batch and its own buffers, so implementations must be safe
// for concurrent use. *agent.Agent and *agent.CachedEvaluator implement
// it; internal/faults wraps one to inject evaluator failures for the
// recovery tests.
type Evaluator = agent.Inferencer

// EvalMode selects how non-terminal nodes are evaluated.
type EvalMode int

// Evaluation modes.
const (
	// ValueNet uses v_θ from the pre-trained agent (the paper's
	// method).
	ValueNet EvalMode = iota
	// Rollout plays random actions to a terminal state and evaluates
	// the real placement — the traditional MCTS baseline the paper
	// argues against (ablation support).
	Rollout
)

// Config tunes the search.
type Config struct {
	// Gamma is the number of explorations before committing each
	// macro group (the paper's γ).
	Gamma int
	// C is the PUCT exploration constant (0: DefaultC).
	C float64
	// Mode selects non-terminal evaluation.
	Mode EvalMode
	// Seed drives rollout randomness (Rollout mode only).
	Seed int64
	// Workers is the number of exploration workers. 0 selects
	// runtime.NumCPU(). Worker 0 runs on the calling goroutine, so
	// Workers=1 spawns no goroutine and is bit-reproducible for a fixed
	// seed (the goldens in parallel_test.go pin it). Workers>1 is
	// tree-parallel with virtual loss: the result is a legal allocation
	// of statistically equivalent quality, but not bit-reproducible
	// across runs (goroutine scheduling decides which leaves are in
	// flight together). The effective count is capped at Gamma — more
	// workers than explorations per commit can never be busy at once.
	Workers int
	// FreshRoot discards the inherited subtree after every commit, so
	// each step's decision is a pure function of the committed prefix
	// (plus the frozen evaluator) instead of also depending on the
	// statistics accumulated during earlier steps. This makes a
	// snapshot resume bit-identical to the uninterrupted run at
	// Workers=1 with ValueNet evaluation — the property checkpoint
	// migration in the placement fleet relies on (a job killed on one
	// worker and resumed from its search.ckpt on another lands the
	// same final placement). The cost is losing the inter-step
	// statistics reuse, which the default mode keeps.
	FreshRoot bool
}

// DefaultC is the paper's PUCT exploration constant c of Eq. (11).
const DefaultC = 1.05

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.Gamma <= 0 {
		c.Gamma = 40
	}
	if c.C <= 0 {
		c.C = DefaultC
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// Result is the outcome of a search.
type Result struct {
	// Anchors is the allocation obtained by tracing the committed
	// search path (Alg. 1 line 15).
	Anchors []int
	// Wirelength is the evaluated wirelength of Anchors.
	Wirelength float64
	// Reward is the scaled reward of Anchors.
	Reward float64
	// BestAnchors / BestWirelength track the best terminal state seen
	// during exploration (may beat the committed path).
	BestAnchors    []int
	BestWirelength float64
	// Explorations counts exploration passes; TerminalEvals counts
	// real placement evaluations (the paper's runtime argument: this
	// stays far below Explorations in ValueNet mode).
	Explorations  int
	TerminalEvals int
	// Interrupted reports that the context was cancelled (or its
	// deadline expired) before the full exploration budget was spent;
	// Anchors is then the best allocation committable from the
	// statistics gathered so far — still complete and legal.
	Interrupted bool
	// WorkerPanics counts exploration passes the search abandoned
	// after recovering a worker panic or evaluator fault (zero in a
	// healthy run).
	WorkerPanics int
	// CacheHits / CacheMisses count the evaluation-cache lookups this
	// search served from / added to the cache, when the evaluator
	// exposes one (agent.CachedEvaluator). Both stay zero for a plain
	// evaluator.
	CacheHits, CacheMisses uint64
}

// cacheStatser is the optional interface through which the search
// reads evaluation-cache counters (implemented by
// agent.CachedEvaluator). The search records per-run deltas, so a
// long-lived shared cache is fine.
type cacheStatser interface {
	Stats() (hits, misses uint64)
}

// Node expansion states. A node is created nodeNew; exactly one worker
// claims it (nodeExpanding) while its leaf evaluation is in flight, and
// every node ends nodeExpanded.
const (
	nodeNew uint8 = iota
	nodeExpanding
	nodeExpanded
)

// node is one state of the search tree.
type node struct {
	env   *grid.Env
	state uint8
	// eval is the node's own evaluation (v_θ or terminal reward),
	// recorded at expansion. It serves as the first-play-urgency
	// value of its untried edges: with the all-positive reward scale
	// of Eq. (9), initialising unvisited Q to 0 would make every
	// untried edge look catastrophic and the selection would tunnel
	// along the single highest-prior path.
	eval float64

	actions  []int
	prior    []float64
	visits   []int
	value    []float64 // accumulated W per edge
	children []*node

	// cached terminal evaluation
	termEvaled bool
	termReward float64
	termWL     float64

	// Worker-loop state. mu guards every mutable field above (state,
	// eval, the per-edge statistics, the terminal cache) plus vloss
	// while workers run. vloss counts in-flight selections per edge:
	// each adds one pessimistic virtual visit during selection and is
	// reverted by the backup. cond (lazy, shares mu) wakes workers that
	// reached a node whose expansion another worker has claimed.
	mu    sync.Mutex
	cond  *sync.Cond
	vloss []int
}

func (n *node) expanded() bool { return n.state == nodeExpanded }

// Search runs the MCTS stage for one pre-trained agent.
type Search struct {
	Cfg    Config
	Agent  Evaluator
	WL     rl.WirelengthFunc
	Scaler rl.Scaler

	// OnSnapshot, when set, receives a progress Snapshot after every
	// commit step — the tree is quiescent during the call. Callers use
	// it to persist crash-safe search checkpoints (see SaveSnapshot).
	OnSnapshot func(Snapshot)
	// Resume, when set, replays a previously committed prefix before
	// searching, continuing an interrupted run. Validate foreign
	// snapshots with Snapshot.Check first; an illegal prefix panics.
	Resume *Snapshot
	// Logf receives diagnostic lines (recovered worker panics,
	// degradation notices). Nil discards them.
	Logf func(format string, args ...any)

	result Result

	// wks are the exploration workers (see parallel.go); worker 0 runs
	// on the calling goroutine and owns the nodes made while the tree
	// is quiescent. tickets and okPasses count one step's handed-out
	// and completed passes, and wg joins the step's spawned workers.
	wks               []*workerState
	tickets, okPasses atomic.Int64
	wg                sync.WaitGroup

	// wlMu serializes WL oracle calls: WirelengthFunc implementations
	// (core.Placer.EvalAnchors in particular) mutate shared scratch
	// state and are documented as single-goroutine. resMu guards the
	// shared result fields. vlossVal is the reward charged per virtual
	// visit. Lock order: node.mu → wlMu → resMu.
	wlMu     sync.Mutex
	resMu    sync.Mutex
	vlossVal float64

	// Evaluation-cache counters at run start, for per-run deltas.
	cacheBaseHits, cacheBaseMisses uint64
}

// rolloutRNG is a tiny xorshift so Rollout mode stays deterministic
// without pulling the full rng dependency into the hot loop.
type rolloutRNG struct{ s uint64 }

func (r *rolloutRNG) next() uint64 {
	if r.s == 0 {
		r.s = 0x9E3779B97F4A7C15
	}
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rolloutRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// New builds a search over env's episode, evaluated by wl and scaled
// by scaler (normally the trainer's calibrated scaler so MCTS rewards
// are comparable with RL rewards, as in Fig. 5).
func New(cfg Config, ev Evaluator, wl rl.WirelengthFunc, scaler rl.Scaler) *Search {
	cfg = cfg.Normalize()
	s := &Search{Cfg: cfg, Agent: ev, WL: wl, Scaler: scaler}
	s.wks = make([]*workerState, min(cfg.Workers, cfg.Gamma))
	for i := range s.wks {
		// Worker 0 draws the rollout stream a one-worker search always
		// has; the others are offset from it.
		s.wks[i] = &workerState{rnd: rolloutRNG{s: uint64(cfg.Seed) + 1 + uint64(i)*0x9E3779B97F4A7C15}}
	}
	return s
}

// Run executes Alg. 1 lines 11–15 on a fresh clone of env and returns
// the committed allocation and statistics.
func (s *Search) Run(env *grid.Env) Result {
	return s.RunContext(context.Background(), env)
}

// RunContext is Run under a context: cancellation or an expired
// deadline is observed between exploration passes, after which the
// remaining macro groups are committed from the statistics gathered so
// far — the anytime property: the Result is always a complete legal
// allocation, marked Interrupted when the budget was cut short. With a
// background context the search is byte-for-byte the same as Run.
func (s *Search) RunContext(ctx context.Context, env *grid.Env) Result {
	obsSearches.Inc()
	s.captureCacheBase()
	s.result = Result{BestWirelength: math.Inf(1)}
	s.vlossVal = s.Scaler.VirtualLoss()
	e := cloneEnv(env)
	e.Reset()
	t0, committed := s.applyResume(e)
	root := s.arena().newNode(e)
	steps := e.NumSteps()

	for t := t0; t < steps; t++ {
		if !s.exploreStep(ctx, root) {
			return s.finishInterrupted(root)
		}
		var act int
		prev := root
		root, act = s.commit(prev)
		releaseDiscarded(prev, root)
		committed = append(committed, act)
		if s.OnSnapshot != nil {
			s.OnSnapshot(s.snapshotNow(committed))
		}
		root = s.maybeFreshRoot(root)
	}
	return s.finishRun(root)
}

// maybeFreshRoot implements Config.FreshRoot: after a commit, replace
// the committed child (and whatever subtree it inherited) with a
// statistics-free node over the same env, so the next step explores
// from scratch exactly as a resumed search would. Callable only while
// the tree is quiescent.
func (s *Search) maybeFreshRoot(root *node) *node {
	if !s.Cfg.FreshRoot || root.env.Done() {
		return root
	}
	e := cloneEnv(root.env)
	releaseDiscarded(root, nil)
	return s.arena().newNode(e)
}

// arena is worker 0's node arena, which holds the nodes made while the
// tree is quiescent: roots, forced commits and fallbacks.
func (s *Search) arena() *nodeArena { return &s.wks[0].sc.arena }

// captureCacheBase records the evaluator's cache counters at run
// start so Result carries this run's deltas.
func (s *Search) captureCacheBase() {
	if cs, ok := s.Agent.(cacheStatser); ok {
		s.cacheBaseHits, s.cacheBaseMisses = cs.Stats()
	}
}

// applyResume replays the Resume snapshot's committed prefix onto the
// fresh episode env and restores the carried statistics. Returns the
// step index to continue from and the prefix (for further snapshots).
func (s *Search) applyResume(e *grid.Env) (t0 int, committed []int) {
	snap := s.Resume
	if snap == nil {
		return 0, nil
	}
	for _, a := range snap.Committed {
		if err := e.Step(a); err != nil {
			panic(fmt.Sprintf("mcts: resume snapshot replays illegal action %d: %v (validate with Snapshot.Check)", a, err))
		}
	}
	s.result.Explorations = snap.Explorations
	s.result.TerminalEvals = snap.TerminalEvals
	s.result.WorkerPanics = snap.WorkerPanics
	if len(snap.BestAnchors) > 0 {
		s.result.BestAnchors = append([]int(nil), snap.BestAnchors...)
		s.result.BestWirelength = snap.BestWirelength
	}
	return len(snap.Committed), append([]int(nil), snap.Committed...)
}

// finishInterrupted commits the remaining steps without spending any
// further exploration budget (each commit of an unexpanded node costs
// one forced exploration) and returns the completed best-so-far
// result.
func (s *Search) finishInterrupted(root *node) Result {
	for !root.env.Done() {
		prev := root
		root, _ = s.commit(prev)
		releaseDiscarded(prev, root)
	}
	s.result.Interrupted = true
	obsInterrupted.Inc()
	return s.finishRun(root)
}

// snapshotNow captures resumable progress; callers must ensure the
// tree is quiescent (between commit steps).
func (s *Search) snapshotNow(committed []int) Snapshot {
	snap := Snapshot{
		Committed:     append([]int(nil), committed...),
		Explorations:  s.result.Explorations,
		TerminalEvals: s.result.TerminalEvals,
		WorkerPanics:  s.result.WorkerPanics,
	}
	if len(s.result.BestAnchors) > 0 {
		snap.BestAnchors = append([]int(nil), s.result.BestAnchors...)
		snap.BestWirelength = s.result.BestWirelength
	}
	return snap
}

// finishRun traces the committed terminal node into the result
// (single-threaded: the tree is quiescent).
func (s *Search) finishRun(root *node) Result {
	if !root.env.Done() {
		panic("mcts: committed path did not reach a terminal state")
	}
	anchors := root.env.Anchors()
	wl := s.WL(anchors)
	s.result.Anchors = anchors
	s.result.Wirelength = wl
	s.result.Reward = s.Scaler.Reward(wl)
	if s.result.BestAnchors == nil || wl < s.result.BestWirelength {
		s.result.BestAnchors = anchors
		s.result.BestWirelength = wl
	}
	if cs, ok := s.Agent.(cacheStatser); ok {
		h, m := cs.Stats()
		s.result.CacheHits = h - s.cacheBaseHits
		s.result.CacheMisses = m - s.cacheBaseMisses
	}
	// The committed terminal chain is the last subtree still holding
	// envs; the result only carries copies, so recycle them for the
	// next search.
	releaseDiscarded(root, nil)
	return s.result
}

// commit picks the most-visited child and descends, reusing the
// subtree; it also returns the committed action so drivers can record
// the prefix for snapshots. Ties cascade to Q, then to the policy
// prior: at small exploration budgets many children carry a single
// visit each, and falling back to the prior makes the committed move
// degrade gracefully toward the greedy policy instead of an arbitrary
// index.
func (s *Search) commit(n *node) (*node, int) {
	obsCommits.Inc()
	// All explorations ended below n, or an interrupted search is
	// completing its committed path: force an expansion, one pass on
	// worker 0. If the evaluator is faulted out (injected panics,
	// poisoned weights), the pass is abandoned and the commit falls back
	// to the first legal action — the committed path must stay complete
	// and legal even with a dead network.
	if !n.expanded() && !s.explorePass(n, s.wks[0]) {
		return s.commitFallback(n)
	}
	best := -1
	better := func(k, b int) bool {
		if n.visits[k] != n.visits[b] {
			return n.visits[k] > n.visits[b]
		}
		if qk, qb := q(n, k), q(n, b); qk != qb {
			return qk > qb
		}
		return n.prior[k] > n.prior[b]
	}
	for k := range n.actions {
		if n.children[k] == nil {
			continue
		}
		if best < 0 || better(k, best) {
			best = k
		}
	}
	if best < 0 {
		// No child was ever created: create the max-prior one.
		best = 0
		for k := range n.actions {
			if n.prior[k] > n.prior[best] {
				best = k
			}
		}
		s.childLocked(n, best, s.arena())
	}
	return n.children[best], n.actions[best]
}

// commitFallback commits the first legal action of n without any
// network involvement — the last-resort degradation that keeps an
// interrupted, fault-ridden search returning a complete allocation.
func (s *Search) commitFallback(n *node) (*node, int) {
	obsFallbackCommits.Inc()
	env := n.env
	ncells := env.G.NumCells()
	for a := 0; a < ncells; a++ {
		if !env.InBounds(a) {
			continue
		}
		e := cloneEnv(env)
		if err := e.Step(a); err != nil {
			recycleEnv(e)
			continue
		}
		return s.arena().newNode(e), a
	}
	panic("mcts: non-terminal node with no legal action to commit")
}

func q(n *node, k int) float64 {
	if n.visits[k] == 0 {
		return n.eval
	}
	return n.value[k] / float64(n.visits[k])
}

// SelectPUCT is the PUCT edge selection rule of Eqs. (10)–(11):
// argmax_k Q(k) + c·P(k)·√ΣN/(1+N(k)), where Q(k) = value[k]/visits[k]
// for visited edges and eval (the node's own network value, the
// first-play-urgency choice the search uses) for unvisited ones. At a
// freshly expanded node every N is zero and the bonus is 0 for all
// edges, so ties break toward the higher prior, the selection
// AlphaZero-style implementations converge to. Returns -1 when prior is
// empty.
//
// vloss (nil for none) counts the in-flight passes of each edge: each
// is scored as one more visit that returned vlossVal, the calibrated
// worst-case reward. Only edges with vloss > 0 take that term, so with
// no passes in flight the floating-point operations are exactly those
// of the plain rule; the ECO local-move search (internal/eco) calls it
// with nil, and a one-worker search never has a pass in flight where it
// selects. Both therefore reproduce identical selection sequences for
// identical statistics — a prerequisite for the bit-identity goldens
// both pin.
func SelectPUCT(c, eval float64, prior []float64, visits []int, value []float64, vloss []int, vlossVal float64) int {
	total := 0
	for k, cnt := range visits {
		total += cnt
		if vloss != nil {
			total += vloss[k]
		}
	}
	sqrtTotal := math.Sqrt(float64(total))
	best, bestScore := -1, math.Inf(-1)
	for k := range prior {
		nk, w := visits[k], value[k]
		if vloss != nil && vloss[k] > 0 {
			nk += vloss[k]
			w += float64(vloss[k]) * vlossVal
		}
		q := eval
		if nk > 0 {
			q = w / float64(nk)
		}
		u := c * prior[k] * sqrtTotal / float64(1+nk)
		score := q + u
		if score > bestScore || (score == bestScore && best >= 0 && prior[k] > prior[best]) {
			best, bestScore = k, score
		}
	}
	return best
}

// edgesOf enumerates the in-bounds actions of env and their
// normalised priors from the agent output (uniform fallback when the
// masked policy zeroed everything), carving both slices out of ar.
func (s *Search) edgesOf(env *grid.Env, probs []float32, ar *nodeArena) (actions []int, prior []float64) {
	ncells := env.G.NumCells()
	cnt := 0
	for a := 0; a < ncells; a++ {
		if env.InBounds(a) {
			cnt++
		}
	}
	if cnt == 0 {
		panic("mcts: non-terminal node with no in-bounds action")
	}
	actions = ar.intSlice(cnt)
	prior = ar.floatSlice(cnt)
	i := 0
	for a := 0; a < ncells; a++ {
		if !env.InBounds(a) {
			continue
		}
		p := float64(probs[a])
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			// A poisoned policy head must not poison the priors: drop
			// the weight, keep the action (the uniform fallback below
			// covers an all-bad output).
			p = 0
		}
		actions[i] = a
		prior[i] = p
		i++
	}
	var sum float64
	for _, p := range prior {
		sum += p
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		u := 1 / float64(len(prior))
		for i := range prior {
			prior[i] = u
		}
	} else {
		for i := range prior {
			prior[i] /= sum
		}
	}
	return actions, prior
}

// clampValue clamps the critic into the calibrated reward range: an
// untrained value head can emit arbitrary magnitudes, and any estimate
// that outbids every achievable terminal reward would make the search
// chase phantoms instead of real placements. A NaN estimate (poisoned
// network) pins to the lower bound — the pessimistic choice, so the
// search routes around the fault instead of through it.
func (s *Search) clampValue(v float64) float64 {
	lo, hi := s.Scaler.Bounds()
	if math.IsNaN(v) || v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
