package mcts

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"macroplace/internal/agent"
	"macroplace/internal/grid"
)

// Tree-parallel search (Workers > 1).
//
// All workers of one commit step descend the same tree concurrently:
//
//   - Per-node statistics are guarded by node.mu; a path is locked one
//     node at a time (selection and backup), never two nodes at once,
//     so there is no lock-ordering hazard between nodes.
//   - Virtual loss: selecting edge k increments node.vloss[k]; the
//     backup that completes the pass decrements it again. While in
//     flight, the edge is scored as if it had already returned vloss
//     extra visits at the calibrated worst-case reward
//     (Scaler.VirtualLoss), which steers concurrent workers onto
//     distinct paths instead of all racing down the current argmax.
//   - Expansion is claimed: the first worker to reach a nodeNew leaf
//     flips it to nodeExpanding and evaluates it outside the lock;
//     later arrivals wait on the node's cond until the claimer
//     publishes the expansion (nodeExpanded) and broadcasts. A waiter
//     that wakes to find the node back at nodeNew (the claimer
//     panicked and unclaimed it) claims the expansion itself.
//   - Each worker evaluates the leaf it claimed itself, through the
//     evaluator's pure batched entry point with a one-state batch, so
//     two workers run two network passes on two cores at once.
//     Agent.Forward itself is stateful and is never called while
//     workers run.
//   - The wirelength oracle is serialized behind wlMu
//     (WirelengthFunc is documented single-goroutine), and the shared
//     Result fields behind resMu. Lock order: node.mu → wlMu → resMu.
//
// Fault isolation: every exploration pass runs under explorePass's
// recover. A panic — whether a worker bug or an injected evaluator
// fault — abandons only that pass: its virtual losses are reverted,
// any expansion claim is released (back to nodeNew, waiters woken),
// the panic is counted in Result.WorkerPanics, and no committed
// statistic is touched. Every lock a pass holds across fallible code
// is released by defer, so a panicking pass can never strand a mutex.
// A worker that fails workerMaxFails consecutive passes retires; if
// every worker retires, the driver tops the step up on the calling
// goroutine so the search degrades to sequential instead of dying.
// Each leaf is evaluated by exactly one evaluator call, so every
// evaluator fault is exactly one abandoned pass.
//
// Between commit steps the tree is quiescent (WaitGroup barrier), so
// commit and finishRun reuse the sequential code unchanged.

// workerMaxFails is the number of consecutive recovered panics after
// which a worker retires (a systematically failing worker would
// otherwise spin on the ticket counter, starving useful passes).
const workerMaxFails = 8

// seqTopUpFactor caps the driver's sequential top-up at
// seqTopUpFactor×γ attempts per commit step, bounding the time spent
// against an evaluator that fails on every call.
const seqTopUpFactor = 2

// edgeRef records one selected edge of an exploration path.
type edgeRef struct {
	n *node
	k int
}

// workerState is the per-goroutine state of one search worker. Each
// worker owns a rollout RNG seeded from Cfg.Seed and its worker index,
// so Rollout mode needs no RNG lock (sequences differ from the
// sequential search's, which is inherent to parallel rollouts).
// fails counts consecutive recovered panics; at workerMaxFails the
// worker retires for the rest of the search.
type workerState struct {
	rnd     rolloutRNG
	fails   int
	retired bool
	// sc is the worker's private pass scratch (path buffer, state
	// buffers, legal-move list, node arena) — see arena.go.
	sc passScratch
}

// runParallel is the Workers>1 counterpart of Run: the same
// steps × (γ explorations, commit) schedule, with each step's γ
// explorations distributed over the workers by an atomic ticket
// counter. In a healthy run exactly γ passes complete per step;
// passes abandoned by recovered panics are re-attempted (by the
// workers while tickets remain, then sequentially by the driver), so
// the exploration budget degrades only when the evaluator is
// persistently broken.
func (s *Search) runParallel(ctx context.Context, env *grid.Env) Result {
	s.result = Result{BestWirelength: math.Inf(1)}
	s.vlossVal = s.Scaler.VirtualLoss()
	workers := s.Cfg.Workers
	if workers > s.Cfg.Gamma {
		workers = s.Cfg.Gamma
	}

	e := cloneEnv(env)
	e.Reset()
	t0, committed := s.applyResume(e)
	root := s.scratch.arena.newNode(e)
	steps := e.NumSteps()

	wks := make([]*workerState, workers)
	for i := range wks {
		wks[i] = &workerState{rnd: rolloutRNG{s: uint64(s.Cfg.Seed) + 1 + uint64(i+1)*0x9E3779B97F4A7C15}}
	}

	for t := t0; t < steps; t++ {
		if ctx.Err() != nil {
			return s.finishInterrupted(root)
		}
		var tickets, okPasses int64
		var wg sync.WaitGroup
		for _, wk := range wks {
			if wk.retired {
				continue
			}
			wg.Add(1)
			go func(wk *workerState) {
				defer wg.Done()
				for atomic.AddInt64(&tickets, 1) <= int64(s.Cfg.Gamma) {
					if ctx.Err() != nil {
						return
					}
					if s.explorePass(root, wk) {
						atomic.AddInt64(&okPasses, 1)
						wk.fails = 0
					} else if wk.fails++; wk.fails >= workerMaxFails {
						wk.retired = true
						obsWorkerRetires.Inc()
						if s.Logf != nil {
							s.Logf("mcts: worker retired after %d consecutive recovered panics", wk.fails)
						}
						return
					}
				}
			}(wk)
		}
		wg.Wait()

		// Tree is quiescent from here to the end of the loop body.
		if ctx.Err() != nil {
			s.result.Explorations += int(okPasses)
			obsExplorations.Add(uint64(okPasses))
			return s.finishInterrupted(root)
		}
		// Sequential top-up: recovered panics (or a fully retired
		// worker pool) left the step short of its γ budget; re-attempt
		// on this goroutine, bounded so a dead evaluator cannot hang
		// the search.
		for n := 0; okPasses < int64(s.Cfg.Gamma) && n < seqTopUpFactor*s.Cfg.Gamma; n++ {
			if ctx.Err() != nil {
				break
			}
			if s.explorePass(root, wks[0]) {
				okPasses++
			}
		}
		s.result.Explorations += int(okPasses)
		obsExplorations.Add(uint64(okPasses))

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

// explorePass is one selection→expansion→evaluation→backup pass under
// the tree-parallel protocol. It reports whether the pass completed;
// a panic anywhere in the pass (worker bug or injected evaluator
// fault) is recovered here: the path's virtual losses are reverted,
// an unpublished expansion claim is released, the panic is counted,
// and false is returned. No lock is held across fallible code without
// a defer, so the recovery never runs against a stranded mutex.
func (s *Search) explorePass(root *node, wk *workerState) (ok bool) {
	path := wk.sc.path[:0]
	var claimed *node
	defer func() {
		if r := recover(); r != nil {
			if claimed != nil {
				s.unclaim(claimed)
			}
			s.revertVloss(path)
			s.notePanic(r)
			ok = false
		}
		wk.sc.path = path[:0]
	}()

	cur := root
	for {
		// env is immutable after node creation, so Done needs no lock.
		if cur.env.Done() {
			v := s.terminalValue(cur)
			s.backup(path, v)
			return true
		}
		next := func() *node {
			cur.mu.Lock()
			defer cur.mu.Unlock()
			for cur.state == nodeExpanding {
				if cur.cond == nil {
					cur.cond = sync.NewCond(&cur.mu)
				}
				cur.cond.Wait()
			}
			if cur.state == nodeNew {
				// Claim the expansion (possibly re-claiming after a
				// previous claimer panicked and unclaimed).
				cur.state = nodeExpanding
				return nil
			}
			k := s.selectEdgeVL(cur)
			s.childLocked(cur, k, &wk.sc.arena)
			cur.vloss[k]++
			path = append(path, edgeRef{cur, k})
			return cur.children[k]
		}()
		if next == nil {
			claimed = cur
			v := s.expandParallel(cur, wk)
			claimed = nil
			s.backup(path, v)
			return true
		}
		cur = next
	}
}

// unclaim releases a claimed-but-unpublished expansion after its
// claimer panicked: the node returns to nodeNew so the next arriving
// (or cond-parked) worker claims it afresh.
func (s *Search) unclaim(n *node) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == nodeExpanding {
		n.state = nodeNew
	}
	if n.cond != nil {
		n.cond.Broadcast()
	}
}

// revertVloss undoes the virtual losses of an abandoned pass without
// contributing visits — the tree statistics end exactly as if the
// pass had never started.
func (s *Search) revertVloss(path []edgeRef) {
	obsVlossReverts.Add(uint64(len(path)))
	for _, e := range path {
		e.n.mu.Lock()
		e.n.vloss[e.k]--
		e.n.mu.Unlock()
	}
}

// notePanic records one recovered pass failure.
func (s *Search) notePanic(r any) {
	obsWorkerPanics.Inc()
	s.resMu.Lock()
	defer s.resMu.Unlock()
	s.result.WorkerPanics++
	if s.Logf != nil {
		s.Logf("mcts: recovered worker panic: %v", r)
	}
}

// selectEdgeVL is selectEdge with virtual loss folded into both Q and
// the visit counts of Eq. (10)/(11): an edge with vloss in-flight
// passes is scored as if those passes had already returned the
// calibrated worst-case reward. Caller holds n.mu.
func (s *Search) selectEdgeVL(n *node) int {
	total := 0
	for k := range n.visits {
		total += n.visits[k] + n.vloss[k]
	}
	sqrtTotal := math.Sqrt(float64(total))
	best, bestScore := -1, math.Inf(-1)
	for k := range n.actions {
		nk := n.visits[k] + n.vloss[k]
		var qv float64
		if nk == 0 {
			qv = n.eval
		} else {
			qv = (n.value[k] + float64(n.vloss[k])*s.vlossVal) / float64(nk)
		}
		u := s.Cfg.C * n.prior[k] * sqrtTotal / float64(1+nk)
		score := qv + u
		if score > bestScore || (score == bestScore && best >= 0 && n.prior[k] > n.prior[best]) {
			best, bestScore = k, score
		}
	}
	if best < 0 {
		panic("mcts: node has no actions")
	}
	return best
}

// childLocked materialises child k of n out of the calling worker's
// arena. Caller holds n.mu, which makes the lazy creation race-free;
// the clone/step work on the new child's private env.
func (s *Search) childLocked(n *node, k int, ar *nodeArena) {
	if n.children[k] != nil {
		return
	}
	e := cloneEnv(n.env)
	if err := e.Step(n.actions[k]); err != nil {
		recycleEnv(e)
		panic(fmt.Sprintf("mcts: illegal expansion action: %v", err))
	}
	n.children[k] = ar.newNode(e)
}

// terminalValue returns the cached terminal reward of n, evaluating
// the real placement on first visit. Locks are deferred so a
// panicking oracle (fault injection) unwinds cleanly.
func (s *Search) terminalValue(n *node) float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.termEvaled {
		anchors := n.env.Anchors()
		wl := s.oracleParallel(anchors)
		n.termWL = wl
		n.termReward = s.Scaler.Reward(wl)
		n.termEvaled = true
		s.recordTerminal(wl, anchors)
	}
	return n.termReward
}

// oracleParallel serializes one wirelength evaluation behind wlMu.
func (s *Search) oracleParallel(anchors []int) float64 {
	s.wlMu.Lock()
	defer s.wlMu.Unlock()
	return s.WL(anchors)
}

// recordTerminal updates the shared terminal counters/best under resMu.
func (s *Search) recordTerminal(wl float64, anchors []int) {
	obsTerminalEvals.Inc()
	s.resMu.Lock()
	defer s.resMu.Unlock()
	s.result.TerminalEvals++
	if wl < s.result.BestWirelength {
		s.result.BestWirelength = wl
		s.result.BestAnchors = anchors
	}
}

// expandParallel evaluates and publishes a claimed leaf. The agent
// evaluation (and in Rollout mode the random playout) runs with no
// node lock held; the expansion is then published under n.mu and any
// workers parked on the claim are woken. An evaluator fault surfaces
// as a panic and unwinds to explorePass's recover, which releases the
// claim.
func (s *Search) expandParallel(n *node, wk *workerState) float64 {
	env := n.env
	wk.sc.sp = env.SPInto(wk.sc.sp)
	wk.sc.sa = env.AvailInto(wk.sc.sa)
	out := s.evalLeaf(&wk.sc, env.T())
	actions, prior := s.edgesOf(env, out.Probs, &wk.sc.arena)
	m := len(actions)
	visits := wk.sc.arena.intSlice(m)
	value := wk.sc.arena.floatSlice(m)
	vloss := wk.sc.arena.intSlice(m)
	children := wk.sc.arena.kidSlice(m)

	var v float64
	if s.Cfg.Mode == Rollout {
		v = s.rolloutParallel(env, wk)
	} else {
		v = s.clampValue(float64(out.Value))
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	n.actions, n.prior = actions, prior
	n.visits = visits
	n.value = value
	n.vloss = vloss
	n.children = children
	n.eval = v
	n.state = nodeExpanded
	if n.cond != nil {
		n.cond.Broadcast()
	}
	return v
}

// evalLeaf evaluates the state in sc.sp/sc.sa on the calling worker:
// through EvaluateBatchInto with the worker's one-state buffers when
// the evaluator has it (*agent.Agent, *agent.CachedEvaluator), through
// EvaluateBatch otherwise (fault-injection wrappers). Nothing here
// serializes workers — CachedEvaluator runs the network outside its
// shard locks. An evaluator fault surfaces as a panic, unwinding to
// explorePass's recover.
func (s *Search) evalLeaf(sc *passScratch, t int) agent.Output {
	sc.in[0] = agent.BatchInput{SP: sc.sp, SA: sc.sa, T: t}
	if inf, ok := s.Agent.(agent.Inferencer); ok {
		inf.EvaluateBatchInto(sc.in[:], sc.out[:])
		return sc.out[0]
	}
	outs := s.Agent.EvaluateBatch(sc.in[:])
	if len(outs) != 1 {
		panic(fmt.Sprintf("mcts: EvaluateBatch returned %d outputs for 1 input", len(outs)))
	}
	return outs[0]
}

// rolloutParallel is rollout with the worker's private RNG and the
// shared oracle/result taken under their locks.
func (s *Search) rolloutParallel(env *grid.Env, wk *workerState) float64 {
	e := cloneEnv(env)
	defer recycleEnv(e)
	ncells := e.G.NumCells()
	for !e.Done() {
		legal := wk.sc.legal[:0]
		for a := 0; a < ncells; a++ {
			if e.InBounds(a) {
				legal = append(legal, a)
			}
		}
		wk.sc.legal = legal
		if err := e.Step(legal[wk.rnd.intn(len(legal))]); err != nil {
			panic(fmt.Sprintf("mcts: illegal rollout action: %v", err))
		}
	}
	anchors := e.Anchors()
	wl := s.oracleParallel(anchors)
	s.recordTerminal(wl, anchors)
	return s.Scaler.Reward(wl)
}

// backup propagates v along the selected path, reverting each edge's
// virtual loss. Nodes are locked one at a time.
func (s *Search) backup(path []edgeRef, v float64) {
	for _, e := range path {
		e.n.mu.Lock()
		e.n.visits[e.k]++
		e.n.value[e.k] += v
		e.n.vloss[e.k]--
		e.n.mu.Unlock()
	}
}
