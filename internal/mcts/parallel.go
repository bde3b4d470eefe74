package mcts

import (
	"context"
	"fmt"
	"sync"

	"macroplace/internal/agent"
	"macroplace/internal/grid"
)

// The worker loop: every search, whatever its worker count.
//
// All workers of one commit step descend the same tree concurrently.
// Worker 0 runs on the calling goroutine and only workers 1..n−1 are
// spawned, so a one-worker search runs on one goroutine, locks only
// uncontended mutexes and never selects at a node with a pass in
// flight, which keeps it bit-reproducible for a fixed seed.
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
//     evaluator's pure entry point with a one-state batch, so two
//     workers run two network passes on two cores at once.
//     Agent.Forward, the training path that records on a tape, is
//     never called.
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
// every worker retires, exploreStep tops the step up on worker 0 so
// the search degrades to one worker instead of dying. Each leaf is
// evaluated by exactly one evaluator call, so every evaluator fault is
// exactly one abandoned pass.
//
// Between commit steps the tree is quiescent (WaitGroup barrier), so
// commit and finishRun need no locks; a commit's forced expansion is
// one more pass on worker 0.

// workerMaxFails is the number of consecutive recovered panics after
// which a worker retires (a systematically failing worker would
// otherwise spin on the ticket counter, starving useful passes).
const workerMaxFails = 8

// seqTopUpFactor caps exploreStep's top-up on worker 0 at
// seqTopUpFactor×γ attempts per commit step, bounding the time spent
// against an evaluator that fails on every call.
const seqTopUpFactor = 2

// edgeRef records one selected edge of an exploration path.
type edgeRef struct {
	n *node
	k int
}

// workerState is the state of one search worker. Each worker owns a
// rollout RNG seeded from Cfg.Seed and its worker index, so Rollout
// mode needs no RNG lock; worker 0's stream is the one a one-worker
// search has always drawn. fails counts consecutive recovered panics;
// at workerMaxFails the worker retires for the rest of the search.
type workerState struct {
	rnd     rolloutRNG
	fails   int
	retired bool
	// sc is the worker's private pass scratch (path buffer, state
	// buffers, legal-move list, node arena) — see arena.go.
	sc passScratch
}

// exploreStep spends one commit step's γ explorations from root,
// handed out to the workers by an atomic ticket counter. In a healthy
// step exactly γ passes complete; passes abandoned by recovered panics
// are re-attempted, by the workers while tickets remain and then on
// worker 0 alone, so the budget degrades only when the evaluator is
// persistently broken. The tree is quiescent on return. It reports
// false when the context cut the step short of its budget.
func (s *Search) exploreStep(ctx context.Context, root *node) bool {
	s.tickets.Store(0)
	s.okPasses.Store(0)
	for _, wk := range s.wks[1:] {
		if !wk.retired {
			s.wg.Add(1)
			go s.work(ctx, root, wk)
		}
	}
	if !s.wks[0].retired {
		s.wg.Add(1)
		s.work(ctx, root, s.wks[0])
	}
	s.wg.Wait()

	// Top-up: recovered panics (or a fully retired worker pool) left
	// the step short of its γ budget; re-attempt on worker 0, bounded
	// so a dead evaluator cannot hang the search.
	ok := int(s.okPasses.Load())
	for n := 0; ok < s.Cfg.Gamma && n < seqTopUpFactor*s.Cfg.Gamma && ctx.Err() == nil; n++ {
		if s.explorePass(root, s.wks[0]) {
			ok++
		}
	}
	s.result.Explorations += ok
	obsExplorations.Add(uint64(ok))
	return ok == s.Cfg.Gamma || ctx.Err() == nil
}

// work is one worker's share of a step: it draws tickets until γ have
// been handed out, running one exploration pass per ticket, and retires
// after workerMaxFails failed passes in a row.
func (s *Search) work(ctx context.Context, root *node, wk *workerState) {
	defer s.wg.Done()
	for s.tickets.Add(1) <= int64(s.Cfg.Gamma) {
		if ctx.Err() != nil {
			return
		}
		if s.explorePass(root, wk) {
			s.okPasses.Add(1)
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
}

// explorePass is one selection→expansion→evaluation→backup pass
// (Fig. 3) under the worker protocol. It reports whether the pass
// completed; a panic anywhere in the pass (worker bug or injected
// evaluator fault) is recovered here: the path's virtual losses are
// reverted, an unpublished expansion claim is released, the panic is
// counted, and false is returned. No lock is held across fallible code
// without a defer, so the recovery never runs against a stranded mutex.
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
			k := SelectPUCT(s.Cfg.C, cur.eval, cur.prior, cur.visits, cur.value, cur.vloss, s.vlossVal)
			if k < 0 {
				panic("mcts: node has no actions")
			}
			s.childLocked(cur, k, &wk.sc.arena)
			cur.vloss[k]++
			path = append(path, edgeRef{cur, k})
			return cur.children[k]
		}()
		if next == nil {
			claimed = cur
			v := s.expandLeaf(cur, wk)
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

// childLocked materialises child k of n out of arena ar. Caller holds
// n.mu or the tree is quiescent, which makes the lazy creation
// race-free; the clone/step work on the new child's private env.
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
		wl := s.oracle(anchors)
		n.termWL = wl
		n.termReward = s.Scaler.Reward(wl)
		n.termEvaled = true
		s.recordTerminal(wl, anchors)
	}
	return n.termReward
}

// oracle serializes one wirelength evaluation behind wlMu.
func (s *Search) oracle(anchors []int) float64 {
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

// expandLeaf evaluates and publishes a claimed leaf: it enumerates the
// legal actions, initialises edge priors from π_θ, and returns the
// leaf's value (v_θ in ValueNet mode, a random-playout reward in
// Rollout mode). The agent evaluation (and the playout) runs with no
// node lock held; the expansion is then published under n.mu and any
// workers parked on the claim are woken. An evaluator fault surfaces
// as a panic and unwinds to explorePass's recover, which releases the
// claim.
func (s *Search) expandLeaf(n *node, wk *workerState) float64 {
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
		v = s.playout(env, wk)
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

// evalLeaf evaluates the state in sc.sp/sc.sa on the calling worker,
// through EvaluateBatchInto with the worker's one-state buffers.
// Nothing here serializes workers — CachedEvaluator runs the network
// outside its lock. An evaluator fault surfaces as a panic,
// unwinding to explorePass's recover.
func (s *Search) evalLeaf(sc *passScratch, t int) agent.Output {
	sc.in[0] = agent.BatchInput{SP: sc.sp, SA: sc.sa, T: t}
	s.Agent.EvaluateBatchInto(sc.in[:], sc.out[:])
	return sc.out[0]
}

// playout plays uniform-random in-bounds actions from env to a
// terminal state with the worker's private RNG and returns its scaled
// reward (traditional MCTS evaluation); the shared oracle and result
// are taken under their locks.
func (s *Search) playout(env *grid.Env, wk *workerState) float64 {
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
	wl := s.oracle(anchors)
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
