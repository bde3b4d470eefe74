package mcts

import (
	"macroplace/internal/agent"
	"macroplace/internal/grid"
)

// Scratch memory of the search hot path.
//
// A search at γ explorations per step allocates, in the naive
// implementation, one node + one env clone per expansion, six slices
// per expanded node, one path slice per pass, and two ζ²-float64 state
// copies per evaluation — tens of thousands of small objects per run.
// Two mechanisms remove almost all of them:
//
//   - nodeArena: nodes and their per-edge slices are carved from
//     chunked arrays owned by the search (one arena per worker, so no
//     locking). Arena memory is virgin — chunks come straight from
//     make and are never recycled within or across searches — so every
//     carved slice carries the zero values the expansion logic relies
//     on for visits/value/vloss. The arena is dropped wholesale with
//     the Search.
//   - envPool: env clones are the one allocation that outlives a
//     search's own structure (ζ² utilizations + anchors each), so they
//     are recycled through a process-wide grid.Pool. A commit discards
//     the un-chosen subtrees while the tree is quiescent; their envs
//     go back to the pool with the node's pointer nilled, so any
//     use-after-release fails fast on a nil env instead of reading
//     someone else's state.

// envPool recycles Env clones across nodes, rollouts, and searches.
var envPool grid.Pool

// cloneEnv pools a clone of src.
func cloneEnv(src *grid.Env) *grid.Env {
	obsEnvPoolGets.Inc()
	return envPool.Get(src)
}

// recycleEnv returns an env to the pool, counting the recycle. All
// hot-path returns go through here so the gets/recycles pair in
// /metrics exposes pool churn.
func recycleEnv(e *grid.Env) {
	obsEnvPoolRecycles.Inc()
	envPool.Put(e)
}

// releaseDiscarded returns every env in n's subtree to the pool,
// except the subtree rooted at keep (the committed child). Callable
// only while the tree is quiescent; after it runs, discarded nodes
// have nil envs and must never be descended again.
func releaseDiscarded(n, keep *node) {
	if n == nil || n == keep {
		return
	}
	if n.env != nil {
		e := n.env
		n.env = nil
		recycleEnv(e)
	}
	for _, c := range n.children {
		releaseDiscarded(c, keep)
	}
}

// Arena chunk sizes: nodes are requested one at a time, slices in
// per-node action counts (≤ ζ²), so chunks amortize one make over
// hundreds of requests without over-committing small searches.
const (
	arenaNodeChunk  = 256
	arenaIntChunk   = 1 << 15
	arenaFloatChunk = 1 << 14
	arenaKidChunk   = 1 << 13
)

// nodeArena carves nodes and their per-edge slices out of chunked
// arrays. Not safe for concurrent use: one arena per worker.
type nodeArena struct {
	nodes  []node
	nUsed  int
	ints   []int
	floats []float64
	kids   []*node
}

func (a *nodeArena) newNode(env *grid.Env) *node {
	if a.nUsed == len(a.nodes) {
		a.nodes = make([]node, arenaNodeChunk)
		a.nUsed = 0
		obsArenaChunks.Inc()
	}
	n := &a.nodes[a.nUsed]
	a.nUsed++
	n.env = env
	return n
}

func (a *nodeArena) intSlice(n int) []int {
	if len(a.ints) < n {
		c := arenaIntChunk
		if n > c {
			c = n
		}
		a.ints = make([]int, c)
		obsArenaChunks.Inc()
	}
	s := a.ints[:n:n]
	a.ints = a.ints[n:]
	return s
}

func (a *nodeArena) floatSlice(n int) []float64 {
	if len(a.floats) < n {
		c := arenaFloatChunk
		if n > c {
			c = n
		}
		a.floats = make([]float64, c)
		obsArenaChunks.Inc()
	}
	s := a.floats[:n:n]
	a.floats = a.floats[n:]
	return s
}

func (a *nodeArena) kidSlice(n int) []*node {
	if len(a.kids) < n {
		c := arenaKidChunk
		if n > c {
			c = n
		}
		a.kids = make([]*node, c)
		obsArenaChunks.Inc()
	}
	s := a.kids[:n:n]
	a.kids = a.kids[n:]
	return s
}

// passScratch is one worker's reusable buffer set of exploration
// passes: the selected path, the s_p/s_a state buffers handed to the
// evaluator, the one-state batch the worker evaluates its leaves
// through, the legal-move list of rollouts, and the node arena.
type passScratch struct {
	path   []edgeRef
	sp, sa []float64
	in     [1]agent.BatchInput
	out    [1]agent.Output
	legal  []int
	arena  nodeArena
}
