package mcts

import (
	"reflect"
	"sync"
	"testing"

	"macroplace/internal/agent"
)

// collectNodes gathers a subtree into a set.
func collectNodes(n *node, into map[*node]bool) {
	if n == nil || into[n] {
		return
	}
	into[n] = true
	for _, c := range n.children {
		collectNodes(c, into)
	}
}

// TestReleaseDiscardedSparesCommittedSubtree (white box): a commit
// must return every env of the discarded siblings to the pool (their
// nodes get nil envs, so any use-after-release crashes instead of
// silently reading recycled state) while the committed subtree keeps
// every env it owns.
func TestReleaseDiscardedSparesCommittedSubtree(t *testing.T) {
	env, wl := cornerEnv()
	s := New(Config{Gamma: 24, Seed: 31, Workers: 1}, untrained(), wl, testScaler())
	e := cloneEnv(env)
	e.Reset()
	root := s.arena().newNode(e)
	for i := 0; i < s.Cfg.Gamma; i++ {
		s.explorePass(root, s.wks[0])
	}
	keep, _ := s.commit(root)

	kept := map[*node]bool{}
	collectNodes(keep, kept)
	all := map[*node]bool{}
	collectNodes(root, all)
	if len(all) <= len(kept) {
		t.Fatalf("degenerate tree: %d nodes total, %d kept", len(all), len(kept))
	}

	releaseDiscarded(root, keep)
	for n := range all {
		if kept[n] {
			if n.env == nil {
				t.Fatal("kept node lost its env")
			}
		} else if n.env != nil {
			t.Fatal("discarded node still holds an env")
		}
	}

	// The kept subtree must still be searchable: its envs are live and
	// none of them was handed to the pool for recycling.
	for i := 0; i < s.Cfg.Gamma; i++ {
		s.explorePass(keep, s.wks[0])
	}
	for n := range kept {
		if n.env == nil {
			t.Fatal("continued search nilled a kept env")
		}
	}
}

// TestPooledClonesAreIndependent (white box): two nodes expanded after
// an intervening release must never share env backing arrays — the
// recycled clone is rebuilt from its own parent.
func TestPooledClonesAreIndependent(t *testing.T) {
	env, wl := cornerEnv()
	s := New(Config{Gamma: 8, Seed: 32, Workers: 1}, untrained(), wl, testScaler())
	res1 := s.Run(env)
	// Run again on the same Search: every env of run 2 is a recycled
	// clone from run 1's release. Determinism of the sequential search
	// is the aliasing canary — any live node reading recycled state
	// diverges immediately.
	res2 := New(Config{Gamma: 8, Seed: 32, Workers: 1}, untrained(), wl, testScaler()).Run(env)
	if !reflect.DeepEqual(res1.Anchors, res2.Anchors) || res1.Wirelength != res2.Wirelength {
		t.Fatalf("recycled-env run diverged: %v/%v vs %v/%v",
			res1.Anchors, res1.Wirelength, res2.Anchors, res2.Wirelength)
	}
	if env.T() != 0 {
		t.Fatal("search mutated the caller's env")
	}
}

// TestSequentialSearchUnchangedByEvalCache: routing the same agent
// through a CachedEvaluator must not change a single committed action
// — cache hits are bit-identical to misses, so the Workers=1 search
// stays bit-reproducible. Second run on a warm cache likewise.
func TestSequentialSearchUnchangedByEvalCache(t *testing.T) {
	env, wl := cornerEnv()
	ag := untrained()
	cfg := Config{Gamma: 16, Seed: 33, Workers: 1}

	plain := New(cfg, ag, wl, testScaler()).Run(env)
	if plain.CacheHits != 0 || plain.CacheMisses != 0 {
		t.Fatalf("plain evaluator reported cache counters %d/%d", plain.CacheHits, plain.CacheMisses)
	}

	ce := agent.NewCachedEvaluator(ag, 0)
	cold := New(cfg, ce, wl, testScaler()).Run(env)
	warm := New(cfg, ce, wl, testScaler()).Run(env)

	for _, r := range []struct {
		name string
		res  Result
	}{{"cold-cache", cold}, {"warm-cache", warm}} {
		if !reflect.DeepEqual(r.res.Anchors, plain.Anchors) {
			t.Errorf("%s anchors %v, plain %v", r.name, r.res.Anchors, plain.Anchors)
		}
		if r.res.Wirelength != plain.Wirelength || r.res.BestWirelength != plain.BestWirelength {
			t.Errorf("%s wirelength %v/%v, plain %v/%v",
				r.name, r.res.Wirelength, r.res.BestWirelength, plain.Wirelength, plain.BestWirelength)
		}
	}

	if cold.CacheMisses == 0 {
		t.Error("cold run recorded no cache misses")
	}
	// The root's γ explorations revisit expanded nodes; the tree reuse
	// means within-run hits already occur, and the warm run must serve
	// every evaluation the cold run inserted.
	if warm.CacheHits <= cold.CacheHits {
		t.Errorf("warm hits %d not above cold hits %d", warm.CacheHits, cold.CacheHits)
	}
	if warm.CacheMisses != 0 {
		t.Errorf("warm run missed %d times on an identical search", warm.CacheMisses)
	}
}

// TestParallelSearchSharedCacheRace: concurrent searches over one
// shared CachedEvaluator — pooled envs, concurrent one-state
// evaluations, LRU eviction — exercised under -race. Results must be
// complete legal allocations with a working hit counter.
func TestParallelSearchSharedCacheRace(t *testing.T) {
	ag := untrained()
	ce := agent.NewCachedEvaluator(ag, 128)
	var wg sync.WaitGroup
	results := make([]Result, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env, wl := cornerEnv()
			s := New(Config{Gamma: 12, Seed: int64(40 + i), Workers: 4}, ce, wl, testScaler())
			results[i] = s.Run(env)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if len(res.Anchors) != 3 {
			t.Fatalf("search %d: incomplete anchors %v", i, res.Anchors)
		}
		if res.CacheHits+res.CacheMisses == 0 {
			t.Errorf("search %d recorded no cache traffic", i)
		}
	}
}

// TestArenaSlicesAreZeroedAndDisjoint (white box): arena-carved slices
// must come back zeroed (the expansion logic relies on zero-value
// visits/value/vloss) and never overlap, including across chunk
// boundaries and for oversized requests.
func TestArenaSlicesAreZeroedAndDisjoint(t *testing.T) {
	var ar nodeArena
	seen := map[*int]bool{}
	total := 0
	for total < 3*arenaIntChunk { // cross at least two chunk boundaries
		n := 1000
		s := ar.intSlice(n)
		if len(s) != n {
			t.Fatalf("intSlice(%d) returned len %d", n, len(s))
		}
		for i := range s {
			if s[i] != 0 {
				t.Fatal("arena slice not zeroed")
			}
			if seen[&s[i]] {
				t.Fatal("arena slices overlap")
			}
			seen[&s[i]] = true
			s[i] = 7 // dirty it: reuse would be visible as non-zero
		}
		total += n
	}
	if s := ar.intSlice(2 * arenaIntChunk); len(s) != 2*arenaIntChunk {
		t.Fatal("oversized request not honoured")
	}
	if s := ar.floatSlice(3); cap(s) != 3 {
		t.Fatal("float slice capacity not clipped — appends would bleed into neighbours")
	}
	if s := ar.kidSlice(3); cap(s) != 3 {
		t.Fatal("kid slice capacity not clipped")
	}
	n1, n2 := ar.newNode(nil), ar.newNode(nil)
	if n1 == n2 {
		t.Fatal("arena handed out the same node twice")
	}
	if n1.visits != nil || n1.state != nodeNew {
		t.Fatal("arena node not zero-valued")
	}
}
