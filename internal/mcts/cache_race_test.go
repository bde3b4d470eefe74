package mcts

import (
	"sync"
	"sync/atomic"
	"testing"

	"macroplace/internal/agent"
	"macroplace/internal/rl"
)

// countingCache wraps a CachedEvaluator and counts every lookup
// submitted to it, so the workers and the greedy episode take the exact
// production path through the cache.
type countingCache struct {
	inner   *agent.CachedEvaluator
	lookups atomic.Uint64
}

func (c *countingCache) EvaluateBatchInto(in []agent.BatchInput, out []agent.Output) {
	c.lookups.Add(uint64(len(in)))
	c.inner.EvaluateBatchInto(in, out)
}

// TestCacheCountersExactUnderConcurrency pins the accounting invariant
// of the shared evaluation cache: hits + misses equals the number of
// lookups EXACTLY, even while a Workers=8 search and concurrent greedy
// episodes hammer the same cache. A torn increment under contention
// would silently lose events; run with -race to also catch any
// unsynchronized counter or LRU access.
func TestCacheCountersExactUnderConcurrency(t *testing.T) {
	// Capacity 16 forces recycling, so the eviction path participates
	// in the race; 4096 (the default) never fills, so every insert
	// appends.
	t.Run("capacity=16", func(t *testing.T) { cacheCounterRace(t, 16) })
	t.Run("capacity=4096", func(t *testing.T) { cacheCounterRace(t, 4096) })
}

func cacheCounterRace(t *testing.T, capacity int) {
	env, wl := cornerEnv()
	cc := &countingCache{inner: agent.NewCachedEvaluator(untrained(), capacity)}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			rl.PlayGreedyEval(cc, env.Clone(), wl)
		}
	}()
	for k := 0; k < 3; k++ {
		s := New(Config{Gamma: 24, Seed: int64(40 + k), Workers: 8}, cc, wl, testScaler())
		s.Run(env)
	}
	wg.Wait()

	hits, misses := cc.inner.Stats()
	lookups := cc.lookups.Load()
	if hits+misses != lookups {
		t.Fatalf("hits (%d) + misses (%d) = %d, want exactly %d lookups",
			hits, misses, hits+misses, lookups)
	}
	if lookups == 0 {
		t.Fatal("no lookups recorded — the wrapper is not on the search path")
	}
	if cc.inner.Evictions() == 0 {
		t.Log("note: no evictions occurred this run (capacity never filled)")
	}
}
