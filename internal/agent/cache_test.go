package agent

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"macroplace/internal/rng"
)

func testStates(n, count int, seed int64) []BatchInput {
	r := rng.New(seed)
	ins := make([]BatchInput, count)
	for i := range ins {
		sp := make([]float64, n)
		sa := make([]float64, n)
		for j := range sp {
			sp[j] = r.Float64()
			sa[j] = r.Float64()
		}
		ins[i] = BatchInput{SP: sp, SA: sa, T: i % 7}
	}
	return ins
}

func requireSameOutput(t *testing.T, what string, got, want Output) {
	t.Helper()
	if math.Float32bits(got.Value) != math.Float32bits(want.Value) {
		t.Fatalf("%s: value %v != %v", what, got.Value, want.Value)
	}
	if len(got.Probs) != len(want.Probs) {
		t.Fatalf("%s: probs length %d != %d", what, len(got.Probs), len(want.Probs))
	}
	for i := range got.Probs {
		if math.Float32bits(got.Probs[i]) != math.Float32bits(want.Probs[i]) {
			t.Fatalf("%s: probs[%d] %v != %v", what, i, got.Probs[i], want.Probs[i])
		}
	}
}

// A cache hit must return bit-identical policy and value to the miss
// that populated it — and to the uncached agent.
func TestCacheHitBitIdenticalToMiss(t *testing.T) {
	ag := New(Config{Zeta: 6, Channels: 8, ResBlocks: 2, MaxSteps: 9, Seed: 4})
	ce := NewCachedEvaluator(ag, 64)
	states := testStates(36, 6, 12)
	miss := make([]Output, len(states))
	for i, in := range states {
		miss[i] = evalState(ce, in.SP, in.SA, in.T)
	}
	if h, m := ce.Stats(); h != 0 || m != uint64(len(states)) {
		t.Fatalf("cold cache: hits=%d misses=%d", h, m)
	}
	for i, in := range states {
		hit := evalState(ce, in.SP, in.SA, in.T)
		requireSameOutput(t, "hit vs miss", hit, miss[i])
		requireSameOutput(t, "hit vs uncached", hit, evalState(ag, in.SP, in.SA, in.T))
	}
	if h, m := ce.Stats(); h != uint64(len(states)) || m != uint64(len(states)) {
		t.Fatalf("warm cache: hits=%d misses=%d", h, m)
	}
}

func TestCacheBatchMixedHitsAndDuplicates(t *testing.T) {
	ag := New(Config{Zeta: 6, Channels: 8, ResBlocks: 2, MaxSteps: 9, Seed: 5})
	ce := NewCachedEvaluator(ag, 64)
	states := testStates(36, 4, 13)
	// Prime the cache with state 0 via the one-state path.
	first := evalState(ce, states[0].SP, states[0].SA, states[0].T)

	// Batch: [cached, new, duplicate-of-new, new].
	batch := []BatchInput{states[0], states[1], states[1], states[2]}
	outs := evaluateBatch(ce, batch)
	requireSameOutput(t, "batch cached element", outs[0], first)
	requireSameOutput(t, "batch duplicate element", outs[2], outs[1])
	requireSameOutput(t, "batch vs direct", outs[3], evalState(ag, states[2].SP, states[2].SA, states[2].T))
	h, m := ce.Stats()
	if h != 2 || m != 3 { // hit: cached + intra-batch dup; miss: 0-cold, 1, 3
		t.Fatalf("hits=%d misses=%d, want 2/3", h, m)
	}
	// Same batch again: all hits, bit-identical.
	again := evaluateBatch(ce, batch)
	for i := range again {
		requireSameOutput(t, "rebatch", again[i], outs[i])
	}
	if h2, _ := ce.Stats(); h2 != h+4 {
		t.Fatalf("rebatch hits=%d, want %d", h2, h+4)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	ag := New(Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 9, Seed: 6})
	ce := NewCachedEvaluator(ag, 2)
	states := testStates(16, 3, 14)
	evalState(ce, states[0].SP, states[0].SA, states[0].T) // miss
	evalState(ce, states[1].SP, states[1].SA, states[1].T) // miss
	evalState(ce, states[0].SP, states[0].SA, states[0].T) // hit; 1 becomes LRU
	evalState(ce, states[2].SP, states[2].SA, states[2].T) // miss, evicts 1
	if n := ce.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	evalState(ce, states[1].SP, states[1].SA, states[1].T) // must be a miss again
	h, m := ce.Stats()
	if h != 1 || m != 4 {
		t.Fatalf("hits=%d misses=%d, want 1/4", h, m)
	}
	// 0 was evicted by re-inserting 1; 2 must still be cached.
	evalState(ce, states[2].SP, states[2].SA, states[2].T)
	if h2, _ := ce.Stats(); h2 != 2 {
		t.Fatalf("expected state 2 to survive eviction")
	}

	// The order is exact at any capacity: one state past 300 evicts
	// exactly one entry, the least recently used.
	ce = NewCachedEvaluator(ag, 300)
	states = testStates(16, 301, 14)
	for _, in := range states {
		evalState(ce, in.SP, in.SA, in.T)
	}
	if n, ev := ce.Len(), ce.Evictions(); n != 300 || ev != 1 {
		t.Fatalf("capacity 300 after 301 states: %d entries, %d evictions, want 300/1", n, ev)
	}
	evalState(ce, states[0].SP, states[0].SA, states[0].T)
	if h, m := ce.Stats(); h != 0 || m != 302 {
		t.Fatalf("hits=%d misses=%d, want 0/302: the least recently used state survived", h, m)
	}
}

func TestCacheKeyDistinguishesStates(t *testing.T) {
	sp := []float64{0.25, 0.5}
	sa := []float64{1, 0}
	base := stateKey(0, 1, sp, sa)
	if k := stateKey(0, 2, sp, sa); k == base {
		t.Fatal("t not keyed")
	}
	if k := stateKey(0, 1, sa, sp); k == base {
		t.Fatal("sp/sa order not keyed")
	}
	sp2 := []float64{0.25, 0.5000000001}
	if k := stateKey(0, 1, sp2, sa); k == base {
		t.Fatal("sp content not keyed")
	}
	if k := stateKey(7, 1, sp, sa); k == base {
		t.Fatal("weight fingerprint not keyed")
	}
	if k := stateKey(0, 1, sp, sa); k != base {
		t.Fatal("stateKey not deterministic")
	}
}

// TestCacheNoCrossFingerprintHits is the ECO warm-store regression:
// one cache object persists across a retrain (Retarget swaps the agent
// underneath, as internal/eco does between jobs on the same design),
// and entries stored under the old weights must never serve as hits
// for the new ones — every post-retrain evaluation is a miss returning
// the new agent's output bit-exactly.
func TestCacheNoCrossFingerprintHits(t *testing.T) {
	cfg := Config{Zeta: 6, Channels: 8, ResBlocks: 2, MaxSteps: 9}
	cfg.Seed = 21
	agA := New(cfg)
	cfg.Seed = 22
	agB := New(cfg)
	if agA.Fingerprint() == agB.Fingerprint() {
		t.Fatal("differently seeded agents share a fingerprint")
	}

	ce := NewCachedEvaluator(agA, 64)
	if ce.Fingerprint() != agA.Fingerprint() {
		t.Fatal("cache did not capture the agent's fingerprint")
	}
	states := testStates(36, 5, 17)
	for _, in := range states {
		evalState(ce, in.SP, in.SA, in.T) // populate under A's weights
	}

	// "Retrain": the same cache object retargets to B.
	ce.Retarget(agB)
	if ce.Fingerprint() != agB.Fingerprint() {
		t.Fatal("Retarget did not re-capture the fingerprint")
	}
	for _, in := range states {
		got := evalState(ce, in.SP, in.SA, in.T)
		requireSameOutput(t, "post-retrain", got, evalState(agB, in.SP, in.SA, in.T))
	}
	outs := evaluateBatch(ce, states)
	for i, in := range states {
		requireSameOutput(t, "post-retrain batch", outs[i], evalState(agB, in.SP, in.SA, in.T))
	}
	h, m := ce.Stats()
	// A-phase: 5 misses. B-phase Forward loop: 5 misses (zero
	// cross-fingerprint hits). B-phase batch: 5 hits on B's own entries.
	if h != 5 || m != 10 {
		t.Fatalf("hits=%d misses=%d, want 5/10 (a cross-fingerprint hit occurred)", h, m)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	ag := New(Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 9, Seed: 7})
	ce := NewCachedEvaluator(ag, 8) // small: forces concurrent eviction
	states := testStates(16, 12, 15)
	want := make([]Output, len(states))
	for i, in := range states {
		want[i] = evalState(ag, in.SP, in.SA, in.T)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (w + rep) % len(states)
				got := evalState(ce, states[i].SP, states[i].SA, states[i].T)
				requireSameOutput(t, "concurrent", got, want[i])
				outs := evaluateBatch(ce, states[i:i+1])
				requireSameOutput(t, "concurrent batch", outs[0], want[i])
			}
		}(w)
	}
	wg.Wait()
}

// heldInferencer counts calls into the network and holds each call up
// to hold for a second one to arrive; with failFirst the first call
// panics after its hold.
type heldInferencer struct {
	ag        *Agent
	hold      time.Duration
	failFirst bool
	calls     atomic.Int64
	second    chan struct{} // closed by the second call
}

func (h *heldInferencer) EvaluateBatchInto(in []BatchInput, out []Output) {
	n := h.calls.Add(1)
	if n == 2 {
		close(h.second)
	}
	select {
	case <-h.second:
	case <-time.After(h.hold):
	}
	if h.failFirst && n == 1 {
		panic("held inferencer: injected failure")
	}
	h.ag.EvaluateBatchInto(in, out)
}

// TestCacheEvaluatesConcurrentDuplicatesOnce: one-state evaluations of
// one state from concurrent goroutines (two search workers reaching a
// placement by different moves) run the network once; the others wait
// for it and count as hits. When that evaluation panics, a waiter runs
// it instead and every other caller still gets the right output.
func TestCacheEvaluatesConcurrentDuplicatesOnce(t *testing.T) {
	ag := New(Config{Zeta: 4, Channels: 4, ResBlocks: 1, MaxSteps: 9, Seed: 7})
	st := testStates(16, 1, 21)[0]
	want := evalState(ag, st.SP, st.SA, st.T)
	for _, failFirst := range []bool{false, true} {
		inf := &heldInferencer{ag: ag, hold: 50 * time.Millisecond, failFirst: failFirst, second: make(chan struct{})}
		ce := NewCachedEvaluatorFor(inf, 64)
		const callers = 4
		outs := make([]Output, callers)
		var panics atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() {
					if recover() != nil {
						panics.Add(1)
						outs[i] = want // nothing to compare for the failed call
					}
				}()
				ce.EvaluateBatchInto([]BatchInput{st}, outs[i:i+1])
			}(i)
		}
		wg.Wait()
		wantCalls, wantPanics := int64(1), int64(0)
		if failFirst {
			wantCalls, wantPanics = 2, 1
		}
		if got := inf.calls.Load(); got != wantCalls {
			t.Fatalf("failFirst=%v: %d network calls for one state, want %d", failFirst, got, wantCalls)
		}
		if got := panics.Load(); got != wantPanics {
			t.Fatalf("failFirst=%v: %d callers panicked, want %d", failFirst, got, wantPanics)
		}
		if hits, misses := ce.Stats(); misses != uint64(wantCalls) || hits+misses != callers {
			t.Fatalf("failFirst=%v: hits/misses = %d/%d, want %d misses of %d lookups", failFirst, hits, misses, wantCalls, callers)
		}
		for i := range outs {
			requireSameOutput(t, "duplicate caller", outs[i], want)
		}
	}
}
