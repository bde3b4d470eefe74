package agent

import (
	"math"
	"sync"
)

// Inferencer is the pure batched-inference surface every evaluation
// outside training goes through: the MCTS workers (mcts.Evaluator) and
// greedy episodes call it with one-state batches. *Agent implements it
// directly, CachedEvaluator memoizes it, and wrappers (timing, fault
// injection) implement it by delegating. Implementations must be safe
// for concurrent use and bit-identical per sample to
// Agent.EvaluateBatchInto (the cache stores outputs and replays them as
// hits).
type Inferencer interface {
	EvaluateBatchInto(in []BatchInput, out []Output)
}

// CachedEvaluator wraps an Inferencer (normally an Agent) with an LRU
// cache over its inference results, so repeated evaluations of the
// same placement state — the greedy-RL episode's states re-reached by
// the search, transpositions where different action orders produce the
// same occupancy map, an ECO job's move priors repeated by a warm job —
// skip the network entirely.
//
// Keying is content-addressed: the 128-bit key hashes ⟨t, the float64
// bit patterns of s_p and s_a⟩. An identical placement prefix always
// reproduces identical s_p/s_a bits (the environment is deterministic),
// so content keying subsumes keying by the action sequence — and it
// additionally unifies true transpositions, which a prefix hash would
// miss. Two distinct states collide only if two independent 64-bit
// hashes collide simultaneously (~2⁻¹²⁸ per pair; with the ≤10⁵ states
// of a search, negligible).
//
// A hit returns the stored Output. Probs is shared between the cache
// and every caller: it is read-only (the search and the greedy player
// only read it). Hits are bit-identical to misses — the cache stores
// exactly what the wrapped Inferencer returned, and
// Agent.EvaluateBatchInto is pinned bit-identical to Forward.
//
// Safe for concurrent use. One mutex guards the table, its exact LRU
// order and the counters; the network pass of a miss runs outside it,
// so parallel cache misses never serialize the network.
//
// The cache assumes frozen weights: it must be created after
// pre-training (or weight loading) and discarded — or Retargeted —
// if the agent trains again; core.Placer wires the discard, and the
// ECO warm store (internal/eco) wires Retarget. As defense in depth
// against a cache outliving its weights, every key is salted with the
// wrapped Inferencer's weight fingerprint (Fingerprint, when
// implemented): entries stored for one set of weights are unreachable
// through any other, so a warm cache reused across jobs can never
// serve hits from a differently-trained agent.
type CachedEvaluator struct {
	inf Inferencer
	// fp salts every key with the weight fingerprint of inf (zero when
	// inf does not expose one — then the structural 1:1 pairing of
	// cache and evaluator is the only staleness guard, as before).
	fp uint64

	mu   sync.Mutex
	m    map[cacheKey]int32
	ents []cacheEntry // intrusive LRU: index-linked, allocated once at capacity
	head int32        // most recently used, -1 when empty
	tail int32        // least recently used, -1 when empty
	// pending holds the keys evalOne is running the network for; done
	// (on mu) is broadcast whenever one leaves.
	pending map[cacheKey]struct{}
	done    sync.Cond
	// Every lookup counts exactly one hit or one miss, so hits+misses
	// equals the number of lookups.
	hits, misses, evictions uint64
}

type cacheKey struct{ a, b uint64 }

type cacheEntry struct {
	key        cacheKey
	out        Output
	prev, next int32
}

// DefaultCacheSize is the entry capacity NewCachedEvaluator uses when
// the caller passes capacity <= 0. One entry holds one ζ²-float32
// Probs slice (1 KiB at ζ=16), so the default is a few MiB.
const DefaultCacheSize = 4096

// NewCachedEvaluator wraps ag with an LRU evaluation cache holding up
// to capacity entries (DefaultCacheSize when capacity <= 0).
func NewCachedEvaluator(ag *Agent, capacity int) *CachedEvaluator {
	return NewCachedEvaluatorFor(ag, capacity)
}

// NewCachedEvaluatorFor is NewCachedEvaluator over any Inferencer.
// When inf exposes a weight fingerprint (Agent does), it is captured
// now and salted into every key.
func NewCachedEvaluatorFor(inf Inferencer, capacity int) *CachedEvaluator {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	c := &CachedEvaluator{
		inf:     inf,
		fp:      fingerprintOf(inf),
		m:       make(map[cacheKey]int32, capacity),
		ents:    make([]cacheEntry, 0, capacity),
		head:    -1,
		tail:    -1,
		pending: make(map[cacheKey]struct{}),
	}
	c.done.L = &c.mu
	return c
}

// fingerprinter is the optional weight-identity surface of an
// Inferencer. Agent implements it; wrappers that intercept evaluations
// (fault injectors) typically don't, which leaves their caches
// unsalted — matching the pre-fingerprint behaviour.
type fingerprinter interface {
	Fingerprint() uint64
}

// Fingerprint hashes the agent's served identity — its shape and every
// parameter's float32 bits — with FNV-1a: two agents share a
// fingerprint exactly when their evaluations are interchangeable.
// CachedEvaluator salts its keys with it; the ECO warm store also uses
// it to detect that a stored agent was retrained.
func (a *Agent) Fingerprint() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	word := func(w uint64) {
		h = (h ^ w) * fnvPrime
	}
	word(uint64(a.Cfg.Zeta))
	word(uint64(a.Cfg.Channels))
	word(uint64(a.Cfg.ResBlocks))
	word(uint64(a.Cfg.MaxSteps))
	for _, p := range a.params {
		word(uint64(len(p.W)))
		for _, v := range p.W {
			word(uint64(math.Float32bits(v)))
		}
	}
	return h
}

func fingerprintOf(inf Inferencer) uint64 {
	if f, ok := inf.(fingerprinter); ok {
		return f.Fingerprint()
	}
	return 0
}

// Fingerprint returns the weight fingerprint salted into this cache's
// keys (zero when the wrapped Inferencer exposes none).
func (c *CachedEvaluator) Fingerprint() uint64 { return c.fp }

// Retarget points the cache at a different Inferencer — the ECO warm
// store's retrain path: the cache object (and whatever entries remain
// valid) persists across jobs on one design, while a retrained agent
// swaps in underneath. The key salt is re-captured from inf, so
// entries stored under the old weights become unreachable immediately
// (they age out of the LRU); zero stale hits is guaranteed by
// construction rather than by remembering to flush.
//
// Not safe to call concurrently with lookups: quiesce the cache (no
// in-flight EvaluateBatchInto) first. The warm store
// serializes jobs per design, which provides exactly that.
func (c *CachedEvaluator) Retarget(inf Inferencer) {
	c.inf = inf
	c.fp = fingerprintOf(inf)
}

// stateKey hashes ⟨fp, t, s_p bits, s_a bits⟩ with two structurally
// different 64-bit word hashes: FNV-1a over words, and an add-fold
// with splitmix64-style avalanching. Lengths and t are folded in so
// states of different shape never share a key, and the weight
// fingerprint fp is the first word mixed, so the same state evaluated
// under different weights occupies different cache slots.
func stateKey(fp uint64, t int, sp, sa []float64) cacheKey {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
		mixMul1   = 0xbf58476d1ce4e5b9
		mixMul2   = 0x94d049bb133111eb
	)
	h1 := uint64(fnvOffset)
	h2 := uint64(0x2545f4914f6cdd1d)
	mix := func(w uint64) {
		h1 = (h1 ^ w) * fnvPrime
		h2 += w + 0x9e3779b97f4a7c15
		h2 = (h2 ^ (h2 >> 30)) * mixMul1
		h2 = (h2 ^ (h2 >> 27)) * mixMul2
		h2 ^= h2 >> 31
	}
	mix(fp)
	mix(uint64(t))
	mix(uint64(len(sp))<<32 | uint64(len(sa)))
	for _, v := range sp {
		mix(math.Float64bits(v))
	}
	for _, v := range sa {
		mix(math.Float64bits(v))
	}
	return cacheKey{a: h1, b: h2}
}

// evalOne evaluates one state — a search worker's leaf, a greedy step
// or one ECO move prior — through the caller's buffers: one lookup,
// counted as one hit or one miss, and on a miss one network pass whose
// output is stored. A state another call is already running the
// network for is waited for and counts as a hit: two workers that
// reach one placement by different moves at the same time run the
// network once, as a serial evaluator would. If that evaluation
// panics, a waiter runs it instead.
func (c *CachedEvaluator) evalOne(in []BatchInput, out []Output) {
	key := stateKey(c.fp, in[0].T, in[0].SP, in[0].SA)
	c.mu.Lock()
	for {
		if idx, ok := c.m[key]; ok {
			c.touch(idx)
			out[0] = c.ents[idx].out
			c.hits++
			c.mu.Unlock()
			obsCacheHits.Inc()
			return
		}
		if _, busy := c.pending[key]; !busy {
			break
		}
		c.done.Wait()
	}
	c.pending[key] = struct{}{}
	c.misses++
	c.mu.Unlock()
	obsCacheMisses.Inc()
	evaluated := false
	defer func() {
		c.mu.Lock()
		if evaluated {
			c.insert(key, out[0])
		}
		delete(c.pending, key)
		c.done.Broadcast()
		c.mu.Unlock()
	}()
	c.inf.EvaluateBatchInto(in, out)
	evaluated = true
}

// EvaluateBatchInto looks each state up in turn. A state repeated
// within one batch is one miss followed by hits.
func (c *CachedEvaluator) EvaluateBatchInto(in []BatchInput, out []Output) {
	if len(out) != len(in) {
		panic("agent: CachedEvaluator.EvaluateBatchInto length mismatch")
	}
	for i := range in {
		c.evalOne(in[i:i+1], out[i:i+1])
	}
}

// Stats returns the cumulative hit/miss counters.
func (c *CachedEvaluator) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns the cumulative count of LRU entries recycled at
// capacity.
func (c *CachedEvaluator) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Len returns the current number of cached entries.
func (c *CachedEvaluator) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// touch moves entry idx to the LRU head. Caller holds c.mu.
func (c *CachedEvaluator) touch(idx int32) {
	if c.head == idx {
		return
	}
	e := &c.ents[idx]
	if e.prev >= 0 {
		c.ents[e.prev].next = e.next
	}
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	}
	if c.tail == idx {
		c.tail = e.prev
	}
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.ents[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
}

// insert adds key, which evalOne's pending set keeps absent from the
// table, evicting the LRU tail at capacity. Caller holds c.mu.
func (c *CachedEvaluator) insert(key cacheKey, out Output) {
	var idx int32
	if len(c.ents) < cap(c.ents) {
		c.ents = append(c.ents, cacheEntry{})
		idx = int32(len(c.ents) - 1)
	} else {
		// Recycle the least recently used entry.
		c.evictions++
		obsCacheEvictions.Inc()
		idx = c.tail
		e := &c.ents[idx]
		delete(c.m, e.key)
		c.tail = e.prev
		if c.tail >= 0 {
			c.ents[c.tail].next = -1
		} else {
			c.head = -1
		}
	}
	c.ents[idx] = cacheEntry{key: key, out: out, prev: -1, next: c.head}
	if c.head >= 0 {
		c.ents[c.head].prev = idx
	}
	c.head = idx
	if c.tail < 0 {
		c.tail = idx
	}
	c.m[key] = idx
}
