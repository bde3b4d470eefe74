package agent

import (
	"math"
	"sync"
	"sync/atomic"
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
// same placement state — the MCTS root re-evaluated across restarts,
// the greedy-RL episode's states re-reached by the search,
// transpositions where different action orders produce the same
// occupancy map — skip the network entirely.
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
// Safe for concurrent use. The table is split into 16 independently
// locked shards (selected by the low key bits, which the dual hash
// distributes uniformly), so parallel tree workers hitting the cache
// contend only when their states land in the same shard; the
// underlying evaluation runs outside every lock, so parallel cache
// misses never serialize the network.
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
	fp     uint64
	mask   uint64 // shard index mask: nshards-1
	shards [cacheShards]cacheShard

	// Lock-free statistics: every lookup increments exactly one of
	// hits/misses exactly once (intra-batch duplicates count as hits),
	// so hits+misses equals the number of lookups — a telemetry scrape
	// mid-run reads a consistent pair without taking any shard lock.
	hits, misses, evictions atomic.Uint64
}

// cacheShards is the maximum shard count (power of two; shard =
// key.a & mask). 16 shards cut lock contention ~16× at 8 tree workers
// while keeping the per-shard LRU rings small enough to stay
// cache-resident. Eviction is per shard, so the global replacement
// order is only approximately LRU; caches smaller than
// cacheMinSharded entries therefore stay single-shard, preserving the
// exact LRU semantics the eviction tests pin (tiny caches have no
// contention worth sharding away anyway).
const (
	cacheShards     = 16
	cacheMinSharded = 256
)

type cacheShard struct {
	mu   sync.Mutex
	m    map[cacheKey]int32
	ents []cacheEntry // intrusive LRU: index-linked, allocated once
	cap  int
	head int32 // most recently used, -1 when empty
	tail int32 // least recently used, -1 when empty
	// pending holds the keys evalOne is running the network for; done
	// (on mu) is broadcast whenever one leaves.
	pending map[cacheKey]struct{}
	done    sync.Cond
}

type cacheKey struct{ a, b uint64 }

type cacheEntry struct {
	key        cacheKey
	out        Output
	prev, next int32
}

// DefaultCacheSize is the total entry capacity NewCachedEvaluator uses
// when the caller passes capacity <= 0. One entry holds one ζ²-float32
// Probs slice (1 KiB at ζ=16), so the default is a few MiB.
const DefaultCacheSize = 4096

// NewCachedEvaluator wraps ag with an LRU evaluation cache holding up
// to capacity entries in total (DefaultCacheSize when capacity <= 0).
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
	nshards := cacheShards
	if capacity < cacheMinSharded {
		nshards = 1
	}
	perShard := (capacity + nshards - 1) / nshards
	c := &CachedEvaluator{inf: inf, fp: fingerprintOf(inf), mask: uint64(nshards - 1)}
	for i := 0; i < nshards; i++ {
		s := &c.shards[i]
		s.m = make(map[cacheKey]int32, perShard)
		s.pending = make(map[cacheKey]struct{})
		s.done.L = &s.mu
		s.ents = make([]cacheEntry, 0, perShard)
		s.cap = perShard
		s.head, s.tail = -1, -1
	}
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

func (c *CachedEvaluator) shard(key cacheKey) *cacheShard {
	return &c.shards[key.a&c.mask]
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

// lookup probes one shard for key, refreshing recency on a hit.
func (c *CachedEvaluator) lookup(key cacheKey) (Output, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if idx, ok := s.m[key]; ok {
		s.touch(idx)
		out := s.ents[idx].out
		s.mu.Unlock()
		return out, true
	}
	s.mu.Unlock()
	return Output{}, false
}

// store inserts key→out into its shard.
func (c *CachedEvaluator) store(key cacheKey, out Output) {
	s := c.shard(key)
	s.mu.Lock()
	c.insert(s, key, out)
	s.mu.Unlock()
}

// count records one lookup as a hit or a miss.
func (c *CachedEvaluator) count(hit bool) {
	if hit {
		c.hits.Add(1)
		obsCacheHits.Inc()
	} else {
		c.misses.Add(1)
		obsCacheMisses.Inc()
	}
}

// evalOne is EvaluateBatchInto for one state — a search worker's leaf
// or a greedy step — through the caller's buffers: one lookup, counted
// as one hit or one miss, and on a miss one network pass whose output
// is stored. A state another call is already running the network for
// is waited for and counts as a hit: two workers that reach one
// placement by different moves at the same time run the network once,
// as a serial evaluator would. If that evaluation panics, a waiter runs
// it instead.
func (c *CachedEvaluator) evalOne(in []BatchInput, out []Output) {
	key := stateKey(c.fp, in[0].T, in[0].SP, in[0].SA)
	s := c.shard(key)
	s.mu.Lock()
	for {
		if idx, ok := s.m[key]; ok {
			s.touch(idx)
			out[0] = s.ents[idx].out
			s.mu.Unlock()
			c.count(true)
			return
		}
		if _, busy := s.pending[key]; !busy {
			break
		}
		s.done.Wait()
	}
	s.pending[key] = struct{}{}
	s.mu.Unlock()
	c.count(false)
	defer func() {
		s.mu.Lock()
		delete(s.pending, key)
		s.done.Broadcast()
		s.mu.Unlock()
	}()
	c.inf.EvaluateBatchInto(in, out)
	c.store(key, out[0])
}

// EvaluateBatch is EvaluateBatchInto into a fresh output slice: the
// ECO move-prior batch (internal/eco) evaluates through it.
func (c *CachedEvaluator) EvaluateBatch(in []BatchInput) []Output {
	if len(in) == 0 {
		return nil
	}
	out := make([]Output, len(in))
	c.EvaluateBatchInto(in, out)
	return out
}

// EvaluateBatchInto resolves each input against the cache and runs the
// network once over the misses only. Duplicate states inside one batch
// are evaluated once. Keys are hashed and shard locks taken per
// element, so concurrent batches on different shards proceed in
// parallel.
func (c *CachedEvaluator) EvaluateBatchInto(in []BatchInput, out []Output) {
	if len(out) != len(in) {
		panic("agent: CachedEvaluator.EvaluateBatchInto length mismatch")
	}
	if len(in) == 1 {
		c.evalOne(in, out)
		return
	}
	sc := c.getBatchScratch(len(in))
	defer c.putBatchScratch(sc)

	var hits, misses uint64
	for i := range in {
		sc.keys[i] = stateKey(c.fp, in[i].T, in[i].SP, in[i].SA)
		if o, ok := c.lookup(sc.keys[i]); ok {
			hits++
			out[i] = o
			continue
		}
		if first, dup := sc.seen[sc.keys[i]]; dup {
			// Intra-batch duplicate: the first occurrence's evaluation
			// will serve both. Counted as a hit — the network runs once.
			hits++
			sc.dups = append(sc.dups, [2]int32{int32(i), first})
			continue
		}
		misses++
		sc.seen[sc.keys[i]] = int32(i)
		sc.miss = append(sc.miss, int32(i))
		sc.sub = append(sc.sub, in[i])
	}
	c.hits.Add(hits)
	c.misses.Add(misses)
	obsCacheHits.Add(hits)
	obsCacheMisses.Add(misses)

	if len(sc.sub) > 0 {
		sc.subOut = sc.subOut[:len(sc.sub)]
		c.inf.EvaluateBatchInto(sc.sub, sc.subOut)
		for j, i := range sc.miss {
			out[i] = sc.subOut[j]
			c.store(sc.keys[i], sc.subOut[j])
		}
	}
	for _, d := range sc.dups {
		out[d[0]] = out[d[1]]
	}
}

// Stats returns the cumulative hit/miss counters. Lock-free: safe to
// call from a telemetry scrape while searches hammer the cache.
func (c *CachedEvaluator) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns the cumulative count of LRU entries recycled at
// capacity.
func (c *CachedEvaluator) Evictions() uint64 { return c.evictions.Load() }

// Len returns the current number of cached entries across all shards.
func (c *CachedEvaluator) Len() int {
	n := 0
	for i := 0; i <= int(c.mask); i++ {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// touch moves entry idx to the shard's LRU head. Caller holds s.mu.
func (s *cacheShard) touch(idx int32) {
	if s.head == idx {
		return
	}
	e := &s.ents[idx]
	if e.prev >= 0 {
		s.ents[e.prev].next = e.next
	}
	if e.next >= 0 {
		s.ents[e.next].prev = e.prev
	}
	if s.tail == idx {
		s.tail = e.prev
	}
	e.prev = -1
	e.next = s.head
	if s.head >= 0 {
		s.ents[s.head].prev = idx
	}
	s.head = idx
	if s.tail < 0 {
		s.tail = idx
	}
}

// insert adds (or refreshes) a cache entry in shard s, evicting the
// shard's LRU tail at capacity. Caller holds s.mu.
func (c *CachedEvaluator) insert(s *cacheShard, key cacheKey, out Output) {
	if idx, ok := s.m[key]; ok {
		// A concurrent miss on the same state got here first; keep the
		// stored Output (bit-identical anyway) and refresh recency.
		s.touch(idx)
		return
	}
	var idx int32
	if len(s.ents) < s.cap {
		s.ents = append(s.ents, cacheEntry{})
		idx = int32(len(s.ents) - 1)
	} else {
		// Recycle the shard's least recently used entry.
		c.evictions.Add(1)
		obsCacheEvictions.Inc()
		idx = s.tail
		e := &s.ents[idx]
		delete(s.m, e.key)
		s.tail = e.prev
		if s.tail >= 0 {
			s.ents[s.tail].next = -1
		} else {
			s.head = -1
		}
	}
	s.ents[idx] = cacheEntry{key: key, out: out, prev: -1, next: s.head}
	if s.head >= 0 {
		s.ents[s.head].prev = idx
	}
	s.head = idx
	if s.tail < 0 {
		s.tail = idx
	}
	s.m[key] = idx
}

// batchScratch carries the per-call buffers of EvaluateBatchInto.
type batchScratch struct {
	keys   []cacheKey
	miss   []int32
	dups   [][2]int32
	sub    []BatchInput
	subOut []Output
	seen   map[cacheKey]int32
}

var batchScratchPool = sync.Pool{New: func() any {
	return &batchScratch{seen: make(map[cacheKey]int32, 16)}
}}

func (c *CachedEvaluator) getBatchScratch(n int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.keys) < n {
		sc.keys = make([]cacheKey, n)
		sc.subOut = make([]Output, n)
	}
	sc.keys = sc.keys[:n]
	sc.miss = sc.miss[:0]
	sc.dups = sc.dups[:0]
	sc.sub = sc.sub[:0]
	sc.subOut = sc.subOut[:0]
	for k := range sc.seen {
		delete(sc.seen, k)
	}
	return sc
}

func (c *CachedEvaluator) putBatchScratch(sc *batchScratch) {
	for i := range sc.sub {
		sc.sub[i] = BatchInput{} // drop references to caller state
	}
	batchScratchPool.Put(sc)
}
