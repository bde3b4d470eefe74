package eco

import (
	"sync"

	"macroplace/internal/agent"
	"macroplace/internal/rl"
)

// Entry is the warm per-design state one full or ECO job leaves behind
// for the next: the trained agent, the evaluation cache that fronts
// it, and the calibrated reward scaler. The cache object is persistent
// — a retrain swaps the agent underneath via Retarget rather than
// replacing the cache, so entries from the old weights become
// unreachable (the fingerprint salt in every key guarantees no stale
// hit) and age out of the LRU naturally.
type Entry struct {
	// mu guards the entry's identity: jobs using the entry hold the
	// read lock for their duration (cache lookups are thread-safe on
	// their own), while a retrain — which swaps the agent and
	// retargets the cache, neither safe concurrently with use — takes
	// the write lock.
	mu sync.RWMutex

	Agent  *agent.Agent
	Cache  *agent.CachedEvaluator
	Scaler rl.Scaler
	// FP is the agent's weight fingerprint at store/retrain time;
	// mismatch with Agent.Fingerprint() means someone trained the
	// stored agent without going through Retrain — a bug.
	FP uint64
}

// retrain swaps in a freshly trained agent. Caller holds e.mu.
func (e *Entry) retrain(ag *agent.Agent, scaler rl.Scaler) {
	e.Agent = ag
	e.Scaler = scaler
	e.FP = ag.Fingerprint()
	e.Cache.Retarget(ag)
	obsWarmRetrains.Inc()
}

// WarmStore holds warm per-design state across jobs, keyed by the
// post-delta netlist's content hash mixed with the training
// configuration (see Key). Capacity-bounded with LRU eviction: an ECO
// fleet cycling through more designs than the store holds keeps the
// hot ones warm. All methods are safe for concurrent use.
type WarmStore struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*Entry
	// recency: monotone use counter per key (small stores — a scan
	// beats maintaining an intrusive list).
	stamp map[uint64]uint64
	clock uint64
}

// DefaultWarmCapacity bounds the process-wide Default store: one entry
// per distinct design in flight, a handful of agents plus caches each.
const DefaultWarmCapacity = 8

// Default is the process-wide warm store the serve daemon and the CLIs
// use. Tests construct private stores instead.
var Default = NewWarmStore(DefaultWarmCapacity)

// NewWarmStore returns an empty store evicting beyond capacity
// (minimum 1).
func NewWarmStore(capacity int) *WarmStore {
	if capacity < 1 {
		capacity = 1
	}
	return &WarmStore{
		cap:     capacity,
		entries: make(map[uint64]*Entry, capacity),
		stamp:   make(map[uint64]uint64, capacity),
	}
}

// Key derives the store key: the design's structural content hash
// mixed with every configuration word that changes what the warm state
// would be (grid resolution, network shape, training budget, seed).
// Same circuit + same training recipe ⇒ same key ⇒ reusable state.
func Key(contentHash uint64, cfgWords ...uint64) uint64 {
	const fnvPrime = 1099511628211
	h := contentHash
	for _, w := range cfgWords {
		h = (h ^ w) * fnvPrime
	}
	return h
}

// Lookup returns the entry for key, refreshing its recency. The
// caller must Acquire the entry before using it.
func (s *WarmStore) Lookup(key uint64) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok {
		s.clock++
		s.stamp[key] = s.clock
		obsWarmHits.Inc()
	} else {
		obsWarmMisses.Inc()
	}
	return e, ok
}

// Store inserts (or replaces) the entry for key, evicting the least
// recently used entry beyond capacity.
func (s *WarmStore) Store(key uint64, e *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[key]; !exists && len(s.entries) >= s.cap {
		var lruKey uint64
		lruStamp := ^uint64(0)
		for k, st := range s.stamp {
			if st < lruStamp {
				lruKey, lruStamp = k, st
			}
		}
		delete(s.entries, lruKey)
		delete(s.stamp, lruKey)
		obsWarmEvictions.Inc()
	}
	s.clock++
	s.entries[key] = e
	s.stamp[key] = s.clock
}

// InvalidateAll empties the store — the explicit path when warm state
// must not survive (an external retrain, a poisoned cache).
func (s *WarmStore) InvalidateAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.entries)
	s.entries = make(map[uint64]*Entry, s.cap)
	s.stamp = make(map[uint64]uint64, s.cap)
	for i := 0; i < n; i++ {
		obsWarmInvalidations.Inc()
	}
}

// Len returns the number of stored entries.
func (s *WarmStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
