package agent

import "macroplace/internal/obs"

// Process-wide evaluation-cache telemetry (DESIGN.md §9). Instance
// counters on CachedEvaluator stay exact per cache; these aggregate
// across every cache in the process for /metrics.
var (
	obsCacheHits = obs.NewCounter("macroplace_agent_cache_hits_total",
		"Evaluation-cache lookups served without running the network.")
	obsCacheMisses = obs.NewCounter("macroplace_agent_cache_misses_total",
		"Evaluation-cache lookups that fell through to inference.")
	obsCacheEvictions = obs.NewCounter("macroplace_agent_cache_evictions_total",
		"LRU entries recycled to make room at capacity.")
)

// obsInferLatency is the wall time of every forward pass across every
// agent in the process: each training Forward (a rollout step, and an
// update step past the trainer's kept budget) and every
// EvaluateBatchInto call of greedy episodes and search evaluations
// alike.
var obsInferLatency = obs.NewHistogram("macroplace_agent_infer_seconds",
	"Forward-pass wall time: training (Forward), greedy episodes and search evaluations (EvaluateBatchInto).",
	[]float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 1})
