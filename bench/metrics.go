package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// at the repository root declares the same names and units (plus the
// regression bounds); TestMetricTableMatchesBenchmarkJSON keeps the two
// in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the placer sees, printed with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"wall_geomean_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"hpwl_vs_gp", "ratio", "lower"},
	{"hpwl_vs_rl", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of the traced run. Times are shares of the
// traced jobs' wall time (a layer's self time over the jobs' summed
// wall), so every workload reports every layer, and a layer the
// workload does not exercise reads 0%. trace.job_wall_s gives the base
// the shares are taken of. Counts are per traced job unless the unit
// says otherwise.
var perLayer = []metricDef{
	{"trace.job_wall_s", "s", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"bench.self_pct", "%", "lower"},
	{"bookshelf.read_pct", "%", "lower"},
	{"lefdef.parse_pct", "%", "lower"},
	{"lefdef.emit_pct", "%", "lower"},
	{"lefdef.bytes", "B/job", "lower"},
	{"core.preprocess_pct", "%", "lower"},
	{"core.oracle_pct", "%", "lower"},
	{"core.oracle_calls", "count/job", "lower"},
	{"rl.pretrain_self_pct", "%", "lower"},
	{"rl.calibrate_pct", "%", "lower"},
	{"rl.greedy_pct", "%", "lower"},
	{"rl.episodes", "count/job", "lower"},
	{"rl.faults", "count", "lower"},
	{"agent.infer_pct", "%", "lower"},
	{"agent.infer_calls", "count/job", "lower"},
	{"agent.infer_items", "count/job", "lower"},
	{"agent.cache_hits", "count/job", "higher"},
	{"agent.cache_misses", "count/job", "lower"},
	{"agent.cache_hit_ratio", "ratio", "higher"},
	{"mcts.search_pct", "%", "lower"},
	{"mcts.self_pct", "%", "lower"},
	{"mcts.explorations", "count/job", "higher"},
	{"mcts.sims_per_s", "1/s", "higher"},
	{"mcts.terminal_evals", "count/job", "lower"},
	{"mcts.worker_panics", "count", "lower"},
	{"legalize.macros_pct", "%", "lower"},
	{"legalize.illegal_frac", "ratio", "lower"},
	{"gplace.final_pct", "%", "lower"},
	{"eco.warm_ratio", "ratio", "higher"},
	{"eco.moves_probed", "count/job", "higher"},
	{"eco.moves_committed", "count/job", "higher"},
	{"serve.queue_pct", "%", "lower"},
	{"serve.run_pct", "%", "lower"},
	{"serve.overhead_pct", "%", "lower"},
	{"serve.refused", "count", "lower"},
}

// selfShares maps a share metric to the span whose self time it
// reports. mcts.search_pct is the one inclusive share: the whole
// search, inference and oracle calls included.
var selfShares = map[string]string{
	"bench.self_pct":       "bench.job",
	"bookshelf.read_pct":   "bookshelf.read",
	"lefdef.parse_pct":     "lefdef.parse",
	"lefdef.emit_pct":      "lefdef.emit",
	"core.preprocess_pct":  "core.preprocess",
	"core.oracle_pct":      "core.oracle",
	"rl.pretrain_self_pct": "rl.pretrain",
	"rl.calibrate_pct":     "rl.calibrate",
	"rl.greedy_pct":        "rl.greedy",
	"agent.infer_pct":      "agent.infer",
	"mcts.self_pct":        "mcts.search",
	"legalize.macros_pct":  "legalize.macros",
	"gplace.final_pct":     "gplace.final",
	"serve.queue_pct":      "serve.queue",
	"serve.run_pct":        "serve.run",
	"serve.overhead_pct":   "serve.client",
}
