package core

import "macroplace/internal/obs"

// Per-stage phase spans (DESIGN.md §9): wall time and invocation
// counts for the four Alg. 1 stages, rendered on /metrics as
// <name>_seconds_total / <name>_invocations_total pairs.
var (
	obsPreprocess = obs.NewSpan("macroplace_core_preprocess",
		"Preprocessing stage: grid partition, prototype placement, clustering, coarsening.")
	obsPretrain = obs.NewSpan("macroplace_core_pretrain",
		"RL pre-training stage (Alg. 1 lines 3-10).")
	obsSearch = obs.NewSpan("macroplace_core_mcts",
		"MCTS optimization stage (Alg. 1 lines 11-15).")
	obsFinalize = obs.NewSpan("macroplace_core_finalize",
		"Finalization stage: macro legalization plus full-netlist cell placement.")
)
