package mcts

import "macroplace/internal/obs"

// Process-wide search telemetry (DESIGN.md §9). Every metric is a
// package-level atomic created once at init, so the hot loop pays one
// lock-free add per event and zero allocations — the PR 3 allocation
// gate holds with telemetry permanently on, and nothing here feeds
// back into the search, so Workers=1 stays bit-identical to the
// goldens.
var (
	obsExplorations = obs.NewCounter("macroplace_mcts_explorations_total",
		"Completed exploration passes (selection+expansion+evaluation+backup).")
	obsCommits = obs.NewCounter("macroplace_mcts_commits_total",
		"Macro-group commit steps taken by searches.")
	obsSearches = obs.NewCounter("macroplace_mcts_searches_total",
		"Search runs started (RunContext entries).")
	obsInterrupted = obs.NewCounter("macroplace_mcts_interrupted_total",
		"Searches cut short by context cancellation or deadline.")
	obsTerminalEvals = obs.NewCounter("macroplace_mcts_terminal_evals_total",
		"Real placement evaluations at terminal nodes.")
	obsVlossReverts = obs.NewCounter("macroplace_mcts_vloss_reverts_total",
		"Virtual-loss edge reverts from abandoned (panicked) passes.")
	obsWorkerPanics = obs.NewCounter("macroplace_mcts_worker_panics_total",
		"Recovered worker panics / evaluator faults.")
	obsWorkerRetires = obs.NewCounter("macroplace_mcts_worker_retirements_total",
		"Workers retired after consecutive recovered panics.")
	obsFallbackCommits = obs.NewCounter("macroplace_mcts_fallback_commits_total",
		"Commits forced to the first legal action with a dead evaluator.")
	obsArenaChunks = obs.NewCounter("macroplace_mcts_arena_chunks_total",
		"Node-arena chunks allocated (steady state: approaches zero growth).")
	obsEnvPoolGets = obs.NewCounter("macroplace_mcts_envpool_gets_total",
		"Env clones requested from the process-wide pool.")
	obsEnvPoolRecycles = obs.NewCounter("macroplace_mcts_envpool_recycles_total",
		"Env clones returned to the pool for reuse.")
)
