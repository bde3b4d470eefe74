package legalize

import "macroplace/internal/obs"

// Macro-legalization telemetry (DESIGN.md §9). The residual-overlap
// gauge is the per-run legality signal: on a Clean placement it reads
// at most float dust (ConvergenceEps) plus any overlap between fixed
// macros, which the design brings.
var (
	obsRuns = obs.NewCounter("macroplace_legalize_runs_total",
		"Macro legalization passes completed.")
	obsResidualOverlap = obs.NewGauge("macroplace_legalize_residual_overlap",
		"Total pairwise macro overlap area (fixed macros included) after the most recent pass.")
)
