#!/usr/bin/env bash
# Runs the concurrency tests under the race detector at GOMAXPROCS=2,
# so goroutines actually interleave: the evaluation cache (one mutex
# and one condition variable), inference on an agent while it trains
# on its own tape, the parallel tree search (whose workers call the
# evaluator, and the fault injector wrapping it, concurrently), the RL
# trainer's rollout workers (which read one draw tape and one agent's
# weights) and replay workers (whose replicas share the agent's
# weights), the analytical placer's two axis goroutines (and two
# placers at once, and the check that the reward oracle's system needs
# one solve), the whole flow's golden (whose rollouts and split
# solves run concurrently), the daemon's worker pool, and the fleet
# coordinator's event relay (which reads a worker job's event log next
# to the goroutine that watches for the worker's death). The cache,
# agent, trainer and placer tests run ten times each, since one
# interleaving proves little about shared state; the rest run once.
#
#   scripts/race_multicore.sh
#
# Every test named below must exist: a filter that matches nothing
# would otherwise pass without running anything, so a renamed or
# deleted test fails the script instead.
set -euo pipefail

# run [-count=N] PKG TEST...
run() {
	local count=-count=1
	if [[ $1 == -count=* ]]; then
		count=$1
		shift
	fi
	local pkg=$1
	shift
	local filter
	filter="^($(
		IFS='|'
		echo "$*"
	))\$"
	local listed
	listed=$(go test -list "$filter" "$pkg")
	for name in "$@"; do
		if ! grep -qx "$name" <<<"$listed"; then
			echo "race_multicore: $pkg has no test $name" >&2
			exit 1
		fi
	done
	echo "race_multicore: $pkg: $# tests at GOMAXPROCS=2, $count"
	GOMAXPROCS=2 go test -race "$count" -run "$filter" "$pkg"
}

run -count=10 ./internal/agent/ TestCacheConcurrentAccess TestEvaluateBatchConcurrent \
	TestCacheEvaluatesConcurrentDuplicatesOnce TestInferenceConcurrentWithTraining
run -count=10 ./internal/mcts/ TestCacheCountersExactUnderConcurrency
run ./internal/mcts/ TestParallelStress TestParallelSearchSharedCacheRace TestDeterminism \
	TestParallelLeafEvaluationsOverlap
run ./internal/faults/ TestPanickingWorkersKeepTreeConsistent
run -count=10 ./internal/rl/ TestUpdateGoldenAcrossGOMAXPROCS TestForcedDrawMismatchMatchesSequentialTrainer \
	TestRolloutPanicResurfaces TestOracleRunsOnCallerInEpisodeOrder
run ./internal/rl/ TestUpdatePanicResurfaces
run ./internal/rng/ TestTapeConcurrentReaders
run -count=10 ./internal/gplace/ TestPlacementGolden TestCoincidentPinsGolden TestSecondSolveIsANoOp \
	TestQuadraticPanicResurfacesOnCaller TestSplitPanicWaitsForOtherHalf TestConcurrentPlacers
run . TestFlowGolden
run ./internal/serve/ TestDaemonE2E TestDaemonBitIdenticalToDirectRun \
	TestTerminalJobContextReleased
run ./internal/fleet/ TestFleetMigrationE2E TestFleetMigrationCorruptCheckpoint \
	TestFleetRetriesTransient5xx
