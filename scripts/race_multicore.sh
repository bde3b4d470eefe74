#!/usr/bin/env bash
# Runs the concurrency tests under the race detector at GOMAXPROCS=2,
# so goroutines actually interleave: the sharded evaluation cache, the
# parallel tree search (whose workers call the evaluator, and the fault
# injector wrapping it, concurrently), the RL update's replay workers
# (whose replicas share the agent's weights), and the daemon's worker
# pool.
#
#   scripts/race_multicore.sh
#
# Every test named below must exist: a filter that matches nothing
# would otherwise pass without running anything, so a renamed or
# deleted test fails the script instead.
set -euo pipefail

run() {
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
	echo "race_multicore: $pkg: $# tests at GOMAXPROCS=2"
	GOMAXPROCS=2 go test -race -count=1 -run "$filter" "$pkg"
}

run ./internal/agent/ TestCacheConcurrentAccess TestEvaluateBatchConcurrent \
	TestCacheEvaluatesConcurrentDuplicatesOnce
run ./internal/mcts/ TestCacheCountersExactUnderConcurrency TestParallelStress \
	TestParallelSearchSharedCacheRace TestDeterminism TestParallelLeafEvaluationsOverlap
run ./internal/faults/ TestPanickingWorkersKeepTreeConsistent
run ./internal/rl/ TestUpdateGoldenAcrossGOMAXPROCS TestUpdatePanicResurfaces
run ./internal/serve/ TestDaemonE2E TestDaemonBitIdenticalToDirectRun \
	TestTerminalJobContextReleased
