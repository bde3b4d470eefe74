# Developer entry points. `make check` is the merge gate (same script
# CI runs); the rest are conveniences over the go tool.

GO ?= go

.PHONY: check check-short build test race race-multicore bench bench-all bench-gate telemetry-smoke placed-smoke portfolio-smoke fleet-smoke eco-smoke lefdef-smoke fmt vet

check: ## gofmt + vet + build + bench module vet/test + race-detector test suite
	scripts/check.sh

check-short: ## check, but with -short tests
	scripts/check.sh -short

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

race-multicore: ## concurrency tests under -race at GOMAXPROCS=2 (same script CI runs)
	scripts/race_multicore.sh

bench: ## search hot-path + serving + portfolio + fleet + eco + lefdef + RL update + conv kernel + cold search + analytical placement benchmarks, recorded as BENCH_pr{3,5,6,7,8,9,10,14,16,17,22,24}.json
	$(GO) test -run '^$$' -bench BenchmarkMCTSWorkers -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_pr3.json
	( GOMAXPROCS=1 $(GO) test -run '^$$' -bench BenchmarkMCTSWorkers -benchmem . ; \
	  GOMAXPROCS=4 $(GO) test -run '^$$' -bench BenchmarkMCTSWorkers -benchmem . ) \
		| $(GO) run ./cmd/benchjson -o BENCH_pr8.json
	$(GO) test -run '^$$' -bench BenchmarkServeThroughput -benchmem ./internal/serve \
		| $(GO) run ./cmd/benchjson -o BENCH_pr5.json
	$(GO) test -run '^$$' -bench BenchmarkPortfolioRace -benchmem ./internal/portfolio \
		| $(GO) run ./cmd/benchjson -o BENCH_pr6.json
	$(GO) test -run '^$$' -bench BenchmarkFleetThroughput -benchmem ./internal/fleet \
		| $(GO) run ./cmd/benchjson -o BENCH_pr7.json
	$(GO) test -run '^$$' -bench BenchmarkECOJob -benchmem ./internal/eco \
		| $(GO) run ./cmd/benchjson -o BENCH_pr9.json
	$(GO) test -run '^$$' -bench BenchmarkLEFDEFPlace -benchmem ./internal/lefdef \
		| $(GO) run ./cmd/benchjson -o BENCH_pr10.json
	( GOMAXPROCS=2 $(GO) test -run '^$$' -bench 'BenchmarkMCTSWorkers|BenchmarkMCTSColdWorkers' -benchmem . ; \
	  GOMAXPROCS=2 $(GO) test -run '^$$' -bench 'BenchmarkPortfolioRace$$|BenchmarkFleetThroughput$$|BenchmarkECOJob$$|BenchmarkLEFDEFPlace$$' -benchmem \
		./internal/portfolio ./internal/fleet ./internal/eco ./internal/lefdef ) \
		| $(GO) run ./cmd/benchjson -o BENCH_pr14.json
	GOMAXPROCS=2 $(GO) test -run '^$$' -bench 'BenchmarkTrainUpdate$$' -benchmem -count=3 ./internal/rl \
		| $(GO) run ./cmd/benchjson -o BENCH_pr22.json
	GOMAXPROCS=2 $(GO) test -run '^$$' -bench 'BenchmarkConvKernels$$' -benchmem -benchtime=100x -count=3 ./internal/nn \
		| $(GO) run ./cmd/benchjson -o BENCH_pr16.json
	GOMAXPROCS=2 $(GO) test -run '^$$' -bench 'BenchmarkMCTSColdWorkers$$' -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_pr17.json
	GOMAXPROCS=2 $(GO) test -run '^$$' -bench 'BenchmarkCoarseOracle$$|BenchmarkQuadraticSolve$$' -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson -o BENCH_pr24.json

bench-all: ## micro + table/figure benchmarks (quick preset)
	$(GO) test -bench=. -benchmem -run '^$$' .

bench-gate: ## allocation-regression smoke gate (same script CI runs)
	scripts/benchgate.sh

telemetry-smoke: ## end-to-end /metrics + run-summary smoke (same script CI runs)
	scripts/telemetry_smoke.sh

placed-smoke: ## end-to-end placement-daemon smoke (same script CI runs)
	scripts/placed_smoke.sh

portfolio-smoke: ## end-to-end portfolio-race smoke, CLI + daemon (same script CI runs)
	scripts/portfolio_smoke.sh

fleet-smoke: ## end-to-end fleet smoke: SIGKILL a worker mid-job, migrate, bit-identical (same script CI runs)
	scripts/fleet_smoke.sh

eco-smoke: ## end-to-end ECO smoke: full place -> delta -> incremental re-place beats scratch, warm repeat hits cache (same script CI runs)
	scripts/eco_smoke.sh

lefdef-smoke: ## end-to-end LEF/DEF smoke: constrained place -> DEF out -> bit-identical re-read, zero violations (same script CI runs)
	scripts/lefdef_smoke.sh

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...
