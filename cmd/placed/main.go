// Command placed is the placement-as-a-service daemon: a long-lived
// process that accepts placement jobs over HTTP, runs them on a
// bounded worker pool with per-job fault isolation, and streams live
// progress — the serving shape the batch CLIs cannot express.
//
// API (see DESIGN.md §10 for the full semantics):
//
//	POST   /v1/jobs             submit a job spec (JSON) → 202 + id
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status, result once done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events live progress stream (SSE)
//	GET    /metrics             Prometheus metrics (queue + search)
//	GET    /healthz, /debug/pprof/...
//
// A full queue refuses admission with 429 + Retry-After. SIGTERM (or
// SIGINT) drains gracefully: admission stops, queued jobs are
// cancelled, running flows commit their best-so-far placements (each
// crash-safely checkpointed along the way), and the process exits 0.
// A second signal force-exits with 130 after flushing the run summary.
//
// A spec with a "race" list selects the portfolio job class instead of
// the single flow: the named backends (see DESIGN.md §11) run
// concurrently on the design, the cross-backend best-so-far HPWL
// streams over SSE as "incumbent" events, losers are optionally
// cancelled a grace period after the first finisher, and the result
// carries the winner plus every backend's outcome (the full
// leaderboard also lands in race.json next to result.json).
//
// With -fleet the daemon registers as a worker of a placefleet
// coordinator, heartbeating its address and load so the coordinator
// can route jobs here and migrate them away (checkpoint in hand) if
// this process dies or drains. -advertise overrides the URL other
// machines reach this worker at.
//
// Usage:
//
//	placed -addr :8080 -workers 2 -queue 16 -dir /var/lib/placed
//	placed -addr :8081 -fleet http://coordinator:9090 -advertise http://10.0.0.2:8081
//	curl -s localhost:8080/v1/jobs -d '{"bench":"ibm01","scale":0.02,"episodes":20,"gamma":8}'
//	curl -s localhost:8080/v1/jobs -d '{"bench":"ibm01","scale":0.02,"race":["mcts","se","mincut"],"effort":0.2,"race_grace_ms":5000}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -sN localhost:8080/v1/jobs/job-000001/events
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"macroplace"
	"macroplace/internal/fleet"
	"macroplace/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (host:port; port 0 picks a free one)")
		workers    = flag.Int("workers", 1, "concurrent placement jobs")
		queueCap   = flag.Int("queue", 8, "bounded job queue capacity (beyond it: 429)")
		dir        = flag.String("dir", "", "root directory for per-job artifacts (default: a fresh temp dir)")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint returned with 429 responses")
		drainTO    = flag.Duration("drain-timeout", time.Minute, "graceful-drain bound on shutdown; past it in-flight work is abandoned to its checkpoints")
		runSummary = flag.String("run-summary", "", "write a JSON metric snapshot to this file at exit (crash-safe)")
		quiet      = flag.Bool("q", false, "suppress per-job log lines")
		fleetURL   = flag.String("fleet", "", "fleet coordinator base URL to register with (e.g. http://coordinator:9090; empty = standalone)")
		advertise  = flag.String("advertise", "", "base URL the coordinator should reach this worker at (default: http://<bound addr>)")
		heartbeat  = flag.Duration("heartbeat", time.Second, "heartbeat interval when registered with a fleet")
	)
	flag.Parse()

	runFields := map[string]any{"command": "placed", "forced": false}
	writeSummary := func() {
		if *runSummary == "" {
			return
		}
		if err := macroplace.WriteRunSummary(*runSummary, runFields); err != nil {
			fmt.Fprintln(os.Stderr, "placed: run-summary:", err)
		}
	}

	cfg := serve.Config{
		Workers:    *workers,
		QueueCap:   *queueCap,
		Dir:        *dir,
		RetryAfter: *retryAfter,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "placed: "+format+"\n", args...)
		}
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "placed:", err)
		os.Exit(1)
	}

	// First signal starts the graceful drain below; a second one
	// force-exits 130 with the summary flushed — a hung drain is never
	// unkillable.
	ctx, stop := serve.Signals(context.Background(), func() {
		runFields["forced"] = true
		writeSummary()
		fmt.Fprintln(os.Stderr, "placed: forced exit")
	})
	defer stop()

	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "placed:", err)
		runFields["error"] = err.Error()
		writeSummary()
		os.Exit(1)
	}
	fmt.Printf("placed: listening on http://%s (workers=%d queue=%d jobs in %s)\n",
		bound, *workers, *queueCap, srv.Dir())

	if *fleetURL != "" {
		self := *advertise
		if self == "" {
			self = "http://" + bound
		}
		hb := &fleet.Heartbeater{
			Coordinator: *fleetURL,
			Self:        self,
			Every:       *heartbeat,
			Load:        srv.LoadInfo,
			Logf:        cfg.Logf,
		}
		// The heartbeater dies with the drain signal: once draining, the
		// coordinator must stop routing new jobs here. It reports the
		// draining flag while beats still flow, so the stop is graceful
		// either way.
		go hb.Run(ctx)
		fmt.Printf("placed: registering with fleet %s as %s every %s\n", *fleetURL, self, *heartbeat)
	}

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "placed: signal received; draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "placed: drain:", err)
		runFields["drain_error"] = err.Error()
	}
	jobs := srv.Jobs()
	byState := map[serve.State]int{}
	for _, j := range jobs {
		byState[j.State()]++
	}
	runFields["jobs"] = len(jobs)
	for st, n := range byState {
		runFields["jobs_"+string(st)] = n
	}
	writeSummary()
	fmt.Printf("placed: drained %d job(s); bye\n", len(jobs))
}
