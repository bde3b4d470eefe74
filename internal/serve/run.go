package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"macroplace/internal/core"
	"macroplace/internal/eco"
	"macroplace/internal/mcts"
	"macroplace/internal/netlist"
	"macroplace/internal/portfolio"
)

// Sinks are the observers a caller attaches to RunDesign. Nil fields
// discard.
type Sinks struct {
	// Event receives the run's event stream: "stage", "progress" and
	// "incumbent" entries with the Data Event documents.
	Event func(typ, data string)
	// Snapshot persists the single flow's search snapshot after every
	// commit step; success is reported as a "progress" event, failure
	// through Logf.
	Snapshot func(mcts.Snapshot) error
	// Logf receives diagnostic lines from the fault-tolerant layers.
	Logf func(format string, args ...any)
}

func (s Sinks) event(typ, data string) {
	if s.Event != nil {
		s.Event(typ, data)
	}
}

func (s Sinks) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s Sinks) onStage(ev core.StageEvent) {
	if ev.Done {
		s.event("stage", fmt.Sprintf("%s done in %s", ev.Stage, ev.Elapsed.Round(time.Millisecond)))
	} else {
		s.event("stage", ev.Stage+" start")
	}
}

// RunDesign runs spec's job class on the already-loaded design d and
// returns the wire Result plus the placed design. It is the one runner
// behind every entry point: the daemon (RunSpecAs) persists
// result.json, placement.json and placed.def from its return, and
// cmd/mctsplace prints and writes its outputs from the same value, so
// a CLI run and a daemon job of the same spec agree by construction.
//
// Cancellation degrades instead of aborting: the result is always a
// complete legal placement, marked interrupted. An ECO spec must carry
// its prior inline: RunSpecAs resolves a prior_job reference admitted
// by the daemon before calling.
func RunDesign(ctx context.Context, spec Spec, d *netlist.Design, sinks Sinks) (*Result, *netlist.Design, error) {
	switch {
	case len(spec.Race) > 0:
		return runRace(ctx, spec, d, sinks)
	case spec.Eco != nil:
		return runEco(ctx, spec, d, sinks)
	}
	return runFlow(ctx, spec, d, sinks)
}

// runFlow is the single-flow job class: Algorithm 1 end to end, with
// stage events and per-commit search snapshots streamed to the sinks.
func runFlow(ctx context.Context, spec Spec, d *netlist.Design, sinks Sinks) (*Result, *netlist.Design, error) {
	p, err := core.New(d, spec.Options())
	if err != nil {
		return nil, nil, err
	}
	p.Opts.Logf = sinks.Logf
	if sn := spec.Resume; sn != nil {
		// Check needs the materialised search environment; PlaceContext
		// skips preprocessing when it already ran, so nothing doubles.
		if err := p.Preprocess(); err != nil {
			return nil, nil, err
		}
		// Full legality replay against the materialised design; a
		// snapshot that passes Check here is safe to hand to the search.
		// Rejecting (rather than silently restarting) is deliberate: the
		// fleet coordinator owns the restart-from-scratch fallback and
		// needs to see the refusal to count it.
		if err := sn.Check(p.Env); err != nil {
			return nil, nil, fmt.Errorf("serve: resume rejected: %w", err)
		}
		p.Opts.SearchResume = sn
		sinks.event("stage", fmt.Sprintf("resuming search from checkpoint: %d/%d groups committed", len(sn.Committed), p.Env.NumSteps()))
	}
	p.Opts.OnStage = sinks.onStage
	if sinks.Snapshot != nil {
		p.Opts.SearchSnapshot = func(sn mcts.Snapshot) {
			if err := sinks.Snapshot(sn); err != nil {
				sinks.logf("checkpoint: %v", err)
				return
			}
			sinks.event("progress", fmt.Sprintf("%d/%d groups committed", len(sn.Committed), p.Env.NumSteps()))
		}
	}
	start := time.Now()
	res, err := p.PlaceContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	return &Result{
		Design:       d.Name,
		HPWL:         res.Final.HPWL,
		RLHPWL:       res.RLFinal.HPWL,
		MacroOverlap: res.Final.MacroOverlap,
		Explorations: res.Search.Explorations,
		Interrupted:  res.Search.Interrupted || ctx.Err() != nil,
		Anchors:      res.Final.Anchors,
		WallSeconds:  time.Since(start).Seconds(),
		CacheHits:    res.Search.CacheHits,
		CacheMisses:  res.Search.CacheMisses,
	}, p.Work, nil
}

// runRace is the race job class: every backend named in Spec.Race
// runs concurrently on the design, the cross-backend incumbent stream
// goes out as "incumbent" events, and the Result carries the winner's
// metrics plus the full leaderboard.
func runRace(ctx context.Context, spec Spec, d *netlist.Design, sinks Sinks) (*Result, *netlist.Design, error) {
	cfg := portfolio.RaceConfig{
		Backends: spec.Race,
		Opts:     spec.PortfolioOptions(),
		Deadline: time.Duration(spec.RaceDeadlineMS) * time.Millisecond,
		Grace:    time.Duration(spec.RaceGraceMS) * time.Millisecond,
		OnIncumbent: func(inc portfolio.Incumbent) {
			data, err := json.Marshal(inc)
			if err != nil {
				return
			}
			sinks.event("incumbent", string(data))
		},
		OnOutcome: func(o portfolio.Outcome) {
			if o.Err != "" {
				sinks.event("stage", fmt.Sprintf("%s failed: %s", o.Backend, o.Err))
				return
			}
			sinks.event("stage", fmt.Sprintf("%s finished: hpwl=%.6g cancelled=%v", o.Backend, o.HPWL, o.Cancelled))
		},
		Logf: sinks.Logf,
	}
	start := time.Now()
	rr, err := portfolio.Race(ctx, d, cfg)
	if err != nil {
		return nil, nil, err
	}
	win := rr.WinnerOutcome()
	return &Result{
		Design:       d.Name,
		HPWL:         win.HPWL,
		MacroOverlap: win.MacroOverlap,
		Interrupted:  win.Interrupted || ctx.Err() != nil,
		WallSeconds:  time.Since(start).Seconds(),
		Winner:       rr.Winner,
		Converged:    win.Converged,
		Backends:     rr.Outcomes,
	}, win.Placed, nil
}

// runEco is the ECO job class: re-place the design from the inline
// prior under the spec's delta with a short budgeted local-move
// search. Warm per-design state (trained agent + eval cache + reward
// scaler) lives in the process-wide eco.Default store, so repeated
// ECOs against the same post-delta design skip training entirely.
func runEco(ctx context.Context, spec Spec, d *netlist.Design, sinks Sinks) (*Result, *netlist.Design, error) {
	es := spec.Eco
	if es.PriorJob != "" {
		return nil, nil, fmt.Errorf("serve: eco prior job %q not resolved (prior_job needs daemon submission)", es.PriorJob)
	}
	prior, err := eco.PriorFromWire(es.Prior)
	if err != nil {
		return nil, nil, err
	}
	opts := spec.Options()
	opts.OnStage = sinks.onStage
	cfg := eco.Config{
		Core:    opts,
		Moves:   es.MovesBudget(),
		Retrain: es.Retrain,
		Warm:    eco.Default,
		Logf:    sinks.Logf,
	}
	start := time.Now()
	res, err := eco.Run(ctx, d, prior, es.Delta, cfg)
	if err != nil {
		return nil, nil, err
	}
	sinks.event("progress", fmt.Sprintf("eco: %d probes, %d commits, warm=%v, cache %d hits / %d misses",
		res.MovesProbed, res.MovesCommitted, res.Warm, res.CacheHits, res.CacheMisses))
	return &Result{
		Design:         d.Name,
		HPWL:           res.HPWL,
		MacroOverlap:   res.MacroOverlap,
		Anchors:        res.Anchors,
		Interrupted:    ctx.Err() != nil,
		WallSeconds:    time.Since(start).Seconds(),
		EcoWarm:        res.Warm,
		CacheHits:      res.CacheHits,
		CacheMisses:    res.CacheMisses,
		MovesProbed:    res.MovesProbed,
		MovesCommitted: res.MovesCommitted,
	}, res.Placed, nil
}
