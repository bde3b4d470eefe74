// Package faults provides deterministic fault injection behind the
// repository's existing interfaces, for exercising the recovery paths
// documented in DESIGN.md §"Fault model and recovery": evaluator
// panics and NaN activations into the MCTS (mcts.Evaluator), NaN
// wirelengths into the trainer (rl.WirelengthFunc), artificial
// evaluation latency for deadline tests, and write failures into the
// checkpoint path (io.Writer).
//
// Injection is counter-driven — "every Nth call" — so a fixed call
// sequence reproduces the same faults; there is no wall-clock or
// math/rand nondeterminism. Under the parallel search the *count* of
// injected faults is still deterministic even though *which* goroutine
// observes each fault depends on scheduling.
package faults

import (
	"errors"
	"io"
	"math"
	"sync/atomic"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/mcts"
	"macroplace/internal/rl"
)

// ErrInjected is the error returned by injected write failures.
var ErrInjected = errors.New("faults: injected write failure")

// Injector configures deterministic fault injection. The zero value
// injects nothing: every wrapper becomes a transparent pass-through,
// so tests can toggle single faults without changing their wiring.
// Each "Every" field counts that wrapper's calls from 1; the fault
// fires on every multiple. One Injector may back several wrappers at
// once — they share its counters.
type Injector struct {
	// PanicEvery makes every Nth evaluator call (EvaluateBatchInto)
	// panic instead of returning. PanicEvery=1 is a dead evaluator:
	// every call fails.
	PanicEvery int
	// NaNEvery poisons every Nth evaluator call's output with NaN
	// probabilities and value — the "NaN activations" fault.
	NaNEvery int
	// SlowEvery delays every Nth evaluator call by SlowDelay before it
	// runs, so context deadlines land mid-search deterministically.
	SlowEvery int
	SlowDelay time.Duration
	// WLNaNEvery makes every Nth wirelength-oracle call return NaN.
	WLNaNEvery int
	// WriteFailAt makes a wrapped Writer fail with ErrInjected from
	// its Nth Write call onward (0 keeps writes healthy, matching the
	// zero-value contract; 1 fails every call). Each failing call
	// still writes half of its buffer first — a torn write, the worst
	// case the atomic checkpoint path must survive. Buffered writers
	// (bufio) coalesce calls, so count flushes, not Save-level writes.
	WriteFailAt int

	evalCalls  atomic.Int64
	wlCalls    atomic.Int64
	writeCalls atomic.Int64
	panics     atomic.Int64
	nans       atomic.Int64
}

// EvalCalls reports how many evaluator calls the wrappers have seen.
func (inj *Injector) EvalCalls() int { return int(inj.evalCalls.Load()) }

// Panics reports how many evaluator panics were injected.
func (inj *Injector) Panics() int { return int(inj.panics.Load()) }

// NaNs reports how many NaN faults were injected (evaluator + oracle).
func (inj *Injector) NaNs() int { return int(inj.nans.Load()) }

// every reports whether the n-th call (1-based) triggers a fault with
// the given period.
func every(n int64, period int) bool {
	return period > 0 && n%int64(period) == 0
}

// Evaluator wraps ev with the injector's evaluator faults. The
// wrapped evaluator is as concurrency-safe as ev itself.
func (inj *Injector) Evaluator(ev mcts.Evaluator) mcts.Evaluator {
	return &faultyEvaluator{inj: inj, inner: ev}
}

type faultyEvaluator struct {
	inj   *Injector
	inner mcts.Evaluator
}

// act advances the call counter and applies slow/panic faults; it
// reports whether this call's output must be poisoned with NaNs.
func (e *faultyEvaluator) act() (poison bool) {
	n := e.inj.evalCalls.Add(1)
	if every(n, e.inj.SlowEvery) {
		time.Sleep(e.inj.SlowDelay)
	}
	if every(n, e.inj.PanicEvery) {
		e.inj.panics.Add(1)
		panic("faults: injected evaluator panic")
	}
	if every(n, e.inj.NaNEvery) {
		e.inj.nans.Add(1)
		return true
	}
	return false
}

func (e *faultyEvaluator) EvaluateBatchInto(in []agent.BatchInput, out []agent.Output) {
	poison := e.act()
	e.inner.EvaluateBatchInto(in, out)
	if poison {
		for i := range out {
			out[i] = poisonOutput(out[i])
		}
	}
}

// poisonOutput returns a copy of out with NaN value and probabilities.
// It copies the slice so the inner evaluator's buffers stay clean.
func poisonOutput(out agent.Output) agent.Output {
	nan := float32(math.NaN())
	probs := make([]float32, len(out.Probs))
	for i := range probs {
		probs[i] = nan
	}
	return agent.Output{Probs: probs, Value: nan}
}

// Wirelength wraps wl with the injector's oracle faults.
func (inj *Injector) Wirelength(wl rl.WirelengthFunc) rl.WirelengthFunc {
	return func(anchors []int) float64 {
		n := inj.wlCalls.Add(1)
		if every(n, inj.WLNaNEvery) {
			inj.nans.Add(1)
			return math.NaN()
		}
		return wl(anchors)
	}
}

// Writer wraps w with the injector's write faults: from the
// WriteFailAt-th call onward, every Write writes half of its buffer
// into w and then fails with ErrInjected — a torn write.
func (inj *Injector) Writer(w io.Writer) io.Writer {
	return &faultyWriter{inj: inj, inner: w}
}

type faultyWriter struct {
	inj   *Injector
	inner io.Writer
}

func (fw *faultyWriter) Write(p []byte) (int, error) {
	n := fw.inj.writeCalls.Add(1)
	if fw.inj.WriteFailAt > 0 && n >= int64(fw.inj.WriteFailAt) {
		written, _ := fw.inner.Write(p[:len(p)/2])
		return written, ErrInjected
	}
	return fw.inner.Write(p)
}
