package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/atomicio"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public call. Spans of one job share Job; Parent is the span
// that was open when the call was made (0 for a job's root span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    string  `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	Items  int     `json:"items,omitempty"` // batch size of an inference call
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(ts time.Time) float64 { return ts.Sub(t.t0).Seconds() }

// add records a finished span and returns its id.
func (t *tracer) add(job string, parent int, name string, start, end time.Time, items int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: t.at(start), End: t.at(end), Items: items})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytes(path, data)
}

// jobTrace is one job's handle on the tracer. Calls made while a span
// is open become its children. A nil *jobTrace records nothing, so the
// traced and untraced runs share their job code.
type jobTrace struct {
	t     *tracer
	job   string
	mu    sync.Mutex
	stack []int // open span ids, innermost last
}

func (t *tracer) job(id string) *jobTrace { return &jobTrace{t: t, job: id} }

// begin opens a span named name under the innermost open span; the
// returned func closes it.
func (jt *jobTrace) begin(name string) func() {
	if jt == nil {
		return func() {}
	}
	start := time.Now()
	jt.mu.Lock()
	parent := jt.top()
	// Reserve the id now so calls made inside the span can name it as
	// their parent before it closes.
	id := jt.t.add(jt.job, parent, name, start, start, 0)
	jt.stack = append(jt.stack, id)
	jt.mu.Unlock()
	return func() {
		end := time.Now()
		jt.mu.Lock()
		jt.stack = jt.stack[:len(jt.stack)-1]
		jt.mu.Unlock()
		jt.t.mu.Lock()
		jt.t.spans[id-1].End = jt.t.at(end)
		jt.t.mu.Unlock()
	}
}

func (jt *jobTrace) top() int {
	if len(jt.stack) == 0 {
		return 0
	}
	return jt.stack[len(jt.stack)-1]
}

// leaf records a call that started at start and ends now as a child of
// the innermost open span. The library invokes the oracle and the
// inferencer from its own goroutines, so leaf takes no stack slot.
func (jt *jobTrace) leaf(name string, start time.Time, items int) {
	if jt == nil {
		return
	}
	end := time.Now()
	jt.mu.Lock()
	parent := jt.top()
	jt.mu.Unlock()
	jt.t.add(jt.job, parent, name, start, end, items)
}

// timedInferencer sits between the evaluation cache and the agent and
// records every network call; cache hits never reach it. It forwards
// the agent's weight fingerprint so the cache keys are the ones the
// flow's own cache would use.
type timedInferencer struct {
	ag *agent.Agent
	jt *jobTrace
}

func (ti timedInferencer) EvaluateBatchInto(in []agent.BatchInput, out []agent.Output) {
	defer ti.jt.leaf("agent.infer", time.Now(), len(in))
	ti.ag.EvaluateBatchInto(in, out)
}

func (ti timedInferencer) Fingerprint() uint64 { return ti.ag.Fingerprint() }

type interval struct{ lo, hi float64 }

// covered returns the length of the union of ivs clipped to [lo, hi].
// Children of one span may overlap (parallel search workers), so the
// union, not the sum, is what the parent did not spend on itself.
func covered(ivs []interval, lo, hi float64) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi float64
	for i, iv := range clipped {
		if i == 0 || iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	return total + curHi - curLo
}

// layerTimes sums per span name the spans' own durations and their self
// times: duration minus the part covered by the union of their
// children.
func layerTimes(spans []span) (total, self map[string]float64) {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	total = make(map[string]float64)
	self = make(map[string]float64)
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(children[s.ID], s.Start, s.End)
	}
	return total, self
}
