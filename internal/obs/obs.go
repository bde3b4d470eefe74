// Package obs is the stdlib-only telemetry layer of the placement
// service: atomic counters, gauges, and histograms for the hot paths,
// named phase spans (wall time + invocation counts) for the pipeline
// stages, and a registry that renders everything in the Prometheus
// text exposition format.
//
// Design constraints, in order:
//
//   - Zero allocation on the instrumented paths. Every metric is a
//     fixed set of atomic words created once at package init; Inc /
//     Add / Set / Observe are a handful of atomic operations with no
//     locking, no maps, and no interface boxing. The MCTS hot loop
//     (tens of thousands of explorations per run) pays one atomic add
//     per event, which is invisible next to a network evaluation — and
//     crucially keeps the PR 3 allocs/op gate intact with telemetry
//     always on.
//   - No behavioural coupling. Metrics never feed back into the code
//     they observe, so the Workers=1 search stays bit-identical to the
//     uninstrumented goldens.
//   - stdlib only. Rendering is plain text (Prometheus exposition
//     format v0.0.4); the HTTP layer in http.go uses net/http and
//     net/http/pprof; the run summary in summary.go uses
//     encoding/json via internal/atomicio.
//
// Naming follows the Prometheus conventions: every series is
// `macroplace_<package>_<what>[_<unit>]` with `_total` on counters.
// DESIGN.md §9 holds the full metric catalogue.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// unusable; obtain one from a Registry (or the package-level NewCounter)
// so it renders on /metrics.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down (last-observed residuals,
// loss values, pool sizes).
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by v (CAS loop; gauges are not hot-path).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeFunc is a gauge whose value is computed by a callback at render
// and snapshot time, for values that already live elsewhere (the fleet
// registry's live-worker count, heartbeat lag) — polling them into a
// stored Gauge would add a ticker and a staleness window for nothing.
// The callback must be safe for concurrent use, must not block, and
// must not touch the registry it is registered on (it is evaluated
// under the registry lock during render/snapshot).
type GaugeFunc struct {
	name, help string
	mu         sync.Mutex
	fn         func() float64
}

// Value evaluates the callback. A GaugeFunc whose callback was never
// set (or was cleared) reports 0.
func (g *GaugeFunc) Value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// set installs the callback, replacing any previous one (latest wins —
// a re-created component re-binds the series to its own state instead
// of leaving the old component's closure pinned).
func (g *GaugeFunc) set(fn func() float64) {
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
}

// Histogram counts observations into fixed cumulative buckets
// (Prometheus histogram semantics: bucket i counts observations
// <= Bounds[i], plus an implicit +Inf bucket).
type Histogram struct {
	name, help string
	bounds     []float64
	buckets    []atomic.Uint64 // len(bounds)+1; last is +Inf
	count      atomic.Uint64
	sumBits    atomic.Uint64
}

// Observe records one value: one atomic add for the bucket, one for
// the count, one CAS for the sum.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns the non-cumulative per-bucket counts (last
// entry is the +Inf bucket). For tests and the run summary.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Bounds returns the histogram's upper bucket bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Span accumulates wall time and invocation counts of a named phase.
// Instrument either with Observe (zero-allocation) or the
// closure-returning Start (convenient for defer; one small allocation,
// fine for per-stage granularity).
type Span struct {
	name, help string
	count      atomic.Uint64
	nanos      atomic.Int64
}

// Observe records one completed invocation of duration d.
func (s *Span) Observe(d time.Duration) {
	s.count.Add(1)
	s.nanos.Add(int64(d))
}

// Start begins timing and returns the function that stops it:
//
//	defer span.Start()()
func (s *Span) Start() func() {
	t0 := time.Now()
	return func() { s.Observe(time.Since(t0)) }
}

// Count returns the number of completed invocations.
func (s *Span) Count() uint64 { return s.count.Load() }

// Seconds returns the accumulated wall time in seconds.
func (s *Span) Seconds() float64 { return float64(s.nanos.Load()) / 1e9 }

// metricKind discriminates the registry's entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindSpan
	kindGaugeFunc
)

// entry is one registered metric.
type entry struct {
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
	s    *Span
	gf   *GaugeFunc
}

// Registry holds named metrics and renders them. Registration is
// get-or-create by name (so package-level metric vars and tests can
// share one registry); a name registered twice with different types
// panics — that is a programming error, not a runtime condition.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// Default is the process-wide registry every package-level metric
// registers on; the CLIs expose it over HTTP and in the run summary.
var Default = NewRegistry()

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) lookup(name string, kind metricKind) *entry {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered with conflicting types", name))
		}
		return e
	}
	e := &entry{kind: kind}
	r.byName[name] = e
	return e
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	e := r.lookup(name, kindCounter)
	if e.c == nil {
		e.c = &Counter{name: name, help: help}
	}
	return e.c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.lookup(name, kindGauge)
	if e.g == nil {
		e.g = &Gauge{name: name, help: help}
	}
	return e.g
}

// Histogram returns the histogram registered under name, creating it
// with the given upper bucket bounds (ascending; +Inf is implicit) on
// first use. Later calls ignore bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	e := r.lookup(name, kindHistogram)
	if e.h == nil {
		e.h = &Histogram{
			name:    name,
			help:    help,
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return e.h
}

// GaugeFunc registers fn as a callback gauge under name, creating the
// series on first use. Unlike the stored metrics, re-registration
// replaces the callback (latest wins) — see GaugeFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	e := r.lookup(name, kindGaugeFunc)
	if e.gf == nil {
		e.gf = &GaugeFunc{name: name, help: help}
	}
	e.gf.set(fn)
	return e.gf
}

// Span returns the phase span registered under name, creating it on
// first use.
func (r *Registry) Span(name, help string) *Span {
	e := r.lookup(name, kindSpan)
	if e.s == nil {
		e.s = &Span{name: name, help: help}
	}
	return e.s
}

// NewCounter registers a counter on the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers a gauge on the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewHistogram registers a histogram on the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.Histogram(name, help, bounds)
}

// NewGaugeFunc registers a callback gauge on the Default registry.
func NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return Default.GaugeFunc(name, help, fn)
}

// NewSpan registers a phase span on the Default registry.
func NewSpan(name, help string) *Span { return Default.Span(name, help) }

// sortedNames returns the registered names in lexical order, so the
// rendered exposition (and the run summary built on the same order) is
// deterministic.
func (r *Registry) sortedNames() []string {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// escapeHelp escapes a HELP string per the exposition format: backslash
// and newline.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// formatFloat renders a float64 the way Prometheus expects (shortest
// round-trip representation; +Inf/-Inf/NaN spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format, in deterministic (lexical) order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.sortedNames() {
		e := r.byName[name]
		var err error
		switch e.kind {
		case kindCounter:
			err = writeSimple(w, name, e.c.help, "counter", strconv.FormatUint(e.c.Value(), 10))
		case kindGauge:
			err = writeSimple(w, name, e.g.help, "gauge", formatFloat(e.g.Value()))
		case kindGaugeFunc:
			err = writeSimple(w, name, e.gf.help, "gauge", formatFloat(e.gf.Value()))
		case kindHistogram:
			err = writeHistogram(w, e.h)
		case kindSpan:
			err = writeSpan(w, e.s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeSimple(w io.Writer, name, help, typ, val string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", name, typ, name, val)
	return err
}

func writeHistogram(w io.Writer, h *Histogram) error {
	if h.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", h.name, escapeHelp(h.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.name); err != nil {
		return err
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
		h.name, formatFloat(h.Sum()), h.name, h.Count())
	return err
}

func writeSpan(w io.Writer, s *Span) error {
	if s.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s_seconds_total %s\n", s.name, escapeHelp(s.help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w,
		"# TYPE %s_seconds_total counter\n%s_seconds_total %s\n# TYPE %s_invocations_total counter\n%s_invocations_total %d\n",
		s.name, s.name, formatFloat(s.Seconds()), s.name, s.name, s.Count())
	return err
}
