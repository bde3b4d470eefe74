package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := reg.Gauge("test_level", "level")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
	// Get-or-create must hand back the same instance.
	if reg.Counter("test_ops_total", "ops") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_thing", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	reg.Gauge("test_thing", "")
}

func TestInvalidMetricNamePanics(t *testing.T) {
	for _, bad := range []string{"", "0leading", "has space", "has-dash", "ünïcode"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			NewRegistry().Counter(bad, "")
		}()
	}
}

// TestHistogramBucketEdges pins the Prometheus `le` semantics: an
// observation exactly on an upper bound lands in that bucket, the
// first value above it lands in the next.
func TestHistogramBucketEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_sizes", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.000001, 2, 4, 4.5, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // <=1: {0.5,1}; <=2: {1.000001,2}; <=4: {4}; +Inf: {4.5,100}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 0.5+1+1.000001+2+4+4.5+100 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramNonAscendingBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewRegistry().Histogram("test_bad", "", []float64{1, 1})
}

// TestPrometheusRendering checks the exposition format: HELP/TYPE
// lines, cumulative histogram buckets with an +Inf bucket, span
// counter pairs, lexical ordering, and HELP escaping.
func TestPrometheusRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_b_total", "line one\nline two with back\\slash").Add(7)
	reg.Gauge("test_a_level", "").Set(0.25)
	h := reg.Histogram("test_c_sizes", "sizes", []float64{1, 2})
	h.Observe(1)
	h.Observe(5)
	sp := reg.Span("test_d_phase", "phase")
	sp.Observe(1500 * time.Millisecond)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := `# TYPE test_a_level gauge
test_a_level 0.25
# HELP test_b_total line one\nline two with back\\slash
# TYPE test_b_total counter
test_b_total 7
# HELP test_c_sizes sizes
# TYPE test_c_sizes histogram
test_c_sizes_bucket{le="1"} 1
test_c_sizes_bucket{le="2"} 1
test_c_sizes_bucket{le="+Inf"} 2
test_c_sizes_sum 6
test_c_sizes_count 2
# HELP test_d_phase_seconds_total phase
# TYPE test_d_phase_seconds_total counter
test_d_phase_seconds_total 1.5
# TYPE test_d_phase_invocations_total counter
test_d_phase_invocations_total 1
`
	if got != want {
		t.Fatalf("rendered exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestConcurrentIncAndObserve hammers one counter, gauge, and
// histogram from many goroutines (run with -race) and checks the
// totals are exact — no torn or lost increments.
func TestConcurrentIncAndObserve(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_conc_total", "")
	h := reg.Histogram("test_conc_sizes", "", []float64{4, 16})
	g := reg.Gauge("test_conc_sum", "")

	const goroutines, per = 16, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				h.Observe(float64(k % 32))
				g.Add(1)
			}
		}(i)
	}
	// A concurrent renderer must never trip the race detector.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = reg.WritePrometheus(&b)
		}
	}()
	wg.Wait()

	const total = goroutines * per
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	var bucketSum uint64
	for _, b := range h.BucketCounts() {
		bucketSum += b
	}
	if bucketSum != total {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, total)
	}
	if g.Value() != float64(total) {
		t.Fatalf("gauge = %v, want %d", g.Value(), total)
	}
}

// TestHotPathOpsDoNotAllocate pins the zero-allocation contract the
// search instrumentation depends on: Inc/Add/Set/Observe must not
// allocate, or the PR 3 allocs/op gate would break with telemetry on.
func TestHotPathOpsDoNotAllocate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_alloc_total", "")
	g := reg.Gauge("test_alloc_level", "")
	h := reg.Histogram("test_alloc_sizes", "", []float64{1, 2, 4, 8})
	sp := reg.Span("test_alloc_phase", "")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		h.Observe(3)
		sp.Observe(time.Microsecond)
	}); n != 0 {
		t.Fatalf("hot-path metric ops allocate %v times per run, want 0", n)
	}
}
