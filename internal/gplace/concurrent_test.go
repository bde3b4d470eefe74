package gplace

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"macroplace/internal/gen"
	"macroplace/internal/netlist"
)

// withProcs runs f at GOMAXPROCS=procs and restores the previous
// setting.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// waitGoroutines fails t if more than n goroutines are still running
// after a grace period.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > n {
		t.Fatalf("%d goroutines after the panicking solves, %d before: an axis half leaked", got, n)
	}
}

// splitDesign returns a generated design large enough that its solves
// run the two axes on two goroutines.
func splitDesign(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	d, err := gen.IBM("ibm01", 0.05, seed)
	if err != nil {
		t.Fatal(err)
	}
	if p := New(d, Config{Mode: MoveCells}); !p.split {
		t.Fatalf("ibm01@0.05 seed %d is below splitPins (%d)", seed, splitPins)
	}
	return d
}

// TestQuadraticPanicResurfacesOnCaller: a net pin naming a node past
// the design's last makes both axis halves panic; the panic must reach
// the caller of PlaceQuadraticOnly, where it can be recovered, instead
// of killing the process from the x half's goroutine, and leave no
// goroutine behind.
func TestQuadraticPanicResurfacesOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, procs := range []int{1, 2} {
		d := splitDesign(t, 1)
		d.AddNet(netlist.Net{Name: "dangling", Pins: []netlist.Pin{{Node: 0}, {Node: len(d.Nodes)}}})
		p := New(d, Config{Mode: MoveCells})
		var got any
		withProcs(procs, func() {
			defer func() { got = recover() }()
			p.PlaceQuadraticOnly()
		})
		err, ok := got.(runtime.Error)
		if !ok || !strings.Contains(err.Error(), "index out of range") {
			t.Fatalf("GOMAXPROCS=%d: PlaceQuadraticOnly recovered %v, want an index-out-of-range panic", procs, got)
		}
	}
	waitGoroutines(t, before)
}

// TestSplitPanicWaitsForOtherHalf: a panic on either half of a split
// solve resurfaces on the caller, and only once the other half has
// returned.
func TestSplitPanicWaitsForOtherHalf(t *testing.T) {
	p := New(dumbbell(), Config{Mode: MoveCells})
	p.split = true
	for _, yPanics := range []bool{false, true} {
		var otherDone atomic.Bool
		var got any
		func() {
			defer func() { got = recover() }()
			p.both(func(_ *Placer, a *axis) {
				if a.y == yPanics {
					panic(fmt.Sprintf("axis y=%v", a.y))
				}
				time.Sleep(20 * time.Millisecond)
				otherDone.Store(true)
			})
		}()
		if want := fmt.Sprintf("axis y=%v", yPanics); got != want {
			t.Errorf("y panics=%v: recovered %v, want %q", yPanics, got, want)
		}
		if !otherDone.Load() {
			t.Errorf("y panics=%v: the panic resurfaced before the other half returned", yPanics)
		}
	}
}

// TestConcurrentPlacers: two placers on different designs, placing at
// once, each on its two axis goroutines, produce the bits they produce
// one after the other.
func TestConcurrentPlacers(t *testing.T) {
	place := func(d *netlist.Design) uint64 {
		res := New(d, Config{Mode: MoveAll, Iterations: 3}).Place()
		return placementHash(d, res.HPWL)
	}
	seeds := []int64{1, 2}
	want := make([]uint64, len(seeds))
	for i, s := range seeds {
		want[i] = place(splitDesign(t, s))
	}
	designs := make([]*netlist.Design, len(seeds))
	for i, s := range seeds {
		designs[i] = splitDesign(t, s)
	}
	got := make([]uint64, len(seeds))
	var wg sync.WaitGroup
	for i, d := range designs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = place(d)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if got[i] != want[i] {
			t.Errorf("seed %d: concurrent placement hash %#x, alone %#x", seeds[i], got[i], want[i])
		}
	}
}
