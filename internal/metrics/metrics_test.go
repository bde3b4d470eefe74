package metrics

import (
	"math"
	"strings"
	"testing"

	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

func TestRUDYSingleNet(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 32, 32)}
	a := d.AddNode(netlist.Node{Name: "a", Kind: netlist.Cell, W: 0, H: 0, X: 4, Y: 4})
	b := d.AddNode(netlist.Node{Name: "b", Kind: netlist.Cell, W: 0, H: 0, X: 12, Y: 12})
	d.AddNet(netlist.Net{Name: "n", Pins: []netlist.Pin{{Node: a}, {Node: b}}})
	cm := RUDY(d, 8) // 4-unit bins
	// Net box [4,4]-[12,12]: HPWL 16, area 64, density (8+8)/64 = 0.25
	// over bins (1,1)-(2,2).
	inside := cm.Demand[1*8+1]
	if math.Abs(inside-0.25) > 1e-9 {
		t.Errorf("inside demand = %v, want 0.25", inside)
	}
	if cm.Demand[0] != 0 {
		t.Error("bins outside the net box must have zero demand")
	}
	// Partial bins at the box boundary scale by overlap fraction —
	// here the box aligns exactly with bin boundaries, so bin (0,1)
	// stays empty.
	if cm.Demand[1*8+0] != 0 {
		t.Errorf("boundary-exterior bin demand = %v", cm.Demand[1*8+0])
	}
	if got := cm.Max(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("Max = %v", got)
	}
}

func TestRUDYWeightsAndDegenerateNets(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 10, 10)}
	a := d.AddNode(netlist.Node{Name: "a", Kind: netlist.Cell, X: 1, Y: 1})
	b := d.AddNode(netlist.Node{Name: "b", Kind: netlist.Cell, X: 9, Y: 9})
	d.AddNet(netlist.Net{Name: "w", Weight: 3, Pins: []netlist.Pin{{Node: a}, {Node: b}}})
	d.AddNet(netlist.Net{Name: "single", Pins: []netlist.Pin{{Node: a}}}) // ignored
	cm1 := RUDY(d, 4)
	d.Nets[0].Weight = 1
	cm2 := RUDY(d, 4)
	if math.Abs(cm1.Mean()-3*cm2.Mean()) > 1e-9 {
		t.Errorf("weight scaling: %v vs 3×%v", cm1.Mean(), cm2.Mean())
	}
}

func TestMeasureReport(t *testing.T) {
	d, err := gen.IBM("ibm01", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep := Measure(d)
	if rep.HPWL <= 0 || rep.WeightedHPWL < rep.HPWL {
		t.Errorf("report wirelengths: %+v", rep)
	}
	if rep.PeakCongestion < rep.MeanCongestion {
		t.Error("peak congestion below mean")
	}
	if !strings.Contains(rep.String(), "HPWL=") {
		t.Error("report string missing fields")
	}
}

func TestMeasureCountsOutsideNodes(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 10, 10)}
	d.AddNode(netlist.Node{Name: "in", Kind: netlist.Macro, W: 2, H: 2, X: 1, Y: 1})
	d.AddNode(netlist.Node{Name: "out", Kind: netlist.Macro, W: 2, H: 2, X: 9, Y: 9})
	d.AddNet(netlist.Net{Name: "n", Pins: []netlist.Pin{{Node: 0}, {Node: 1}}})
	rep := Measure(d)
	if rep.Outside != 1 {
		t.Errorf("Outside = %d, want 1", rep.Outside)
	}
}

// TestRUDYEdgeCases drives the estimator through the degenerate
// geometries the clamping in RUDY exists for: zero-area nets, pins on
// the die boundary, and single-bin maps. Each case states the exact
// demand the uniform-spreading model prescribes.
func TestRUDYEdgeCases(t *testing.T) {
	mk := func(region geom.Rect, pts ...geom.Point) *netlist.Design {
		d := &netlist.Design{Region: region}
		var pins []netlist.Pin
		for i, p := range pts {
			id := d.AddNode(netlist.Node{Name: string(rune('a' + i)), Kind: netlist.Cell, X: p.X, Y: p.Y})
			pins = append(pins, netlist.Pin{Node: id})
		}
		d.AddNet(netlist.Net{Name: "n", Pins: pins})
		return d
	}
	cases := []struct {
		name string
		d    *netlist.Design
		bins int
		// want maps bin index → demand; every unlisted bin must be 0.
		want map[int]float64
	}{
		{
			// Both pins on one point: the box is inflated to one bin
			// (w=h=2.5), density (2.5+2.5)/6.25 = 0.8, all of it in the
			// bin containing the point.
			name: "zero-area net",
			d:    mk(geom.NewRect(0, 0, 10, 10), geom.Point{X: 5, Y: 5}, geom.Point{X: 5, Y: 5}),
			bins: 4,
			want: map[int]float64{2*4 + 2: 0.8},
		},
		{
			// A horizontal net touching both die boundaries: height
			// inflates to one bin, density (10+2.5)/25 = 0.5 spread over
			// row y=2 only.
			name: "pins on die boundary",
			d:    mk(geom.NewRect(0, 0, 10, 10), geom.Point{X: 0, Y: 5}, geom.Point{X: 10, Y: 5}),
			bins: 4,
			want: map[int]float64{2 * 4: 0.5, 2*4 + 1: 0.5, 2*4 + 2: 0.5, 2*4 + 3: 0.5},
		},
		{
			// Degenerate net pinned exactly on the far corner: the
			// inflated box lies entirely outside the die, the clamped
			// bin has zero overlap, and the map stays empty (no panic,
			// no negative index).
			name: "net at far corner",
			d:    mk(geom.NewRect(0, 0, 10, 10), geom.Point{X: 10, Y: 10}, geom.Point{X: 10, Y: 10}),
			bins: 4,
			want: map[int]float64{},
		},
		{
			// One-bin map: everything lands in bin 0, scaled by the
			// overlap of the inflated box [2,3]–[12,13] with the die:
			// density (10+10)/100 = 0.2, overlap 8×7 of 100.
			name: "one-bin map",
			d:    mk(geom.NewRect(0, 0, 10, 10), geom.Point{X: 2, Y: 3}, geom.Point{X: 7, Y: 8}),
			bins: 1,
			want: map[int]float64{0: 0.2 * 56 / 100},
		},
	}
	for _, tc := range cases {
		cm := RUDY(tc.d, tc.bins)
		if len(cm.Demand) != tc.bins*tc.bins {
			t.Errorf("%s: map size %d, want %d", tc.name, len(cm.Demand), tc.bins*tc.bins)
			continue
		}
		for i, v := range cm.Demand {
			want := tc.want[i]
			if math.Abs(v-want) > 1e-9 {
				t.Errorf("%s: bin %d demand = %v, want %v", tc.name, i, v, want)
			}
		}
	}
}

// TestRUDYDegenerateMaps: non-positive bin counts fall back to the
// 32-bin default, and a zero-area region yields an all-zero map
// instead of dividing by zero.
func TestRUDYDegenerateMaps(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 10, 10)}
	a := d.AddNode(netlist.Node{Name: "a", Kind: netlist.Cell, X: 1, Y: 1})
	b := d.AddNode(netlist.Node{Name: "b", Kind: netlist.Cell, X: 9, Y: 9})
	d.AddNet(netlist.Net{Name: "n", Pins: []netlist.Pin{{Node: a}, {Node: b}}})
	if cm := RUDY(d, 0); cm.Bins != 32 || len(cm.Demand) != 32*32 {
		t.Errorf("bins=0: got %d bins, want the 32 default", cm.Bins)
	}
	flat := &netlist.Design{Region: geom.NewRect(0, 0, 0, 10)}
	if cm := RUDY(flat, 4); cm.Max() != 0 {
		t.Errorf("zero-width region: demand = %v, want all zero", cm.Max())
	}
	// Empty map accessors must not divide by zero.
	empty := &CongestionMap{}
	if empty.Mean() != 0 {
		t.Error("empty map accessors must return 0")
	}
}

func TestClampI(t *testing.T) {
	cases := []struct {
		x, lo, hi, want int
	}{
		{5, 0, 10, 5},   // inside
		{-3, 0, 10, 0},  // below
		{42, 0, 10, 10}, // above
		{0, 0, 10, 0},   // on lower bound
		{10, 0, 10, 10}, // on upper bound
		{7, 3, 3, 3},    // collapsed interval
	}
	for _, tc := range cases {
		if got := clampI(tc.x, tc.lo, tc.hi); got != tc.want {
			t.Errorf("clampI(%d, %d, %d) = %d, want %d", tc.x, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestReportStringGolden pins the exact Stringer format: experiment
// logs and EXPERIMENTS.md tables are diffed textually, so the format
// is an interface.
func TestReportStringGolden(t *testing.T) {
	r := Report{
		HPWL:           12345.678,
		WeightedHPWL:   23456.789,
		MacroOverlap:   1.5,
		PeakCongestion: 2.25,
		MeanCongestion: 0.125,
		Outside:        3,
	}
	want := "HPWL=1.235e+04 wHPWL=2.346e+04 overlap=1.5 peakCong=2.25 meanCong=0.125 outside=3"
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	zero := Report{}
	wantZero := "HPWL=0 wHPWL=0 overlap=0 peakCong=0 meanCong=0 outside=0"
	if got := zero.String(); got != wantZero {
		t.Errorf("zero String() = %q, want %q", got, wantZero)
	}
}

func TestRUDYIntoMatchesRUDYAndReusesBuffer(t *testing.T) {
	d := &netlist.Design{Region: geom.NewRect(0, 0, 32, 32)}
	a := d.AddNode(netlist.Node{Name: "a", Kind: netlist.Cell, X: 4, Y: 4})
	b := d.AddNode(netlist.Node{Name: "b", Kind: netlist.Cell, X: 12, Y: 12})
	d.AddNet(netlist.Net{Name: "n", Pins: []netlist.Pin{{Node: a}, {Node: b}}})

	want := RUDY(d, 8)
	// Seed the reused map with stale garbage from a different shape:
	// every bin must be rewritten, not accumulated into.
	cm := &CongestionMap{Bins: 3, Demand: make([]float64, 128)}
	for i := range cm.Demand {
		cm.Demand[i] = 99
	}
	got := RUDYInto(cm, d, 8)
	if got != cm {
		t.Fatal("RUDYInto must return the map it was given")
	}
	if got.Bins != want.Bins || len(got.Demand) != len(want.Demand) {
		t.Fatalf("shape %d/%d, want %d/%d", got.Bins, len(got.Demand), want.Bins, len(want.Demand))
	}
	for i := range want.Demand {
		if got.Demand[i] != want.Demand[i] {
			t.Fatalf("Demand[%d] = %v, want %v", i, got.Demand[i], want.Demand[i])
		}
	}
	if &got.Demand[0] != &cm.Demand[0] {
		t.Error("RUDYInto reallocated a buffer with sufficient capacity")
	}
	if nilGot := RUDYInto(nil, d, 8); nilGot == nil || nilGot.Demand[1*8+1] != want.Demand[1*8+1] {
		t.Error("RUDYInto(nil, ...) must allocate and fill a fresh map")
	}
}
