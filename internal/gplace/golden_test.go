package gplace

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"macroplace/internal/cluster"
	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/grid"
	"macroplace/internal/netlist"
)

// placementHash hashes the float64 bits of every node's lower-left
// corner, in node order, and then of hpwl.
func placementHash(d *netlist.Design, hpwl float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i := range d.Nodes {
		put(d.Nodes[i].X)
		put(d.Nodes[i].Y)
	}
	put(hpwl)
	return h.Sum64()
}

// goldenSteps runs the placer's three entry points on d the way the
// flow does and returns one placementHash after each:
//
//  1. InitialPlacement, the prototype placement;
//  2. PlaceQuadraticOnly on the coarsened design, twice on one placer
//     with the macro groups moved in between (the reward oracle's
//     reuse);
//  3. PlaceContext in MoveCells mode at 6 iterations on the full
//     design (the final cell placement).
func goldenSteps(d *netlist.Design) []uint64 {
	var out []uint64
	res := InitialPlacement(d)
	out = append(out, placementHash(d, res.HPWL))

	g := grid.New(d.Region, grid.DefaultZeta)
	co := cluster.Coarsen(d, cluster.Build(d, g.CellArea()))
	cp := New(co.Design, Config{Mode: MoveCells})
	res = cp.PlaceQuadraticOnly()
	out = append(out, placementHash(co.Design, res.HPWL))
	for gi := 0; gi < co.MacroGroups; gi++ {
		n := &co.Design.Nodes[gi]
		c := n.Center()
		n.SetCenter(d.Region.Lx+d.Region.Ux-c.X, d.Region.Ly+d.Region.Uy-c.Y)
	}
	res = cp.PlaceQuadraticOnly()
	out = append(out, placementHash(co.Design, res.HPWL))

	res = New(d, Config{Mode: MoveCells, Iterations: 6}).PlaceContext(context.Background())
	out = append(out, placementHash(d, res.HPWL))
	return out
}

// TestPlacementGolden pins the bits of every position and HPWL the
// placer produces on an ICCAD04-like design (no pads) and on an
// industrial-like one with pads and pre-placed macros, at GOMAXPROCS 1
// and 2. The values were recorded with the per-row matrix and the
// one-goroutine solve that the flat CSR matrix and the two-axis split
// replaced; the designs span both sides of splitPins.
func TestPlacementGolden(t *testing.T) {
	cases := []struct {
		name string
		make func() (*netlist.Design, error)
		want []uint64
	}{
		{"ibm01@0.02", func() (*netlist.Design, error) { return gen.IBM("ibm01", 0.02, 11) },
			[]uint64{0x8d0a4f487857499d, 0x14d3ee45c463bad9, 0x7cd5253db4685ea3, 0x9b28906807d40474}},
		{"cir1@0.02", func() (*netlist.Design, error) { return gen.Cir("cir1", 0.02, 12) },
			[]uint64{0xcae74f8d4a75433d, 0x18f94319dd71b717, 0xdbb899c9d2b3400e, 0x95adb8c5205da7c5}},
	}
	steps := []string{"InitialPlacement", "coarse PlaceQuadraticOnly", "coarse PlaceQuadraticOnly again", "PlaceContext MoveCells"}
	for _, procs := range []int{1, 2} {
		for _, c := range cases {
			d, err := c.make()
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got = goldenSteps(d)
			}()
			for i, h := range got {
				if h != c.want[i] {
					t.Errorf("%s at GOMAXPROCS=%d: %s hash %#x, want %#x", c.name, procs, steps[i], h, c.want[i])
				}
			}
		}
	}
}

// coincidentDesign returns a design whose nets have pins at one
// coordinate on an axis, the way real inputs produce them: lefdef
// starts every UNPLACED component at the die center, so two unplaced
// inverters (INVX1: 0.4 × 2, A and Z at the cell's mid height) joined
// Z→A have pins at one y, and a cell sits at the same x as a pad it
// drives.
func coincidentDesign() *netlist.Design {
	d := &netlist.Design{Name: "coincident", Region: geom.NewRect(0, 0, 100, 100)}
	pad := func(name string, x, y float64) int {
		return d.AddNode(netlist.Node{Name: name, Kind: netlist.Pad, Fixed: true, X: x, Y: y})
	}
	in0 := pad("in0", 0, 50)
	out0 := pad("out0", 100, 50)
	bot := pad("bot", 30, 0)
	ram := d.AddNode(netlist.Node{Name: "ram0", Kind: netlist.Macro, W: 20, H: 20, X: 10, Y: 10})
	inv := func(name string) int {
		n := netlist.Node{Name: name, Kind: netlist.Cell, W: 0.4, H: 2}
		n.SetCenter(d.Region.Center().X, d.Region.Center().Y)
		return d.AddNode(n)
	}
	inv0, inv1 := inv("inv0"), inv("inv1")
	drv := d.AddNode(netlist.Node{Name: "drv", Kind: netlist.Cell, W: 1, H: 2, X: 29.5, Y: 20})
	a := func(n int) netlist.Pin { return netlist.Pin{Node: n, Dx: -0.1} }
	z := func(n int) netlist.Pin { return netlist.Pin{Node: n, Dx: 0.1} }
	d.AddNet(netlist.Net{Name: "nin", Pins: []netlist.Pin{{Node: in0}, a(inv0)}})
	d.AddNet(netlist.Net{Name: "nmid", Pins: []netlist.Pin{z(inv0), a(inv1)}})
	d.AddNet(netlist.Net{Name: "nout", Pins: []netlist.Pin{z(inv1), {Node: out0}, z(inv0)}})
	d.AddNet(netlist.Net{Name: "nbot", Pins: []netlist.Pin{{Node: bot}, {Node: drv}}})
	d.AddNet(netlist.Net{Name: "ndrv", Pins: []netlist.Pin{{Node: drv, Dx: 0.25, Dy: 0.5}, a(inv1)}})
	d.AddNet(netlist.Net{Name: "nram", Pins: []netlist.Pin{{Node: ram, Dx: 10, Dy: -4}, {Node: drv}, {Node: out0}}, Weight: 2})
	return d
}

// coincidentNets counts d's nets whose pins all sit at one coordinate
// on the y axis (y) or the x axis, computed as the placer computes it.
func coincidentNets(d *netlist.Design, y bool) int {
	at := func(p netlist.Pin) float64 {
		n := &d.Nodes[p.Node]
		if y {
			return n.Y + n.H/2 + p.Dy
		}
		return n.X + n.W/2 + p.Dx
	}
	count := 0
	for _, net := range d.Nets {
		same := true
		for _, p := range net.Pins[1:] {
			same = same && at(p) == at(net.Pins[0])
		}
		if same {
			count++
		}
	}
	return count
}

// TestCoincidentPinsGolden pins the bits of three placements of
// coincidentDesign, on one goroutine and split over two, at GOMAXPROCS
// 1 and 2. A net whose pins all sit at one coordinate on an axis adds
// no spring on that axis; joining its pins instead changes all three
// hashes. The values were recorded with the per-net B2B loop and the
// per-row matrix that assemble and the flat CSR matrix replaced.
func TestCoincidentPinsGolden(t *testing.T) {
	if d := coincidentDesign(); coincidentNets(d, true) < 3 || coincidentNets(d, false) < 1 {
		t.Fatalf("coincidentDesign has %d nets at one y and %d at one x, want 3 and 1",
			coincidentNets(d, true), coincidentNets(d, false))
	}
	steps := []struct {
		name string
		cfg  Config
		run  func(p *Placer) Result
		want uint64
	}{
		{"PlaceQuadraticOnly", Config{Mode: MoveCells}, (*Placer).PlaceQuadraticOnly, 0xabcd147399dfbf40},
		{"PlaceContext MoveCells", Config{Mode: MoveCells, Iterations: 6},
			func(p *Placer) Result { return p.PlaceContext(context.Background()) }, 0x936689d1a56a6327},
		{"InitialPlacement", Config{Mode: MoveAll, Iterations: 6}, (*Placer).Place, 0x4575d4707b6eb2c4},
	}
	for _, procs := range []int{1, 2} {
		for _, split := range []bool{false, true} {
			for _, s := range steps {
				d := coincidentDesign()
				p := New(d, s.cfg)
				p.split = split
				var got uint64
				withProcs(procs, func() { got = placementHash(d, s.run(p).HPWL) })
				if got != s.want {
					t.Errorf("%s at GOMAXPROCS=%d, split %v: hash %#x, want %#x", s.name, procs, split, got, s.want)
				}
			}
		}
	}
}
