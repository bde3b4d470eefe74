package cluster

import (
	"testing"

	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

func coarsenFixture() (*netlist.Design, *Clustering, *Coarse) {
	d := &netlist.Design{Name: "c", Region: geom.NewRect(0, 0, 160, 160)}
	// Pair of macros that merge, one lone macro, two cells, one pad,
	// one pre-placed macro.
	d.AddNode(netlist.Node{Name: "m0", Kind: netlist.Macro, W: 10, H: 10, X: 10, Y: 10, Hier: "top/a"})
	d.AddNode(netlist.Node{Name: "m1", Kind: netlist.Macro, W: 10, H: 10, X: 22, Y: 10, Hier: "top/a"})
	d.AddNode(netlist.Node{Name: "m2", Kind: netlist.Macro, W: 10, H: 10, X: 140, Y: 140, Hier: "top/b"})
	d.AddNode(netlist.Node{Name: "c0", Kind: netlist.Cell, W: 2, H: 2, X: 12, Y: 40})
	d.AddNode(netlist.Node{Name: "c1", Kind: netlist.Cell, W: 2, H: 2, X: 15, Y: 40})
	d.AddNode(netlist.Node{Name: "pp", Kind: netlist.Macro, Fixed: true, W: 8, H: 8, X: 0, Y: 150})
	d.AddNode(netlist.Node{Name: "io", Kind: netlist.Pad, Fixed: true, W: 1, H: 1, X: 0, Y: 0})
	d.AddNet(netlist.Net{Name: "n0", Pins: []netlist.Pin{{Node: 0}, {Node: 1}}})            // intra-group after merge
	d.AddNet(netlist.Net{Name: "n1", Pins: []netlist.Pin{{Node: 0}, {Node: 3}}})            // macro group ↔ cells
	d.AddNet(netlist.Net{Name: "n2", Pins: []netlist.Pin{{Node: 1}, {Node: 3}, {Node: 4}}}) // parallel at coarse level
	d.AddNet(netlist.Net{Name: "n3", Pins: []netlist.Pin{{Node: 2}, {Node: 6}}})            // macro ↔ pad
	d.AddNet(netlist.Net{Name: "n4", Pins: []netlist.Pin{{Node: 5}, {Node: 2}}})            // fixed macro ↔ macro
	clus := Build(d, 150)
	return d, clus, Coarsen(d, clus)
}

func TestCoarsenStructure(t *testing.T) {
	d, clus, co := coarsenFixture()
	// Expect 2 macro groups ({m0,m1}, {m2}); cells merge into one
	// group; pad and fixed macro pass through.
	if co.MacroGroups != len(clus.MacroGroups) {
		t.Fatalf("MacroGroups = %d, want %d", co.MacroGroups, len(clus.MacroGroups))
	}
	wantNodes := co.MacroGroups + co.CellGroups + 2 // + pad + fixed macro
	if len(co.Design.Nodes) != wantNodes {
		t.Fatalf("coarse nodes = %d, want %d", len(co.Design.Nodes), wantNodes)
	}
	// Every original node maps somewhere.
	for i := range d.Nodes {
		ci := co.CoarseOf[i]
		if ci < 0 || ci >= len(co.Design.Nodes) {
			t.Fatalf("node %d maps to %d", i, ci)
		}
	}
	// Macro group node areas make sense: group shape area >= member sum
	// can differ (shape honours MaxW/MaxH), but the group node must be
	// a macro kind.
	for gi := 0; gi < co.MacroGroups; gi++ {
		if co.Design.Nodes[gi].Kind != netlist.Macro {
			t.Errorf("coarse node %d kind = %v, want macro", gi, co.Design.Nodes[gi].Kind)
		}
	}
	// Fixed pass-throughs preserve kind/position.
	ppIdx := co.CoarseOf[5]
	if co.Design.Nodes[ppIdx].Kind != netlist.Macro || !co.Design.Nodes[ppIdx].Fixed {
		t.Error("pre-placed macro should pass through fixed")
	}
	if co.Design.Nodes[ppIdx].X != 0 || co.Design.Nodes[ppIdx].Y != 150 {
		t.Error("pass-through position changed")
	}
}

func TestCoarsenDropsIntraGroupNets(t *testing.T) {
	_, clus, co := coarsenFixture()
	if len(clus.MacroGroups) != 2 {
		t.Skipf("fixture merged unexpectedly: %d macro groups", len(clus.MacroGroups))
	}
	// n0 connects m0-m1 which share a group → must vanish. Every
	// remaining net must span ≥ 2 coarse nodes.
	for i := range co.Design.Nets {
		net := &co.Design.Nets[i]
		if len(net.Pins) < 2 {
			t.Fatalf("coarse net %s has %d pins", net.Name, len(net.Pins))
		}
		first := net.Pins[0].Node
		allSame := true
		for _, p := range net.Pins {
			if p.Node != first {
				allSame = false
			}
		}
		if allSame {
			t.Fatalf("coarse net %s is intra-node", net.Name)
		}
	}
}

func TestCoarsenMergesParallelNets(t *testing.T) {
	_, clus, co := coarsenFixture()
	if len(clus.MacroGroups) != 2 {
		t.Skip("fixture merged unexpectedly")
	}
	// n1 (m0↔c0) and n2 (m1↔c0,c1) both reduce to {macroGroup0,
	// cellGroup}: they must merge into one net of weight 2.
	var found *netlist.Net
	for i := range co.Design.Nets {
		net := &co.Design.Nets[i]
		if net.Weight >= 2 {
			found = net
		}
	}
	if found == nil {
		t.Fatal("parallel coarse nets were not merged with accumulated weight")
	}
}

func TestCoarsenValidates(t *testing.T) {
	_, _, co := coarsenFixture()
	if err := co.Design.Validate(); err != nil {
		t.Fatalf("coarse design invalid: %v", err)
	}
}

func TestCoarsenOnGeneratedDesign(t *testing.T) {
	d, err := gen.IBM("ibm01", 0.02, 13)
	if err != nil {
		t.Fatal(err)
	}
	clus := Build(d, d.Region.Area()/256)
	co := Coarsen(d, clus)
	if err := co.Design.Validate(); err != nil {
		t.Fatalf("coarse design invalid: %v", err)
	}
	if len(co.Design.Nodes) >= len(d.Nodes) {
		t.Errorf("coarsening did not shrink: %d -> %d nodes", len(d.Nodes), len(co.Design.Nodes))
	}
	if len(co.Design.Nets) >= len(d.Nets) {
		t.Errorf("coarsening did not shrink nets: %d -> %d", len(d.Nets), len(co.Design.Nets))
	}
	// Group shape must fit the largest member on both axes.
	for gi := range clus.MacroGroups {
		g := &clus.MacroGroups[gi]
		node := &co.Design.Nodes[gi]
		if node.W < g.MaxW-1e-9 || node.H < g.MaxH-1e-9 {
			t.Errorf("group %d shape %vx%v smaller than largest member %vx%v",
				gi, node.W, node.H, g.MaxW, g.MaxH)
		}
	}
}

func TestGroupShapeCoversArea(t *testing.T) {
	g := &Group{Area: 100, MaxW: 4, MaxH: 4}
	w, h := groupShape(g)
	if w*h < 100-1e-9 {
		t.Errorf("shape %vx%v covers %v < area 100", w, h, w*h)
	}
	// Wide member forces a wide shape.
	g2 := &Group{Area: 100, MaxW: 50, MaxH: 1}
	w2, h2 := groupShape(g2)
	if w2 < 50 {
		t.Errorf("shape width %v < member width 50", w2)
	}
	if w2*h2 < 100-1e-9 {
		t.Errorf("shape %vx%v covers %v < area 100", w2, h2, w2*h2)
	}
}
