package cluster

import (
	"reflect"
	"testing"

	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

// smallDesign builds four macros and some cells with controlled
// hierarchy and connectivity.
func smallDesign() *netlist.Design {
	d := &netlist.Design{Name: "s", Region: geom.NewRect(0, 0, 160, 160)}
	// Two pairs of macros: (m0, m1) close together, same hierarchy,
	// connected; (m2, m3) far away from the first pair.
	d.AddNode(netlist.Node{Name: "m0", Kind: netlist.Macro, W: 10, H: 10, X: 10, Y: 10, Hier: "top/a"})
	d.AddNode(netlist.Node{Name: "m1", Kind: netlist.Macro, W: 10, H: 10, X: 25, Y: 10, Hier: "top/a"})
	d.AddNode(netlist.Node{Name: "m2", Kind: netlist.Macro, W: 10, H: 10, X: 120, Y: 120, Hier: "top/b"})
	d.AddNode(netlist.Node{Name: "m3", Kind: netlist.Macro, W: 10, H: 10, X: 135, Y: 120, Hier: "top/b"})
	// Cells.
	d.AddNode(netlist.Node{Name: "c0", Kind: netlist.Cell, W: 2, H: 2, X: 12, Y: 30, Hier: "top/a"})
	d.AddNode(netlist.Node{Name: "c1", Kind: netlist.Cell, W: 2, H: 2, X: 16, Y: 30, Hier: "top/a"})
	d.AddNode(netlist.Node{Name: "c2", Kind: netlist.Cell, W: 2, H: 2, X: 130, Y: 100, Hier: "top/b"})
	// Nets: macro pair connectivity + cell pair.
	d.AddNet(netlist.Net{Name: "n0", Pins: []netlist.Pin{{Node: 0}, {Node: 1}}})
	d.AddNet(netlist.Net{Name: "n1", Pins: []netlist.Pin{{Node: 2}, {Node: 3}}})
	d.AddNet(netlist.Net{Name: "n2", Pins: []netlist.Pin{{Node: 4}, {Node: 5}}})
	d.AddNet(netlist.Net{Name: "n3", Pins: []netlist.Pin{{Node: 1}, {Node: 4}}})
	return d
}

func TestBuildGroupsNearbyConnectedMacros(t *testing.T) {
	d := smallDesign()
	// Grid area between one macro (100) and a merged pair (200): pairs
	// merge, but two grid-exceeding pair-groups are never merged
	// further (the paper's size-based termination).
	c := Build(d, 150)
	if len(c.MacroGroups) != 2 {
		t.Fatalf("macro groups = %d, want 2 (two pairs)", len(c.MacroGroups))
	}
	// Each pair must land in one group.
	g0 := c.GroupOf[0]
	if c.GroupOf[1] != g0 {
		t.Error("m0 and m1 should share a group")
	}
	g2 := c.GroupOf[2]
	if c.GroupOf[3] != g2 {
		t.Error("m2 and m3 should share a group")
	}
	if g0 == g2 {
		t.Error("the two distant pairs must not merge")
	}
}

func TestGroupHierIsCommonPrefix(t *testing.T) {
	d := smallDesign()
	c := Build(d, 150)
	for _, g := range c.MacroGroups {
		if len(g.Members) == 2 && g.Hier != "top/a" && g.Hier != "top/b" {
			t.Errorf("group hier = %q, want a common prefix", g.Hier)
		}
	}
}

func TestGridAreaStopsMerging(t *testing.T) {
	d := smallDesign()
	// Grid smaller than one macro: every pair is merge-ineligible
	// once both exceed it, so all macros stay singletons.
	c := Build(d, 1)
	if len(c.MacroGroups) != 4 {
		t.Fatalf("macro groups = %d, want 4 singletons with tiny grid", len(c.MacroGroups))
	}
}

func TestGroupsSortedByAreaDesc(t *testing.T) {
	d, err := gen.IBM("ibm01", 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := Build(d, d.Region.Area()/256)
	for i := 1; i < len(c.MacroGroups); i++ {
		if c.MacroGroups[i].Area > c.MacroGroups[i-1].Area {
			t.Fatalf("groups not area-sorted at %d: %v > %v", i, c.MacroGroups[i].Area, c.MacroGroups[i-1].Area)
		}
	}
}

func TestGroupInvariants(t *testing.T) {
	d, err := gen.IBM("ibm06", 0.03, 5)
	if err != nil {
		t.Fatal(err)
	}
	gridArea := d.Region.Area() / 256
	c := Build(d, gridArea)

	// Every movable macro and every cell is in exactly one group.
	seen := map[int]bool{}
	for _, g := range c.MacroGroups {
		if len(g.Members) == 0 {
			t.Fatal("empty macro group")
		}
		var area float64
		for _, m := range g.Members {
			if seen[m] {
				t.Fatalf("node %d in two groups", m)
			}
			seen[m] = true
			if d.Nodes[m].Kind != netlist.Macro || d.Nodes[m].Fixed {
				t.Fatalf("macro group contains non-movable-macro node %d", m)
			}
			area += d.Nodes[m].Area()
			if d.Nodes[m].W > g.MaxW+1e-9 || d.Nodes[m].H > g.MaxH+1e-9 {
				t.Fatal("MaxW/MaxH smaller than a member")
			}
		}
		if area != g.Area {
			t.Fatalf("group area %v != sum of members %v", g.Area, area)
		}
		// Groups never exceed the merge cap.
		if g.Area > maxGroupGrids*gridArea+1e-9 && len(g.Members) > 1 {
			t.Fatalf("group area %v exceeds cap %v", g.Area, maxGroupGrids*gridArea)
		}
	}
	for _, g := range c.CellGroups {
		for _, m := range g.Members {
			if seen[m] {
				t.Fatalf("node %d in two groups", m)
			}
			seen[m] = true
			if d.Nodes[m].Kind != netlist.Cell {
				t.Fatalf("cell group contains non-cell node %d", m)
			}
		}
	}
	for _, m := range d.MovableMacroIndices() {
		if !seen[m] {
			t.Fatalf("macro %d unassigned", m)
		}
	}
	for _, ci := range d.CellIndices() {
		if !seen[ci] {
			t.Fatalf("cell %d unassigned", ci)
		}
	}
	// GroupOf is consistent with membership.
	for gi, g := range c.MacroGroups {
		for _, m := range g.Members {
			if c.GroupOf[m] != gi {
				t.Fatalf("GroupOf[%d] = %d, want %d", m, c.GroupOf[m], gi)
			}
		}
	}
	// Cell grouping should actually coarsen (far fewer groups than
	// cells).
	if len(c.CellGroups)*2 >= len(d.CellIndices()) {
		t.Errorf("cell clustering barely coarsened: %d groups for %d cells",
			len(c.CellGroups), len(d.CellIndices()))
	}
}

func TestBuildDeterministic(t *testing.T) {
	mk := func() *Clustering {
		d, err := gen.IBM("ibm01", 0.02, 9)
		if err != nil {
			t.Fatal(err)
		}
		return Build(d, d.Region.Area()/64)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.MacroGroups, b.MacroGroups) {
		t.Error("macro grouping must be deterministic")
	}
	if !reflect.DeepEqual(a.GroupOf, b.GroupOf) {
		t.Error("GroupOf must be deterministic")
	}
}

func TestReorderMacroGroups(t *testing.T) {
	d := smallDesign()
	c := Build(d, 150)
	orig := append([]Group(nil), c.MacroGroups...)
	perm := []int{1, 0}
	c.ReorderMacroGroups(perm)
	if !reflect.DeepEqual(c.MacroGroups[0], orig[1]) || !reflect.DeepEqual(c.MacroGroups[1], orig[0]) {
		t.Error("reorder did not permute groups")
	}
	for gi, g := range c.MacroGroups {
		for _, m := range g.Members {
			if c.GroupOf[m] != gi {
				t.Errorf("GroupOf[%d] = %d after reorder, want %d", m, c.GroupOf[m], gi)
			}
		}
	}
}

func TestReorderRejectsBadPermutation(t *testing.T) {
	d := smallDesign()
	c := Build(d, 150)
	for _, perm := range [][]int{{0}, {0, 0}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm %v should panic", perm)
				}
			}()
			c.ReorderMacroGroups(perm)
		}()
	}
}

func TestCommonHier(t *testing.T) {
	cases := []struct {
		a, b, want string
	}{
		{"top/a/x", "top/a/y", "top/a"},
		{"top/a", "top/a", "top/a"},
		{"top/a", "other/a", ""},
		{"", "top", ""},
	}
	for _, c := range cases {
		if got := commonHier(c.a, c.b); got != c.want {
			t.Errorf("commonHier(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

func TestGammaScoreComponents(t *testing.T) {
	d := smallDesign()
	nodeNets := d.NodeNets()
	a := newWorkGroup(d, 0, nodeNets, 0) // m0
	b := newWorkGroup(d, 1, nodeNets, 1) // m1: near, connected, same hier
	c := newWorkGroup(d, 2, nodeNets, 2) // m2: far, unconnected, other hier
	sNear := gammaScore(d, a, b)
	sFar := gammaScore(d, a, c)
	if sNear <= sFar {
		t.Errorf("Γ(near,connected)=%v should exceed Γ(far)=%v", sNear, sFar)
	}
	// Connectivity contributes: removing the shared net must lower Γ.
	conn := connectivity(d, a, b)
	if conn != 1 {
		t.Errorf("connectivity(m0,m1) = %v, want 1", conn)
	}
	if connectivity(d, a, c) != 0 {
		t.Error("connectivity(m0,m2) should be 0")
	}
}

func TestMergeIntoUpdatesCentroidAndNets(t *testing.T) {
	d := smallDesign()
	nodeNets := d.NodeNets()
	a := newWorkGroup(d, 0, nodeNets, 0)
	b := newWorkGroup(d, 1, nodeNets, 1)
	cx := (a.CX*a.Area + b.CX*b.Area) / (a.Area + b.Area)
	mergeInto(a, b)
	if a.CX != cx {
		t.Errorf("centroid = %v, want %v", a.CX, cx)
	}
	if b.alive {
		t.Error("source group should be dead after merge")
	}
	if len(a.Members) != 2 {
		t.Errorf("members = %v", a.Members)
	}
	if a.Area != 200 {
		t.Errorf("area = %v, want 200", a.Area)
	}
	// Net n0 now has both pins in the group; counts accumulate.
	if a.nets[0] != 2 {
		t.Errorf("net 0 count = %v, want 2", a.nets[0])
	}
}

func TestMatchMergeSkipsHighFanoutNets(t *testing.T) {
	// A 20-pin net must not create candidate pairs (clique blowup
	// guard); cells connected only through it stay unmerged.
	d := &netlist.Design{Name: "hf", Region: geom.NewRect(0, 0, 100, 100)}
	var pins []netlist.Pin
	for i := 0; i < 20; i++ {
		id := d.AddNode(netlist.Node{
			Name: "c" + string(rune('a'+i)), Kind: netlist.Cell,
			W: 1, H: 1, X: float64(i * 5), Y: 0,
		})
		pins = append(pins, netlist.Pin{Node: id})
	}
	d.AddNet(netlist.Net{Name: "huge", Pins: pins})
	c := Build(d, 1000)
	if len(c.CellGroups) != 20 {
		t.Errorf("cell groups = %d, want 20 (high-fanout net ignored)", len(c.CellGroups))
	}
}

func TestBuildEmptyDesign(t *testing.T) {
	d := &netlist.Design{Name: "empty", Region: geom.NewRect(0, 0, 10, 10)}
	c := Build(d, 1)
	if len(c.MacroGroups) != 0 || len(c.CellGroups) != 0 {
		t.Errorf("empty design produced groups: %d/%d", len(c.MacroGroups), len(c.CellGroups))
	}
}

func TestFixedMacrosExcludedFromGrouping(t *testing.T) {
	d := smallDesign()
	d.Nodes[0].Fixed = true // m0 becomes pre-placed
	c := Build(d, 150)
	for _, g := range c.MacroGroups {
		for _, m := range g.Members {
			if m == 0 {
				t.Fatal("fixed macro entered a group")
			}
		}
	}
	if c.GroupOf[0] != -1 {
		t.Error("fixed macro should map to no group")
	}
}
