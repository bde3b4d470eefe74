package netlist

import (
	"math"
	"testing"

	"macroplace/internal/geom"
	"macroplace/internal/rng"
)

// randomDesign builds a design with random nodes and nets for
// incremental-vs-full comparison.
func randomDesign(seed int64, nodes, nets int) *Design {
	r := rng.New(seed)
	d := &Design{Name: "r", Region: geom.NewRect(0, 0, 100, 100)}
	for i := 0; i < nodes; i++ {
		d.AddNode(Node{
			Name: "n" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)),
			Kind: Cell, W: r.Range(1, 4), H: r.Range(1, 4),
			X: r.Range(0, 90), Y: r.Range(0, 90),
		})
	}
	for i := 0; i < nets; i++ {
		deg := r.IntRange(2, 5)
		net := Net{Name: "e", Weight: r.Range(0.5, 2)}
		seen := map[int]bool{}
		for len(net.Pins) < deg {
			n := r.Intn(nodes)
			if seen[n] {
				continue
			}
			seen[n] = true
			net.Pins = append(net.Pins, Pin{Node: n, Dx: r.Range(-0.5, 0.5), Dy: r.Range(-0.5, 0.5)})
		}
		d.AddNet(net)
	}
	return d
}

func TestIncrementalMatchesFull(t *testing.T) {
	d := randomDesign(1, 30, 60)
	ev := NewIncrementalHPWL(d)
	if math.Abs(ev.Total()-d.WeightedHPWL()) > 1e-9 {
		t.Fatalf("initial total %v != full %v", ev.Total(), d.WeightedHPWL())
	}
	r := rng.New(2)
	for step := 0; step < 300; step++ {
		n := r.Intn(30)
		ev.MoveNode(n, r.Range(0, 90), r.Range(0, 90))
		full := d.WeightedHPWL()
		if math.Abs(ev.Total()-full) > 1e-6*(1+full) {
			t.Fatalf("step %d: incremental %v != full %v", step, ev.Total(), full)
		}
	}
}

func TestIncrementalDeltaConsistency(t *testing.T) {
	d := randomDesign(3, 20, 40)
	ev := NewIncrementalHPWL(d)
	r := rng.New(4)
	for step := 0; step < 100; step++ {
		n := r.Intn(20)
		before := ev.Total()
		delta := ev.MoveNode(n, r.Range(0, 90), r.Range(0, 90))
		if math.Abs((before+delta)-ev.Total()) > 1e-9*(1+math.Abs(ev.Total())) {
			t.Fatalf("delta inconsistent at step %d", step)
		}
	}
}

func TestMoveNodeNoop(t *testing.T) {
	d := randomDesign(6, 5, 8)
	ev := NewIncrementalHPWL(d)
	if delta := ev.MoveNode(2, d.Nodes[2].X, d.Nodes[2].Y); delta != 0 {
		t.Errorf("no-op move returned delta %v", delta)
	}
}
