package netlist

import (
	"math"
	"testing"
)

// TestIncrementalBitEqualAfterMoves pins the drift-free property on a
// deterministic long walk: the maintained total must be bit-equal to a
// freshly built evaluator at every step, not merely close.
func TestIncrementalBitEqualAfterMoves(t *testing.T) {
	d := randomDesign(11, 25, 50)
	ev := NewIncrementalHPWL(d)
	s := uint64(99)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for step := 0; step < 2000; step++ {
		n := int(next() % 25)
		x := float64(next()%9000) / 100
		y := float64(next()%9000) / 100
		ev.MoveNode(n, x, y)
		if fresh := NewIncrementalHPWL(d).Total(); ev.Total() != fresh {
			t.Fatalf("step %d: incremental total %x drifted from fresh rebuild %x",
				step, math.Float64bits(ev.Total()), math.Float64bits(fresh))
		}
	}
}

// FuzzIncrementalHPWL drives random move/swap/revert sequences and
// asserts, at every step, (a) bit-equality between the incremental
// accumulator and a full recompute (a freshly built evaluator over the
// same positions — same summation shape, so any history dependence in
// the accumulator would show up as a bit difference), and (b) epsilon
// agreement with the design's direct WeightedHPWL (guarding against a
// summation tree that is self-consistent but wrong).
func FuzzIncrementalHPWL(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255, 0, 128, 7, 9, 200, 13, 77})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		const nodes = 12
		d := randomDesign(21, nodes, 24)
		ev := NewIncrementalHPWL(d)
		for i := 0; i+3 < len(ops); i += 4 {
			n := int(ops[i]) % nodes
			x := float64(ops[i+1]) / 255 * 95
			y := float64(ops[i+2]) / 255 * 95
			switch ops[i+3] % 4 {
			case 0:
				ev.MoveNode(n, x, y)
			case 1:
				ev.MoveCenter(n, x, y)
			case 2:
				// Move and revert, the detailed placer's rejected-swap
				// idiom: the revert must restore the total's bits.
				ox, oy := d.Nodes[n].X, d.Nodes[n].Y
				ev.MoveCenter(n, x, y)
				ev.MoveNode(n, ox, oy)
			case 3:
				// Swap two node positions, the ECO/SA move idiom.
				m := int(ops[i+1]) % nodes
				nx, ny := d.Nodes[n].X, d.Nodes[n].Y
				mx, my := d.Nodes[m].X, d.Nodes[m].Y
				ev.MoveNode(n, mx, my)
				ev.MoveNode(m, nx, ny)
			}
			fresh := NewIncrementalHPWL(d).Total()
			if ev.Total() != fresh {
				t.Fatalf("op %d: incremental total %x != fresh rebuild %x (drift)",
					i/4, math.Float64bits(ev.Total()), math.Float64bits(fresh))
			}
			full := d.WeightedHPWL()
			if diff := math.Abs(ev.Total() - full); diff > 1e-9*(1+full) {
				t.Fatalf("op %d: incremental total %v != direct WeightedHPWL %v", i/4, ev.Total(), full)
			}
		}
	})
}
