package netlist

import "math"

// ContentHash fingerprints the design's *structure*: region, node
// identities (name, kind, size, fixedness — plus position for nodes
// the placer may not move), and net connectivity with weights and pin
// offsets. Movable-node positions are deliberately excluded, so two
// snapshots of the same circuit in different placements hash equal.
//
// This is the warm-store key of the ECO workload (internal/eco): an
// incremental re-placement job reuses per-design state — trained agent
// weights, the evaluation cache — exactly when the netlist it is
// about to re-place is structurally the netlist that state was built
// for. A delta that adds, drops, or reweights a net changes the hash,
// as does any geometry change that alters the placement problem.
//
// The hash is FNV-1a over a canonical word stream. It is not
// cryptographic: a warm-store collision costs a wasted cache (stale
// keys never verify — see agent.CachedEvaluator fingerprinting), not
// correctness.
func (d *Design) ContentHash() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	word := func(w uint64) {
		h = (h ^ w) * fnvPrime
	}
	str := func(s string) {
		word(uint64(len(s)))
		for _, b := range []byte(s) {
			word(uint64(b))
		}
	}
	f := func(v float64) { word(math.Float64bits(v)) }

	str(d.Name)
	f(d.Region.Lx)
	f(d.Region.Ly)
	f(d.Region.Ux)
	f(d.Region.Uy)

	word(uint64(len(d.Nodes)))
	for i := range d.Nodes {
		n := &d.Nodes[i]
		str(n.Name)
		word(uint64(n.Kind))
		if n.Fixed {
			word(1)
		} else {
			word(0)
		}
		f(n.W)
		f(n.H)
		if !n.Movable() {
			// Immovable geometry (pre-placed macros, pads) is part of
			// the problem statement; movable positions are the answer.
			f(n.X)
			f(n.Y)
		}
	}

	// Physical constraints change the legal placement space, so warm
	// state must not be shared across constraint recipes. The nil case
	// mixes nothing, keeping pre-constraint hashes stable.
	if d.Phys.Active() {
		word(1)
		d.Phys.hashInto(word, str)
	}

	word(uint64(len(d.Nets)))
	for i := range d.Nets {
		net := &d.Nets[i]
		str(net.Name)
		f(net.Weight)
		word(uint64(len(net.Pins)))
		for _, p := range net.Pins {
			word(uint64(p.Node))
			f(p.Dx)
			f(p.Dy)
		}
	}
	return h
}
