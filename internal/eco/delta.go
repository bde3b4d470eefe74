// Package eco implements incremental re-placement (ECO — engineering
// change order) jobs: given a prior placement of a design and a small
// netlist delta, a short budgeted local-move search re-optimises the
// macro allocation starting from the prior instead of re-running the
// full train-and-search flow. Warm per-design state (trained agent
// weights, the evaluation cache, the calibrated reward scaler)
// persists across jobs in a WarmStore keyed by the post-delta
// netlist's content hash, so the second ECO on a design skips training
// entirely and replays cached network evaluations.
package eco

import (
	"fmt"
	"math"

	"macroplace/internal/netlist"
)

// DeltaPin names one connection of an added net: a node by name plus
// the pin offset from the node center.
type DeltaPin struct {
	Node string  `json:"node"`
	Dx   float64 `json:"dx,omitempty"`
	Dy   float64 `json:"dy,omitempty"`
}

// DeltaNet is a net to add.
type DeltaNet struct {
	Name   string     `json:"name"`
	Weight float64    `json:"weight,omitempty"`
	Pins   []DeltaPin `json:"pins"`
}

// Delta is a netlist ECO: the connectivity edits between the netlist a
// prior placement was produced for and the netlist to re-place now.
// Nodes are never added or removed — an ECO that changes the cell set
// is a new design, not an increment (run the full flow).
type Delta struct {
	// AddNets are appended to the design.
	AddNets []DeltaNet `json:"add_nets,omitempty"`
	// DropNets removes existing nets by name.
	DropNets []string `json:"drop_nets,omitempty"`
	// Reweight sets the weight of existing nets by name.
	Reweight map[string]float64 `json:"reweight,omitempty"`
}

// Empty reports whether the delta contains no edits.
func (dl *Delta) Empty() bool {
	return dl == nil || (len(dl.AddNets) == 0 && len(dl.DropNets) == 0 && len(dl.Reweight) == 0)
}

// Validate checks the delta's internal consistency plus every
// reference against d: added nets must carry ≥ 2 pins on nodes that
// exist, dropped and reweighted nets must exist, weights must be
// finite and non-negative. d may be nil to check only the
// design-independent properties (the serve layer validates specs
// before any design is loaded).
func (dl *Delta) Validate(d *netlist.Design) error {
	if dl == nil {
		return nil
	}
	netByName := map[string]bool{}
	if d != nil {
		for i := range d.Nets {
			netByName[d.Nets[i].Name] = true
		}
	}
	seenAdd := map[string]bool{}
	for i := range dl.AddNets {
		an := &dl.AddNets[i]
		if an.Name == "" {
			return fmt.Errorf("eco: add_nets[%d] has no name", i)
		}
		if seenAdd[an.Name] {
			return fmt.Errorf("eco: add_nets names %q twice", an.Name)
		}
		seenAdd[an.Name] = true
		if math.IsNaN(an.Weight) || math.IsInf(an.Weight, 0) || an.Weight < 0 {
			return fmt.Errorf("eco: add_nets[%q] weight %v is not a finite non-negative number", an.Name, an.Weight)
		}
		if len(an.Pins) < 2 {
			return fmt.Errorf("eco: add_nets[%q] has %d pins, need >= 2", an.Name, len(an.Pins))
		}
		for _, p := range an.Pins {
			if math.IsNaN(p.Dx) || math.IsInf(p.Dx, 0) || math.IsNaN(p.Dy) || math.IsInf(p.Dy, 0) {
				return fmt.Errorf("eco: add_nets[%q] pin on %q has non-finite offset", an.Name, p.Node)
			}
			if d != nil && d.NodeIndex(p.Node) < 0 {
				return fmt.Errorf("eco: add_nets[%q] references unknown cell %q", an.Name, p.Node)
			}
		}
		if d != nil && netByName[an.Name] {
			return fmt.Errorf("eco: add_nets[%q] already exists in design %q", an.Name, d.Name)
		}
	}
	seenDrop := map[string]bool{}
	for _, name := range dl.DropNets {
		if name == "" {
			return fmt.Errorf("eco: drop_nets contains an empty name")
		}
		if seenDrop[name] {
			return fmt.Errorf("eco: drop_nets names %q twice", name)
		}
		seenDrop[name] = true
		if d != nil && !netByName[name] {
			return fmt.Errorf("eco: drop_nets references unknown net %q", name)
		}
	}
	for name, w := range dl.Reweight {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("eco: reweight[%q] = %v is not a finite non-negative number", name, w)
		}
		if seenDrop[name] {
			return fmt.Errorf("eco: net %q both dropped and reweighted", name)
		}
		if d != nil && !netByName[name] {
			return fmt.Errorf("eco: reweight references unknown net %q", name)
		}
	}
	return nil
}

// Apply mutates d in place: drops, reweights, then appends nets (map
// iteration order does not matter — each reweight touches a distinct
// net). Callers wanting the original intact clone first. Apply
// validates against d, so a delta that survived an earlier
// design-independent Validate still fails here when it references
// unknown cells or nets.
func (dl *Delta) Apply(d *netlist.Design) error {
	if err := dl.Validate(d); err != nil {
		return err
	}
	if dl.Empty() {
		return nil
	}
	drop := map[string]bool{}
	for _, name := range dl.DropNets {
		drop[name] = true
	}
	if len(drop) > 0 {
		kept := d.Nets[:0]
		for i := range d.Nets {
			if !drop[d.Nets[i].Name] {
				kept = append(kept, d.Nets[i])
			}
		}
		d.Nets = kept
	}
	if len(dl.Reweight) > 0 {
		for i := range d.Nets {
			if w, ok := dl.Reweight[d.Nets[i].Name]; ok {
				d.Nets[i].Weight = w
			}
		}
	}
	for i := range dl.AddNets {
		an := &dl.AddNets[i]
		pins := make([]netlist.Pin, len(an.Pins))
		for j, p := range an.Pins {
			pins[j] = netlist.Pin{Node: d.NodeIndex(p.Node), Dx: p.Dx, Dy: p.Dy}
		}
		d.AddNet(netlist.Net{Name: an.Name, Weight: an.Weight, Pins: pins})
	}
	return nil
}
