package eco

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"macroplace/internal/atomicio"
	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

// Placement is the persisted prior-placement artifact (placement.json
// in a job directory): the placed centers of every movable macro. It
// is the hand-off between a full placement job and the ECO jobs that
// later re-place the same design incrementally.
type Placement struct {
	Design string `json:"design"`
	// Macros maps movable-macro name → placed center [x, y].
	Macros map[string][2]float64 `json:"macros"`
}

// SnapshotPlacement captures d's movable-macro centers.
func SnapshotPlacement(d *netlist.Design) Placement {
	p := Placement{Design: d.Name, Macros: map[string][2]float64{}}
	for _, mi := range d.MovableMacroIndices() {
		c := d.Nodes[mi].Center()
		p.Macros[d.Nodes[mi].Name] = [2]float64{c.X, c.Y}
	}
	return p
}

// WritePlacement atomically persists d's movable-macro centers.
func WritePlacement(path string, d *netlist.Design) error {
	p := SnapshotPlacement(d)
	return WritePlacementWire(path, p.Design, p.Macros)
}

// WritePlacementWire atomically persists pre-captured macro centers
// (e.g. Result.Macros from an ECO run).
func WritePlacementWire(path, design string, macros map[string][2]float64) error {
	data, err := json.MarshalIndent(Placement{Design: design, Macros: macros}, "", "  ")
	if err != nil {
		return fmt.Errorf("eco: marshal placement: %w", err)
	}
	return atomicio.WriteFileBytes(path, append(data, '\n'))
}

// ReadPlacement loads a placement.json into the prior map Run takes.
func ReadPlacement(path string) (map[string]geom.Point, error) {
	macros, err := ReadPlacementWire(path)
	if err != nil {
		return nil, err
	}
	return PriorFromWire(macros)
}

// ReadPlacementWire loads a placement.json's macro centers in wire
// form (the inline prior an ECO job spec carries).
func ReadPlacementWire(path string) (map[string][2]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("eco: read placement: %w", err)
	}
	var p Placement
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("eco: parse placement %s: %w", path, err)
	}
	return p.Macros, nil
}

// PriorFromWire converts the wire form (name → [x, y]) into the prior
// map Run takes, rejecting non-finite coordinates.
func PriorFromWire(macros map[string][2]float64) (map[string]geom.Point, error) {
	prior := make(map[string]geom.Point, len(macros))
	for name, xy := range macros {
		if name == "" {
			return nil, fmt.Errorf("eco: prior has an unnamed macro")
		}
		if math.IsNaN(xy[0]) || math.IsInf(xy[0], 0) || math.IsNaN(xy[1]) || math.IsInf(xy[1], 0) {
			return nil, fmt.Errorf("eco: prior position of %q is not finite", name)
		}
		prior[name] = geom.Point{X: xy[0], Y: xy[1]}
	}
	return prior, nil
}
