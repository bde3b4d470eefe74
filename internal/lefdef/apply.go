package lefdef

import (
	"fmt"
	"strconv"
	"strings"

	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

// ReadDesign parses the LEF library and DEF design files and converts
// them to the placement model — the one ingestion sequence the daemon
// (on its staged uploads), defcheck, and mctsplace's -defout re-read
// share. The document and library come back too, so a placed result
// can be written into the same DEF.
func ReadDesign(lefPath, defPath string) (*netlist.Design, *Document, *LEF, error) {
	lef, err := ParseLEFFile(lefPath)
	if err != nil {
		return nil, nil, nil, err
	}
	doc, err := ParseDEFFile(defPath)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := ToDesign(doc, lef)
	if err != nil {
		return nil, nil, nil, err
	}
	return d, doc, lef, nil
}

// WritePlacedDEF writes placed back into doc and doc to path. The
// placement is snapped onto the DEF's DBU lattice on a clone first, so
// the written coordinates re-parse to the same positions
// bit-identically and the caller's design (and any metrics already
// reported from it) stay untouched.
func WritePlacedDEF(path string, doc *Document, placed *netlist.Design) error {
	work := placed.Clone()
	if err := SnapToDBU(work, doc.DBU); err != nil {
		return err
	}
	if err := UpdateFromDesign(doc, work); err != nil {
		return err
	}
	return WriteDEFFile(path, doc)
}

// PhysFromKnobs builds the constraint overlay the command-line
// halo/channel/fence knobs describe, or nil when every knob is at its
// zero default (so constraint-free runs stay bit-identical to runs
// without the knobs). haloY and channelY default to their X
// counterparts; fence is "lx,ly,ux,uy" or empty.
func PhysFromKnobs(halo, haloY, channel, channelY float64, fence string) (*netlist.Constraints, error) {
	if haloY == 0 {
		haloY = halo
	}
	if channelY == 0 {
		channelY = channel
	}
	var fr *geom.Rect
	if fence != "" {
		parts := strings.Split(fence, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("-fence wants \"lx,ly,ux,uy\", got %q", fence)
		}
		var v [4]float64
		for i, p := range parts {
			f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("-fence coordinate %q: %w", p, err)
			}
			v[i] = f
		}
		fr = &geom.Rect{Lx: v[0], Ly: v[1], Ux: v[2], Uy: v[3]}
	}
	if halo == 0 && haloY == 0 && channel == 0 && channelY == 0 && fr == nil {
		return nil, nil
	}
	return &netlist.Constraints{
		HaloX: halo, HaloY: haloY,
		ChannelX: channel, ChannelY: channelY,
		Fence: fr,
	}, nil
}

// ApplyPhys overlays user-level constraint knobs onto d.Phys and
// validates the result against the design's placement region. It is
// the one merge policy the CLI flags and the daemon's job specs share:
//
//   - c, when non-nil, supplies the halo/channel/fence/snap knobs; the
//     design's own row geometry (from ToDesign) is kept unless c sets
//     its own RowHeight.
//   - snap derives the macro snap lattice from the DEF document's
//     TRACKS (site/row fallback) via SnapLattice, filling only the
//     axes c left unset, so an explicit -snap-x style override wins.
//
// With c == nil and snap == false the design is untouched — the
// constraints-off paths stay bit-identical.
func ApplyPhys(d *netlist.Design, c *netlist.Constraints, doc *Document, lef *LEF, snap bool) error {
	if c == nil && !snap {
		return nil
	}
	base := d.Phys
	var merged *netlist.Constraints
	if c != nil {
		merged = c.Clone()
		if merged.RowHeight == 0 && base != nil {
			merged.RowHeight = base.RowHeight
			merged.RowOriginY = base.RowOriginY
		}
	} else {
		merged = base.Clone()
		if merged == nil {
			merged = &netlist.Constraints{}
		}
	}
	if snap {
		if doc == nil {
			return fmt.Errorf("lefdef: snap needs a DEF document to derive the lattice from")
		}
		sx, ox, sy, oy, ok := SnapLattice(doc, lef)
		if !ok {
			return fmt.Errorf("lefdef: DEF %s has no tracks, sites, or rows to derive a snap lattice from", doc.Design)
		}
		if merged.SnapX == 0 {
			merged.SnapX, merged.SnapOriginX = sx, ox
		}
		if merged.SnapY == 0 {
			merged.SnapY, merged.SnapOriginY = sy, oy
		}
	}
	if err := merged.Validate(d.Region); err != nil {
		return err
	}
	d.Phys = merged
	return nil
}
