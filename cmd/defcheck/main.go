// Command defcheck re-reads a LEF/DEF pair through the exact converter
// the placer uses and reports what any downstream consumer of that DEF
// observes: the design's HPWL (with its exact float bit pattern, so
// two reads of the same file can be compared bit-for-bit) and a
// constraint audit under the same halo/channel/fence/snap knobs
// mctsplace takes. It exits nonzero when constraints are active and
// the placement violates them — the smoke flow's independent verdict
// on a placed DEF.
//
// Usage:
//
//	defcheck -lef tech.lef -def placed.def
//	defcheck -lef tech.lef -def placed.def -halo 1 -channel 2 -snap -fence "2,2,62,98"
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"macroplace/internal/lefdef"
)

func main() {
	var (
		lefF      = flag.String("lef", "", "LEF library (required)")
		defF      = flag.String("def", "", "DEF design to audit (required)")
		haloF     = flag.Float64("halo", 0, "per-side macro halo, microns (both axes unless -halo-y is set)")
		haloYF    = flag.Float64("halo-y", 0, "per-side macro halo on Y (0 = same as -halo)")
		channelF  = flag.Float64("channel", 0, "minimum macro-to-macro channel (both axes unless -channel-y is set)")
		channelYF = flag.Float64("channel-y", 0, "minimum macro channel on Y (0 = same as -channel)")
		fenceF    = flag.String("fence", "", "fence region \"lx,ly,ux,uy\" movable macros must stay inside")
		snapF     = flag.Bool("snap", false, "audit macro origins against the DEF track/row lattice")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "defcheck:", err)
		os.Exit(1)
	}
	if *lefF == "" || *defF == "" {
		fail(fmt.Errorf("-lef and -def are both required"))
	}

	d, doc, lef, err := lefdef.ReadDesign(*lefF, *defF)
	if err != nil {
		fail(err)
	}

	phys, err := lefdef.PhysFromKnobs(*haloF, *haloYF, *channelF, *channelYF, *fenceF)
	if err != nil {
		fail(err)
	}
	if err := lefdef.ApplyPhys(d, phys, doc, lef, *snapF); err != nil {
		fail(err)
	}

	st := d.Stats()
	fmt.Printf("design %s: %d movable macros, %d pre-placed, %d pads, %d cells, %d nets\n",
		d.Name, st.MovableMacros, st.PreplacedMacro, st.Pads, st.Cells, st.Nets)
	h := d.HPWL()
	fmt.Printf("def hpwl:       %.6g (bits %016x)\n", h, math.Float64bits(h))

	if !d.Phys.Active() {
		return
	}
	rep := d.ConstraintViolations()
	fmt.Printf("constraints:    %s\n", rep)
	if !rep.Clean() {
		fmt.Fprintln(os.Stderr, "defcheck: constraint violations present")
		os.Exit(2)
	}
}
