package serve

import (
	"testing"

	"macroplace/internal/core"
	"macroplace/internal/gen"
	"macroplace/internal/legalize"
)

// TestFlowShipsCleanPlacement pins two flow jobs whose shipped
// placement once kept 5–6% of the macro area overlapped, built as the
// benchmark's flow jobs build theirs: the generated design and the
// options a daemon job with the same seed and budget derives.
func TestFlowShipsCleanPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("two full flows")
	}
	for _, c := range []struct {
		bench string
		scale float64
		seed  int64
	}{
		{"ibm06", 0.02, 8001},
		{"ibm03", 0.05, 3001},
	} {
		d, err := gen.IBM(c.bench, c.scale, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.New(d, Spec{Seed: c.seed, Episodes: 30, Gamma: 16, Workers: 1}.Options())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Place(); err != nil {
			t.Fatal(err)
		}
		if !legalize.Clean(p.Work) {
			t.Errorf("%s@%g seed %d: shipped placement not clean: movable overlap %v (eps %v)",
				c.bench, c.scale, c.seed, legalize.MovableOverlap(p.Work), legalize.ConvergenceEps(p.Work))
		}
	}
}
