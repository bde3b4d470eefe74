package eco

import (
	"context"
	"testing"

	"macroplace/internal/agent"
	"macroplace/internal/core"
	"macroplace/internal/geom"
	"macroplace/internal/grid"
	"macroplace/internal/netlist"
)

// fencedDesign is testDesign(70) with small halos and a fence over
// the left part of the die.
func fencedDesign(t *testing.T) *netlist.Design {
	t.Helper()
	d := testDesign(70)
	r := d.Region
	fence := geom.Rect{
		Lx: r.Lx + 0.05*r.W(), Ly: r.Ly + 0.05*r.H(),
		Ux: r.Lx + 0.60*r.W(), Uy: r.Uy - 0.05*r.H(),
	}
	d.Phys = &netlist.Constraints{
		HaloX: 0.002 * r.W(), HaloY: 0.002 * r.H(),
		Fence: &fence,
	}
	if err := d.Phys.Validate(r); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRunRespectsFence is the regression test for the constraint-blind
// move menu: the prior parks every movable macro against the right
// region edge, outside a fence covering the left part of the die, so
// every unconstrained local move (the menu enumerateMoves used to
// build from grid bounds alone) keeps the macros in violating
// territory. The ECO must still deliver a constraint-clean placement:
// prior anchors snap to their nearest in-fence cell and the move menu
// only offers fence-respecting targets.
func TestRunRespectsFence(t *testing.T) {
	base := fencedDesign(t)
	r := base.Region

	// Prior: macros stacked near the right edge, far outside the fence.
	prior := priorFrom(base)
	i := 0
	for name := range prior {
		prior[name] = geom.Point{
			X: r.Ux - 0.04*r.W(),
			Y: r.Ly + (0.1+0.13*float64(i))*r.H(),
		}
		i++
	}

	// Sanity: the prior itself violates the fence — without the
	// constraint-aware menu and anchor re-validation there is nothing
	// forcing the search back inside.
	check := base.Clone()
	for _, mi := range check.MovableMacroIndices() {
		n := &check.Nodes[mi]
		p := prior[n.Name]
		n.X, n.Y = p.X-n.W/2, p.Y-n.H/2
	}
	if rep := check.ConstraintViolations(); rep.FenceViolations == 0 {
		t.Fatalf("test prior does not violate the fence (report %s) — the regression would pass vacuously", rep)
	}

	res, err := Run(context.Background(), base, prior, nil, Config{Core: testOptions(), Moves: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == nil {
		t.Fatal("result has no placed design")
	}
	if rep := res.Placed.ConstraintViolations(); !rep.Clean() {
		t.Errorf("ECO placement violates constraints: %s", rep)
	}
}

// recordingInferencer answers every state with a uniform policy and
// keeps a copy of each state it is asked about, by t.
type recordingInferencer map[int]agent.BatchInput

func (r recordingInferencer) EvaluateBatchInto(in []agent.BatchInput, out []agent.Output) {
	for i, st := range in {
		r[st.T] = agent.BatchInput{SP: append([]float64(nil), st.SP...), SA: append([]float64(nil), st.SA...), T: st.T}
		probs := make([]float32, len(st.SA))
		for k := range probs {
			probs[k] = 1 / float32(len(probs))
		}
		out[i] = agent.Output{Probs: probs}
	}
}

// TestMovePriorsSeeTheFence: the availability map ECO gives the policy
// for each group is Eq. (4) as the environment computes it, so it is 0
// at every anchor Env.FitsAt refuses, as in every state the network
// trained on. It used to ignore the fence. With one macro a group
// most footprints cover no whole grid, so Eq. (4) is positive at some
// anchors and the fence has availability to take away.
func TestMovePriorsSeeTheFence(t *testing.T) {
	opts := testOptions()
	opts.GroupArea = 1e-9
	p, err := core.New(fencedDesign(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Preprocess(); err != nil {
		t.Fatal(err)
	}
	cur := anchorsFromPrior(p, priorFrom(p.Work))
	rec := recordingInferencer{}
	movePriors(p, agent.NewCachedEvaluatorFor(rec, 0), cur, enumerateMoves(p, cur, nil), nil)
	if len(rec) != len(cur) {
		t.Fatalf("policy asked about %d groups, want %d", len(rec), len(cur))
	}
	unfenced := grid.NewEnv(p.Grid, p.Shapes, p.BaseUtil())
	taken := 0
	for gi := range cur {
		st := rec[gi]
		open := unfenced.GroupAvailInto(nil, gi, st.SP)
		for idx, a := range st.SA {
			if p.Env.FitsAt(gi, idx) {
				continue
			}
			if open[idx] > 0 {
				taken++
			}
			if a != 0 {
				t.Errorf("group %d: availability %v at anchor %d, which FitsAt refuses", gi, a, idx)
			}
		}
	}
	if taken == 0 {
		t.Fatal("no refused anchor is available without the fence; the test would pass vacuously")
	}
}
