package grid

import (
	"testing"
)

func intoTestEnv() *Env {
	g := unitGrid(4)
	shape := Shape{GW: 2, GH: 1, Util: []float64{0.6, 0.3}, W: 2, H: 1, Area: 0.9}
	small := Shape{GW: 1, GH: 1, Util: []float64{0.5}, W: 1, H: 1, Area: 0.5}
	return NewEnv(g, []Shape{shape, small, small}, []float64{
		0, 0, 0.5, 0.25, 0, 0, 0, 0, 0.1, 0, 0, 0, 0, 0, 0, 0.9,
	})
}

func TestIntoAccessorsMatchCopyingForms(t *testing.T) {
	env := intoTestEnv()
	if err := env.Step(0); err != nil {
		t.Fatal(err)
	}

	sa := env.AvailInto(nil)
	saInto := env.AvailInto(make([]float64, 3)) // too small: must grow
	if len(saInto) != len(sa) {
		t.Fatalf("AvailInto len %d, want %d", len(saInto), len(sa))
	}
	for i := range sa {
		if sa[i] != saInto[i] {
			t.Fatalf("AvailInto[%d] = %v, fresh AvailInto = %v", i, saInto[i], sa[i])
		}
	}
	// Reuse with stale garbage: zero entries must be rewritten too.
	stale := make([]float64, len(sa))
	for i := range stale {
		stale[i] = 42
	}
	saInto2 := env.AvailInto(stale)
	for i := range sa {
		if sa[i] != saInto2[i] {
			t.Fatalf("stale AvailInto[%d] = %v, fresh AvailInto = %v", i, saInto2[i], sa[i])
		}
	}
}

func TestIntoAccessorsReuseCapacity(t *testing.T) {
	env := intoTestEnv()
	n := env.G.NumCells()
	buf := make([]float64, n)
	if got := env.AvailInto(buf); &got[0] != &buf[0] {
		t.Error("AvailInto reallocated despite sufficient capacity")
	}
	if got := env.SPInto(buf); &got[0] != &buf[0] {
		t.Error("SPInto reallocated despite sufficient capacity")
	}
}

func TestCloneIntoMatchesCloneAndIsIndependent(t *testing.T) {
	env := intoTestEnv()
	if err := env.Step(1); err != nil {
		t.Fatal(err)
	}

	var dst Env
	env.CloneInto(&dst)
	requireEnvEqual(t, "CloneInto", &dst, env)

	// Stepping the copy must not leak into the original.
	spBefore := env.SPInto(nil)
	if err := dst.Step(5); err != nil {
		t.Fatal(err)
	}
	if dst.T() != env.T()+1 {
		t.Fatal("copy did not advance")
	}
	for i, v := range env.SPInto(nil) {
		if v != spBefore[i] {
			t.Fatal("CloneInto copy aliases original sp")
		}
	}
	if env.Anchors()[1] != -1 {
		t.Fatal("CloneInto copy aliases original anchors")
	}

	// Reusing dst for a different source must fully overwrite it.
	env2 := intoTestEnv()
	env2.CloneInto(&dst)
	requireEnvEqual(t, "CloneInto reuse", &dst, env2)
}

func requireEnvEqual(t *testing.T, what string, got, want *Env) {
	t.Helper()
	if got.T() != want.T() {
		t.Fatalf("%s: t = %d, want %d", what, got.T(), want.T())
	}
	gs, ws := got.SPInto(nil), want.SPInto(nil)
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("%s: sp[%d] = %v, want %v", what, i, gs[i], ws[i])
		}
	}
	ga, wa := got.Anchors(), want.Anchors()
	if len(ga) != len(wa) {
		t.Fatalf("%s: %d anchors, want %d", what, len(ga), len(wa))
	}
	for i := range wa {
		if ga[i] != wa[i] {
			t.Fatalf("%s: anchors[%d] = %d, want %d", what, i, ga[i], wa[i])
		}
	}
}

func TestPoolRecyclesWithoutAliasing(t *testing.T) {
	env := intoTestEnv()
	var pool Pool

	c1 := pool.Get(env)
	requireEnvEqual(t, "pool.Get", c1, env)
	if err := c1.Step(0); err != nil {
		t.Fatal(err)
	}
	pool.Put(c1)

	// A recycled clone must be reset to the new source's state and must
	// not share slices with the source.
	c2 := pool.Get(env)
	requireEnvEqual(t, "recycled pool.Get", c2, env)
	if err := c2.Step(2); err != nil {
		t.Fatal(err)
	}
	if env.T() != 0 || env.Anchors()[0] != -1 {
		t.Fatal("pooled clone aliases the source env")
	}
}
