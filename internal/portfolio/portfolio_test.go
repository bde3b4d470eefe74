package portfolio_test

import (
	"testing"

	"macroplace/internal/portfolio"
	"macroplace/internal/portfolio/conformance"
)

// productionBackends are the registrations this repo ships; the
// conformance matrix pins exactly these (tests may register extra
// backends, so the registry itself is a superset).
var productionBackends = []string{
	portfolio.BackendMCTS,
	portfolio.BackendSE,
	portfolio.BackendCT,
	portfolio.BackendMaskPlace,
	portfolio.BackendRePlAce,
	portfolio.BackendMinCut,
}

func TestRegistryHasProductionBackends(t *testing.T) {
	names := map[string]bool{}
	for _, n := range portfolio.Names() {
		names[n] = true
	}
	for _, want := range productionBackends {
		if !names[want] {
			t.Errorf("backend %q not registered (have %v)", want, portfolio.Names())
		}
		p, ok := portfolio.Lookup(want)
		if !ok || p.Name() != want {
			t.Errorf("Lookup(%q) = %v, %v", want, p, ok)
		}
	}
	if _, ok := portfolio.Lookup("no-such-backend"); ok {
		t.Error("Lookup of unknown backend succeeded")
	}
}

func TestRegisterRejectsDuplicatesAndBadNames(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		f()
	}
	dup, _ := portfolio.Lookup(portfolio.BackendMinCut)
	mustPanic("duplicate", func() { portfolio.Register(dup) })
	mustPanic("bad name", func() { portfolio.Register(badNamePlacer{}) })
}

type badNamePlacer struct{ portfolio.Placer }

func (badNamePlacer) Name() string { return "Not A Valid Name!" }

// TestConformanceMatrix is the headline suite: every backend passes
// the full invariant set — legality, metric truthfulness, Converged
// consistency, seed determinism, anytime cancellation, and fault
// containment — over the three standard designs.
func TestConformanceMatrix(t *testing.T) {
	designs := conformance.StandardDesigns(t)
	if testing.Short() {
		designs = designs[:1]
	}
	for _, name := range productionBackends {
		name := name
		t.Run(name, func(t *testing.T) {
			conformance.Run(t, name, conformance.Config{Designs: designs})
		})
	}
}
