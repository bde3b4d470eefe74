// Conformance one-liners: every baseline-backed portfolio backend
// passes the shared invariant suite from inside this package's tests,
// so a baseline regression fails here even before the portfolio
// package's full matrix runs. External test package — the suite lives
// above baseline in the import graph.
package baseline_test

import (
	"testing"

	"macroplace/internal/portfolio"
	"macroplace/internal/portfolio/conformance"
)

func conformanceDesigns(t *testing.T) conformance.Config {
	// One design per package run keeps tier-1 time flat; the portfolio
	// package covers the full 3-design matrix.
	return conformance.Config{Designs: conformance.StandardDesigns(t)[:1]}
}

func TestConformanceSE(t *testing.T) {
	conformance.Run(t, portfolio.BackendSE, conformanceDesigns(t))
}

func TestConformanceCT(t *testing.T) {
	conformance.Run(t, portfolio.BackendCT, conformanceDesigns(t))
}

func TestConformanceMaskPlace(t *testing.T) {
	conformance.Run(t, portfolio.BackendMaskPlace, conformanceDesigns(t))
}

func TestConformanceRePlAce(t *testing.T) {
	conformance.Run(t, portfolio.BackendRePlAce, conformanceDesigns(t))
}

func TestConformanceMinCut(t *testing.T) {
	conformance.Run(t, portfolio.BackendMinCut, conformanceDesigns(t))
}
