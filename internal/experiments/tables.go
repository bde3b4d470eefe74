package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"macroplace/internal/baseline"
	"macroplace/internal/core"
	"macroplace/internal/netlist"
)

// TableRow is one benchmark's result across methods: method name →
// HPWL (plus design statistics for the table header columns).
type TableRow struct {
	Benchmark string
	Stats     netlist.Stats
	HPWL      map[string]float64
	// MCTSTime is the wall-clock duration of the MCTS stage of "ours"
	// (feeds Table IV).
	MCTSTime time.Duration
}

// Table is a completed comparison table.
type Table struct {
	Title   string
	Methods []string // column order
	Rows    []TableRow
}

// Normalized returns, per method, the geometric-mean HPWL ratio versus
// the reference method (the paper normalises against "Ours").
func (t *Table) Normalized(reference string) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range t.Methods {
		var ratios []float64
		for _, row := range t.Rows {
			ref, okRef := row.HPWL[reference]
			v, ok := row.HPWL[m]
			if ok && okRef && ref > 0 && v > 0 {
				ratios = append(ratios, v/ref)
			}
		}
		out[m] = geomean(ratios)
	}
	return out
}

// runOurs executes the full paper flow and returns the final HPWL and
// the MCTS stage duration. A cancelled context degrades the flow
// (shorter training, best-so-far search) but still yields a complete
// placement — see core.PlaceContext.
func runOurs(ctx context.Context, d *netlist.Design, opts core.Options) (float64, time.Duration, error) {
	p, err := core.New(d, opts)
	if err != nil {
		return 0, 0, err
	}
	res, err := p.PlaceContext(ctx)
	if err != nil {
		return 0, 0, err
	}
	return res.Final.HPWL, p.Times().MCTS, nil
}

// TableII reproduces the industrial-benchmark comparison: SE-based
// macro placer [26] vs DREAMPlace-like mixed-size placement [25] vs
// ours, on the Cir suite (hierarchical designs with pre-placed
// macros).
func TableII(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		Title:   "Table II — industrial benchmarks (HPWL)",
		Methods: []string{"SE", "DREAMPlace", "Ours"},
	}
	if cfg.ExtendedBaselines {
		t.Methods = []string{"MinCut", "SE", "DREAMPlace", "Ours"}
	}
	rows := make([]*TableRow, len(cfg.Cir))
	errs := cfg.runSweep(cfg.Cir, func(bi int, bench string, logf logFunc) error {
		seed := int64(60 + bi*7)
		d, err := cfg.cirDesign(bench, seed)
		if err != nil {
			return err
		}
		row := TableRow{Benchmark: bench, Stats: d.Stats(), HPWL: map[string]float64{}}

		if cfg.ExtendedBaselines {
			mc := baseline.MinCut(d.Clone(), baseline.MinCutConfig{Seed: cfg.Seed + seed + 4})
			row.HPWL["MinCut"] = mc.HPWL
			logf("tableII %s MinCut=%.4g", bench, mc.HPWL)
		}

		se := baseline.SE(d.Clone(), baseline.SEConfig{Seed: cfg.Seed + seed})
		row.HPWL["SE"] = se.HPWL
		logf("tableII %s SE=%.4g", bench, se.HPWL)

		dp := baseline.DreamPlaceLike(d.Clone())
		row.HPWL["DREAMPlace"] = dp.HPWL
		logf("tableII %s DREAMPlace=%.4g", bench, dp.HPWL)

		ours, mctsTime, err := runOurs(cfg.ctx(), d, cfg.coreOptions(seed+1))
		if err != nil {
			return err
		}
		row.HPWL["Ours"] = ours
		row.MCTSTime = mctsTime
		logf("tableII %s Ours=%.4g", bench, ours)

		rows[bi] = &row
		return nil
	})
	done, err, partial := collectRows(rows, errs)
	t.Rows = done
	if err != nil && partial {
		return t, err
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// TableIII reproduces the ICCAD04 comparison: CT [27] vs MaskPlace
// [19] vs RePlAce [10] vs ours.
func TableIII(cfg Config) (*Table, error) {
	cfg = cfg.normalize()
	t := &Table{
		Title:   "Table III — ICCAD04 benchmarks (HPWL)",
		Methods: []string{"CT", "MaskPlace", "RePlAce", "Ours"},
	}
	rows := make([]*TableRow, len(cfg.IBM))
	errs := cfg.runSweep(cfg.IBM, func(bi int, bench string, logf logFunc) error {
		seed := int64(80 + bi*7)
		d, err := cfg.ibmDesign(bench, seed)
		if err != nil {
			return err
		}
		row := TableRow{Benchmark: bench, Stats: d.Stats(), HPWL: map[string]float64{}}

		ct := baseline.CT(d.Clone(), baseline.CTConfig{
			Zeta:     cfg.Zeta,
			Episodes: cfg.Episodes / 2,
			Seed:     cfg.Seed + seed,
		})
		row.HPWL["CT"] = ct.HPWL
		logf("tableIII %s CT=%.4g", bench, ct.HPWL)

		mp := baseline.MaskPlace(d.Clone(), baseline.MaskPlaceConfig{
			Zeta: cfg.Zeta,
			Seed: cfg.Seed + seed + 1,
		})
		row.HPWL["MaskPlace"] = mp.HPWL
		logf("tableIII %s MaskPlace=%.4g", bench, mp.HPWL)

		rp := baseline.RePlAceLike(d.Clone(), baseline.RePlAceConfig{})
		row.HPWL["RePlAce"] = rp.HPWL
		logf("tableIII %s RePlAce=%.4g", bench, rp.HPWL)

		ours, mctsTime, err := runOurs(cfg.ctx(), d, cfg.coreOptions(seed+2))
		if err != nil {
			return err
		}
		row.HPWL["Ours"] = ours
		row.MCTSTime = mctsTime
		logf("tableIII %s Ours=%.4g", bench, ours)

		rows[bi] = &row
		return nil
	})
	done, err, partial := collectRows(rows, errs)
	t.Rows = done
	if err != nil && partial {
		return t, err
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// TableIVRow is one runtime measurement.
type TableIVRow struct {
	Benchmark string
	MCTSTime  time.Duration
}

// TableIV measures the MCTS stage runtime per ICCAD04 benchmark
// (paper's Table IV). It reuses the flow of Table III but reports the
// search wall-clock only.
func TableIV(cfg Config) ([]TableIVRow, error) {
	cfg = cfg.normalize()
	slots := make([]*TableIVRow, len(cfg.IBM))
	errs := cfg.runSweep(cfg.IBM, func(bi int, bench string, logf logFunc) error {
		seed := int64(120 + bi*7)
		d, err := cfg.ibmDesign(bench, seed)
		if err != nil {
			return err
		}
		_, mctsTime, err := runOurs(cfg.ctx(), d, cfg.coreOptions(seed+1))
		if err != nil {
			return err
		}
		slots[bi] = &TableIVRow{Benchmark: bench, MCTSTime: mctsTime}
		logf("tableIV %s mcts=%s", bench, mctsTime)
		return nil
	})
	var rows []TableIVRow
	for i, err := range errs {
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return rows, err
			}
			return nil, err
		}
		if slots[i] != nil {
			rows = append(rows, *slots[i])
		}
	}
	return rows, nil
}

// WriteTable renders a comparison table with statistics columns and
// the normalised footer row the paper uses.
func WriteTable(w io.Writer, t *Table) {
	fmt.Fprintln(w, t.Title)
	fmt.Fprintf(w, "%-8s %8s %8s %8s %9s %9s", "bench", "movM", "preM", "pads", "cells", "nets")
	for _, m := range t.Methods {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		fmt.Fprintf(w, "%-8s %8d %8d %8d %9d %9d",
			row.Benchmark, row.Stats.MovableMacros, row.Stats.PreplacedMacro,
			row.Stats.Pads, row.Stats.Cells, row.Stats.Nets)
		for _, m := range t.Methods {
			fmt.Fprintf(w, " %12.4g", row.HPWL[m])
		}
		fmt.Fprintln(w)
	}
	norm := t.Normalized("Ours")
	fmt.Fprintf(w, "%-8s %8s %8s %8s %9s %9s", "Nor.", "-", "-", "-", "-", "-")
	for _, m := range t.Methods {
		fmt.Fprintf(w, " %12.3f", norm[m])
	}
	fmt.Fprintln(w)
}

// WriteTableIV renders the runtime table.
func WriteTableIV(w io.Writer, rows []TableIVRow) {
	fmt.Fprintln(w, "Table IV — MCTS runtime per benchmark")
	fmt.Fprintf(w, "%-8s %14s\n", "bench", "runtime")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %14s\n", r.Benchmark, r.MCTSTime.Round(time.Millisecond))
	}
}
