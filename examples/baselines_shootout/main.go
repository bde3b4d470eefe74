// Baselines shootout: place the same benchmark with every method the
// paper compares against — SE, DREAMPlace-like, RePlAce-like, CT-like,
// MaskPlace-like — plus classic FM min-cut and the paper's RL+MCTS
// flow, and print a Table III-style comparison row.
//
// Run with:
//
//	go run ./examples/baselines_shootout
package main

import (
	"fmt"
	"log"
	"time"

	"macroplace"
)

func main() {
	design, err := macroplace.GenerateIBM("ibm06", 0.02, 3)
	if err != nil {
		log.Fatal(err)
	}
	stats := design.Stats()
	fmt.Printf("benchmark %s: %d macros, %d cells, %d nets\n\n",
		design.Name, stats.MovableMacros, stats.Cells, stats.Nets)

	type row struct {
		name string
		hpwl float64
		dur  time.Duration
	}
	var rows []row
	timeIt := func(name string, fn func() float64) {
		start := time.Now()
		hpwl := fn()
		rows = append(rows, row{name, hpwl, time.Since(start)})
		fmt.Printf("  %-22s done in %s\n", name, time.Since(start).Round(time.Millisecond))
	}

	timeIt("min-cut (FM)", func() float64 {
		return macroplace.BaselineMinCut(design, 1).HPWL
	})
	timeIt("SE [26]", func() float64 {
		return macroplace.BaselineSE(design, 1).HPWL
	})
	timeIt("DREAMPlace-like [25]", func() float64 {
		return macroplace.BaselineDreamPlace(design).HPWL
	})
	timeIt("RePlAce-like [10]", func() float64 {
		return macroplace.BaselineRePlAce(design).HPWL
	})
	timeIt("CT-like [27]", func() float64 {
		return macroplace.BaselineCT(design, 2).HPWL
	})
	timeIt("MaskPlace-like [19]", func() float64 {
		return macroplace.BaselineMaskPlace(design, 3).HPWL
	})
	timeIt("Ours (RL+MCTS)", func() float64 {
		opts := macroplace.DefaultOptions()
		opts.Zeta = 8
		opts.RL.Episodes = 60
		opts.MCTS.Gamma = 16
		opts.Agent = macroplace.AgentConfig{Zeta: 8, Channels: 8, ResBlocks: 1, Seed: 5}
		res, err := macroplace.Place(design, opts)
		if err != nil {
			log.Fatal(err)
		}
		return res.Final.HPWL
	})

	ours := rows[len(rows)-1].hpwl
	fmt.Printf("\n%-22s %12s %10s %8s\n", "method", "HPWL", "vs ours", "time")
	for _, r := range rows {
		fmt.Printf("%-22s %12.0f %9.2fx %8s\n", r.name, r.hpwl, r.hpwl/ours, r.dur.Round(time.Millisecond))
	}
}
