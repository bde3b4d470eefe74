package macroplace

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"macroplace/internal/core"
	"macroplace/internal/eco"
	"macroplace/internal/geom"
	"macroplace/internal/gplace"
	"macroplace/internal/portfolio"
	"macroplace/internal/viz"
)

// The goldens in this file pin the bits of every output the flow and
// its satellites produce: the generated design, the clustering, the
// final placement and its HPWL values, every portfolio backend, a cold
// ECO run and the SVG rendering. Each value is an FNV-64a hash of
// float64 bits and integers, in a fixed order. A refactor that keeps
// behaviour keeps every hash; one that changes a single bit of any
// position fails here.

// bitsHash accumulates float64 bits and integers in the order added.
type bitsHash struct{ h hash.Hash64 }

func newBitsHash() bitsHash { return bitsHash{fnv.New64a()} }

func (b bitsHash) floats(vs ...float64) bitsHash {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		b.h.Write(buf[:])
	}
	return b
}

func (b bitsHash) ints(vs ...int) bitsHash {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		b.h.Write(buf[:])
	}
	return b
}

// placement adds every node's lower-left corner, in node order.
func (b bitsHash) placement(d *Design) bitsHash {
	for i := range d.Nodes {
		b.floats(d.Nodes[i].X, d.Nodes[i].Y)
	}
	return b
}

func (b bitsHash) sum() uint64 { return b.h.Sum64() }

// designHash hashes d's structure (netlist.Design.ContentHash) and
// every node's position.
func designHash(d *Design) uint64 {
	return newBitsHash().ints(int(d.ContentHash())).placement(d).sum()
}

// withProcs runs f at GOMAXPROCS procs.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// goldenOptions is the quick flow the goldens run: a small network,
// 20 episodes, γ = 8 on one worker, cells legalized onto rows.
func goldenOptions() Options {
	return Options{
		Zeta:          8,
		Agent:         AgentConfig{Zeta: 8, Channels: 8, ResBlocks: 1, Seed: 2},
		RL:            RLConfig{Episodes: 20, UpdateEvery: 10, CalibrationEpisodes: 8, Seed: 3},
		MCTS:          MCTSConfig{Gamma: 8, Seed: 4, Workers: 1},
		LegalizeCells: true,
		Seed:          1,
	}
}

// flowGolden is what TestFlowGolden records for one job.
type flowGolden struct {
	design    uint64 // the generated design
	groupOf   uint64 // Clustering.GroupOf
	placement uint64 // the final placement
	result    uint64 // Final and RLFinal: HPWL, LegalHPWL, overlap, anchors
}

func runFlowGolden(t *testing.T, d *Design, opts Options) flowGolden {
	t.Helper()
	got := flowGolden{design: designHash(d)}
	p, err := NewPlacer(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Place()
	if err != nil {
		t.Fatal(err)
	}
	got.groupOf = newBitsHash().ints(p.Clus.GroupOf...).sum()
	got.placement = newBitsHash().placement(p.Work).sum()
	r := newBitsHash()
	for _, f := range []core.FinalResult{res.Final, res.RLFinal} {
		r.floats(f.HPWL, f.LegalHPWL, f.MacroOverlap).ints(f.CellsFailed).ints(f.Anchors...)
	}
	got.result = r.sum()
	return got
}

// TestFlowGolden pins the quick flow on ICCAD04-like designs and an
// industrial-like one (pads, a pre-placed macro, 12,850 pins) with
// cells legalized, and the per-macro grouping of the clustering
// ablation, at GOMAXPROCS 1 and 2: RL rollouts and the analytical
// solves of designs with 2,000 pins or more run concurrently, bit for
// bit.
func TestFlowGolden(t *testing.T) {
	perMacro := goldenOptions()
	perMacro.GroupArea = 1e-9
	cases := []struct {
		name string
		make func() (*Design, error)
		opts Options
		want flowGolden
	}{
		{"ibm01@0.01", func() (*Design, error) { return GenerateIBM("ibm01", 0.01, 1) }, goldenOptions(),
			flowGolden{0xb1769f730a48f9a1, 0xb9ab47c67557345a, 0x693b864fd59648e8, 0xefb02c130086a4ea}},
		{"cir1@0.02", func() (*Design, error) { return GenerateCir("cir1", 0.02, 2) }, goldenOptions(),
			flowGolden{0x7cb31b94e38bea57, 0xed362108e86d6d72, 0xf5167f6767a609e9, 0xf5ad5c135bb7ee02}},
		{"ibm06@0.02", func() (*Design, error) { return GenerateIBM("ibm06", 0.02, 7) }, goldenOptions(),
			flowGolden{0xe354561f7da68e72, 0x0ae8c79470070fce, 0xda1879c10dbaf3de, 0x81e5cf4a9a32f00e}},
		{"ibm06@0.02 per-macro groups", func() (*Design, error) { return GenerateIBM("ibm06", 0.02, 7) }, perMacro,
			flowGolden{0xe354561f7da68e72, 0x35952a19e3264ba1, 0x7fa616e371a09dd2, 0x62a5152dab4094c4}},
	}
	for _, procs := range []int{1, 2} {
		for _, c := range cases {
			d, err := c.make()
			if err != nil {
				t.Fatal(err)
			}
			var got flowGolden
			withProcs(procs, func() { got = runFlowGolden(t, d, c.opts) })
			if got != c.want {
				t.Errorf("%s at GOMAXPROCS=%d: got %#x, want %#x", c.name, procs, got, c.want)
			}
		}
	}
}

// TestPortfolioGolden pins every registered backend on one design at a
// small effort, on one worker.
func TestPortfolioGolden(t *testing.T) {
	want := map[string]uint64{
		"ct":        0xcdae8a5c2b8b220d,
		"maskplace": 0xfb47dcdc11c25b22,
		"mcts":      0x5acc36bce9aacd20,
		"mincut":    0x5b4594b488d53838,
		"replace":   0x7c1011c716d43298,
		"se":        0xd228bc535d8d628b,
	}
	d, err := GenerateIBM("ibm06", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := portfolio.Options{Seed: 1, Zeta: 8, Effort: 0.05, Workers: 1, Channels: 8, ResBlocks: 1}
	for _, name := range portfolio.Names() {
		b, _ := portfolio.Lookup(name)
		res, err := b.PlaceContext(context.Background(), d, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := newBitsHash().floats(res.HPWL, res.MacroOverlap).placement(res.Placed).sum()
		if got != want[name] {
			t.Errorf("%s: hash %#x, want %#x", name, got, want[name])
		}
	}
}

// TestECOGolden pins one cold ECO run: a full flow's placement is the
// prior, and the delta adds a net and reweights one, at integer weights.
func TestECOGolden(t *testing.T) {
	const want = 0x1d78588da436adc4
	base, err := GenerateIBM("ibm06", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := goldenOptions()
	opts.LegalizeCells = false
	p, err := NewPlacer(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Place(); err != nil {
		t.Fatal(err)
	}
	prior := map[string]geom.Point{}
	for _, mi := range p.Work.MovableMacroIndices() {
		prior[p.Work.Nodes[mi].Name] = p.Work.Nodes[mi].Center()
	}
	macros := base.MovableMacroIndices()
	delta := &eco.Delta{
		AddNets: []eco.DeltaNet{{Name: "eco_new0", Weight: 2, Pins: []eco.DeltaPin{
			{Node: base.Nodes[macros[0]].Name}, {Node: base.Nodes[macros[1]].Name}, {Node: base.Nodes[base.CellIndices()[0]].Name},
		}}},
		Reweight: map[string]float64{base.Nets[0].Name: 3},
	}
	res, err := eco.Run(context.Background(), base, prior, delta, eco.Config{Core: opts, Moves: 32})
	if err != nil {
		t.Fatal(err)
	}
	got := newBitsHash().floats(res.HPWL, res.MacroOverlap, res.PriorCost, res.BestCost).
		ints(res.MovesProbed, res.MovesCommitted).ints(res.Anchors...).placement(res.Placed).sum()
	if got != want {
		t.Errorf("ECO hash %#x, want %#x", got, uint64(want))
	}
}

// TestSVGGolden pins the SVG bytes of a small placed design, with the
// default options and with every overlay on.
func TestSVGGolden(t *testing.T) {
	d, err := GenerateIBM("ibm01", 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	gplace.InitialPlacement(d)
	cases := []struct {
		name string
		opts viz.Options
		want uint64
	}{
		{"default", viz.Options{}, 0x8ef0f78cfd87e257},
		{"cells, grid, congestion", viz.Options{ShowCells: true, ShowGrid: true, Congestion: true}, 0x949bf648d3a6cd8e},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := viz.WriteSVG(&buf, d, c.opts); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: SVG hash %#x, want %#x", c.name, got, c.want)
		}
	}
}
