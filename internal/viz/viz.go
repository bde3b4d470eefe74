// Package viz renders placements as SVG images: macros, cells, pads,
// the grid partition, and optionally a congestion heat overlay. The
// output needs no external tooling — any browser displays it — which
// makes placement pathologies (stacked macros, corner pileups,
// congestion hotspots) visible at a glance.
package viz

import (
	"fmt"
	"io"
	"sync"

	"macroplace/internal/atomicio"
	"macroplace/internal/metrics"
	"macroplace/internal/netlist"
)

// cmPool recycles congestion-overlay demand buffers across renders.
var cmPool = sync.Pool{New: func() any { return new(metrics.CongestionMap) }}

// widthPx is the image width in pixels; the height follows the
// region's aspect ratio.
const widthPx = 800

// Options controls the rendering.
type Options struct {
	// ShowCells draws standard cells (can be slow for 100k+ cells).
	ShowCells bool
	// ShowGrid overlays the ζ×ζ partition.
	ShowGrid bool
	// Zeta is the grid resolution for ShowGrid (default 16).
	Zeta int
	// Congestion overlays a RUDY heat map.
	Congestion bool
}

func (o Options) normalize() Options {
	if o.Zeta <= 0 {
		o.Zeta = 16
	}
	return o
}

// WriteSVG renders the design to w.
func WriteSVG(w io.Writer, d *netlist.Design, opts Options) error {
	opts = opts.normalize()
	reg := d.Region
	if reg.W() <= 0 || reg.H() <= 0 {
		return fmt.Errorf("viz: empty region")
	}
	scale := widthPx / reg.W()
	heightPx := int(reg.H() * scale)

	// SVG y grows downward; flip placement y.
	tx := func(x float64) float64 { return (x - reg.Lx) * scale }
	ty := func(y float64) float64 { return float64(heightPx) - (y-reg.Ly)*scale }

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		widthPx, heightPx, widthPx, heightPx)
	p(`<rect width="%d" height="%d" fill="#fafafa" stroke="#333"/>`+"\n", widthPx, heightPx)

	if opts.Congestion {
		// Congestion overlays are re-rendered per experiment frame;
		// reuse one demand buffer across renders.
		cm := metrics.RUDYInto(cmPool.Get().(*metrics.CongestionMap), d, opts.Zeta*2)
		defer cmPool.Put(cm)
		max := cm.Max()
		if max > 0 {
			bw := reg.W() / float64(cm.Bins) * scale
			bh := reg.H() / float64(cm.Bins) * scale
			for by := 0; by < cm.Bins; by++ {
				for bx := 0; bx < cm.Bins; bx++ {
					v := cm.Demand[by*cm.Bins+bx] / max
					if v < 0.05 {
						continue
					}
					p(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="rgb(255,%d,%d)" fill-opacity="0.5"/>`+"\n",
						float64(bx)*bw, float64(heightPx)-float64(by+1)*bh, bw, bh,
						int(255*(1-v)), int(255*(1-v)))
				}
			}
		}
	}

	if opts.ShowGrid {
		step := reg.W() / float64(opts.Zeta) * scale
		for i := 1; i < opts.Zeta; i++ {
			p(`<line x1="%.1f" y1="0" x2="%.1f" y2="%d" stroke="#ddd"/>`+"\n",
				float64(i)*step, float64(i)*step, heightPx)
		}
		stepY := reg.H() / float64(opts.Zeta) * scale
		for i := 1; i < opts.Zeta; i++ {
			p(`<line x1="0" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`+"\n",
				float64(i)*stepY, widthPx, float64(i)*stepY)
		}
	}

	if opts.ShowCells {
		for i := range d.Nodes {
			n := &d.Nodes[i]
			if n.Kind != netlist.Cell {
				continue
			}
			p(`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#9ecae1" fill-opacity="0.5"/>`+"\n",
				tx(n.X), ty(n.Y+n.H), n.W*scale, n.H*scale)
		}
	}

	for i := range d.Nodes {
		n := &d.Nodes[i]
		switch n.Kind {
		case netlist.Macro:
			fill := "#fd8d3c"
			if n.Fixed {
				fill = "#969696"
			}
			p(`<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="#333" stroke-width="0.5"/>`+"\n",
				tx(n.X), ty(n.Y+n.H), n.W*scale, n.H*scale, fill)
			if n.W*scale > 30 {
				p(`<text x="%.2f" y="%.2f" font-size="9" fill="#000">%s</text>`+"\n",
					tx(n.X)+2, ty(n.Y+n.H)+10, n.Name)
			}
		case netlist.Pad:
			p(`<rect x="%.2f" y="%.2f" width="3" height="3" fill="#31a354"/>`+"\n",
				tx(n.X), ty(n.Y)-3)
		}
	}
	p("</svg>\n")
	return err
}

// SaveSVG renders the design into a file (atomically replaced).
func SaveSVG(path string, d *netlist.Design, opts Options) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteSVG(w, d, opts)
	})
}
