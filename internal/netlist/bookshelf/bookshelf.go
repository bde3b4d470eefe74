// Package bookshelf reads and writes the UCLA Bookshelf placement
// format used by the ICCAD04 mixed-size benchmarks (ibm01–ibm18) that
// the paper evaluates on: .nodes, .nets, .pl, .scl and the .aux index.
//
// The parser is tolerant of the formatting differences found in the
// wild (variable whitespace, optional colons, comment lines beginning
// with '#', and the "UCLA <kind> 1.0" headers). The writer emits a
// canonical form that the parser round-trips exactly.
package bookshelf

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"macroplace/internal/atomicio"
	"macroplace/internal/geom"
	"macroplace/internal/netlist"
)

// MacroHeightFactor decides which movable nodes are classified as
// macros when loading a Bookshelf design: any node taller than this
// multiple of the most common (row) height is a macro. The ICCAD04
// mixed-size convention is that standard cells have unit row height.
const MacroHeightFactor = 2.0

// AuxFiles lists the file names an .aux index references, relative to
// the .aux file's directory.
func AuxFiles(aux []byte) []string {
	var files []string
	for _, f := range strings.Fields(string(aux)) {
		if strings.Contains(f, ":") || strings.EqualFold(f, "RowBasedPlacement") {
			continue
		}
		files = append(files, f)
	}
	return files
}

// ReadAux loads a complete design given the path of its .aux file.
func ReadAux(path string) (*netlist.Design, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bookshelf: %w", err)
	}
	files := AuxFiles(data)
	dir := filepath.Dir(path)
	find := func(ext string) string {
		for _, f := range files {
			if strings.HasSuffix(f, ext) {
				return filepath.Join(dir, f)
			}
		}
		return ""
	}
	nodesPath, netsPath, plPath, sclPath := find(".nodes"), find(".nets"), find(".pl"), find(".scl")
	if nodesPath == "" || netsPath == "" {
		return nil, fmt.Errorf("bookshelf: aux %q lists no .nodes/.nets files", path)
	}
	d, err := ReadFiles(strings.TrimSuffix(filepath.Base(path), ".aux"), nodesPath, netsPath, plPath, sclPath)
	if err != nil {
		return nil, err
	}
	if wtsPath := find(".wts"); wtsPath != "" {
		wf, err := os.Open(wtsPath)
		if err != nil {
			return nil, fmt.Errorf("bookshelf: %w", err)
		}
		defer wf.Close()
		if err := readWts(d, wf); err != nil {
			return nil, fmt.Errorf("bookshelf: %s: %w", wtsPath, err)
		}
	}
	return d, nil
}

// readWts applies net weights from a .wts file ("netname weight" per
// line). Weights apply to every net carrying the name.
func readWts(d *netlist.Design, r io.Reader) error {
	byName := make(map[string][]int, len(d.Nets))
	for i := range d.Nets {
		byName[d.Nets[i].Name] = append(byName[d.Nets[i].Name], i)
	}
	sc := newScanner(r)
	for {
		ln, ok := sc.next()
		if !ok {
			return nil
		}
		fields := strings.Fields(ln)
		if len(fields) < 2 {
			return fmt.Errorf("line %d: malformed weight %q", sc.line, ln)
		}
		w, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || !finiteNonNegative(w) {
			return fmt.Errorf("line %d: bad weight %q", sc.line, fields[1])
		}
		nets, ok := byName[fields[0]]
		if !ok {
			return fmt.Errorf("line %d: unknown net %q", sc.line, fields[0])
		}
		for _, ni := range nets {
			d.Nets[ni].Weight = w
		}
	}
}

// ReadFiles loads a design from explicit file paths. plPath and
// sclPath may be empty; positions then default to zero and the region
// to the bounding box of node sizes.
func ReadFiles(name, nodesPath, netsPath, plPath, sclPath string) (*netlist.Design, error) {
	d := &netlist.Design{Name: name}

	nf, err := os.Open(nodesPath)
	if err != nil {
		return nil, fmt.Errorf("bookshelf: %w", err)
	}
	defer nf.Close()
	if err := readNodes(d, nf); err != nil {
		return nil, fmt.Errorf("bookshelf: %s: %w", nodesPath, err)
	}

	ef, err := os.Open(netsPath)
	if err != nil {
		return nil, fmt.Errorf("bookshelf: %w", err)
	}
	defer ef.Close()
	if err := readNets(d, ef); err != nil {
		return nil, fmt.Errorf("bookshelf: %s: %w", netsPath, err)
	}

	if plPath != "" {
		pf, err := os.Open(plPath)
		if err != nil {
			return nil, fmt.Errorf("bookshelf: %w", err)
		}
		defer pf.Close()
		if err := readPl(d, pf); err != nil {
			return nil, fmt.Errorf("bookshelf: %s: %w", plPath, err)
		}
	}

	if sclPath != "" {
		sf, err := os.Open(sclPath)
		if err != nil {
			return nil, fmt.Errorf("bookshelf: %w", err)
		}
		defer sf.Close()
		region, err := readScl(sf)
		if err != nil {
			return nil, fmt.Errorf("bookshelf: %s: %w", sclPath, err)
		}
		d.Region = region
	}
	if d.Region.Empty() {
		d.Region = defaultRegion(d)
	}
	classifyMacros(d)
	return d, nil
}

// scanner wraps bufio.Scanner with comment/blank skipping.
type scanner struct {
	s    *bufio.Scanner
	line int
}

func newScanner(r io.Reader) *scanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	return &scanner{s: s}
}

// next returns the next meaningful line, trimmed, or "" at EOF.
func (sc *scanner) next() (string, bool) {
	for sc.s.Scan() {
		sc.line++
		ln := strings.TrimSpace(sc.s.Text())
		if ln == "" || strings.HasPrefix(ln, "#") || strings.HasPrefix(ln, "UCLA") {
			continue
		}
		return ln, true
	}
	return "", false
}

func parseKV(ln, key string) (string, bool) {
	if !strings.HasPrefix(ln, key) {
		return "", false
	}
	rest := strings.TrimSpace(ln[len(key):])
	rest = strings.TrimPrefix(rest, ":")
	return strings.TrimSpace(rest), true
}

func readNodes(d *netlist.Design, r io.Reader) error {
	sc := newScanner(r)
	for {
		ln, ok := sc.next()
		if !ok {
			return nil
		}
		if _, ok := parseKV(ln, "NumNodes"); ok {
			continue
		}
		if _, ok := parseKV(ln, "NumTerminals"); ok {
			continue
		}
		fields := strings.Fields(ln)
		if len(fields) < 3 {
			return fmt.Errorf("line %d: malformed node %q", sc.line, ln)
		}
		w, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || !finiteNonNegative(w) {
			// ParseFloat accepts "NaN" and "Inf"; a non-finite or
			// negative dimension would poison every downstream area and
			// bounding-box computation, so reject it here.
			return fmt.Errorf("line %d: bad width %q", sc.line, fields[1])
		}
		h, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || !finiteNonNegative(h) {
			return fmt.Errorf("line %d: bad height %q", sc.line, fields[2])
		}
		n := netlist.Node{Name: fields[0], W: w, H: h, Kind: netlist.Cell}
		if len(fields) > 3 && strings.EqualFold(fields[3], "terminal") {
			n.Kind = netlist.Pad
			n.Fixed = true
		}
		d.AddNode(n)
	}
}

func readNets(d *netlist.Design, r io.Reader) error {
	sc := newScanner(r)
	var cur *netlist.Net
	flush := func() {
		if cur != nil && len(cur.Pins) > 0 {
			d.AddNet(*cur)
		}
		cur = nil
	}
	for {
		ln, ok := sc.next()
		if !ok {
			flush()
			return nil
		}
		if _, ok := parseKV(ln, "NumNets"); ok {
			continue
		}
		if _, ok := parseKV(ln, "NumPins"); ok {
			continue
		}
		if rest, ok := parseKV(ln, "NetDegree"); ok {
			flush()
			fields := strings.Fields(rest)
			name := fmt.Sprintf("n%d", len(d.Nets))
			if len(fields) >= 2 {
				name = fields[1]
			}
			cur = &netlist.Net{Name: name}
			continue
		}
		if cur == nil {
			return fmt.Errorf("line %d: pin line before NetDegree: %q", sc.line, ln)
		}
		// "nodename I : dx dy" | "nodename O" | "nodename B : dx dy"
		fields := strings.Fields(ln)
		idx := d.NodeIndex(fields[0])
		if idx < 0 {
			return fmt.Errorf("line %d: unknown node %q", sc.line, fields[0])
		}
		pin := netlist.Pin{Node: idx}
		// Offsets appear after a ':' token when present.
		for i, f := range fields {
			if f == ":" && i+2 < len(fields) {
				dx, err1 := strconv.ParseFloat(fields[i+1], 64)
				dy, err2 := strconv.ParseFloat(fields[i+2], 64)
				if err1 == nil && err2 == nil {
					pin.Dx, pin.Dy = dx, dy
				}
				break
			}
		}
		cur.Pins = append(cur.Pins, pin)
	}
}

func readPl(d *netlist.Design, r io.Reader) error {
	sc := newScanner(r)
	for {
		ln, ok := sc.next()
		if !ok {
			return nil
		}
		fields := strings.Fields(ln)
		if len(fields) < 3 {
			continue
		}
		idx := d.NodeIndex(fields[0])
		if idx < 0 {
			return fmt.Errorf("line %d: unknown node %q", sc.line, fields[0])
		}
		x, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || !finite(x) {
			return fmt.Errorf("line %d: bad x %q", sc.line, fields[1])
		}
		y, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || !finite(y) {
			return fmt.Errorf("line %d: bad y %q", sc.line, fields[2])
		}
		d.Nodes[idx].X, d.Nodes[idx].Y = x, y
		if strings.Contains(ln, "/FIXED") {
			d.Nodes[idx].Fixed = true
		}
	}
}

// readScl extracts the core region bounding box from the row file.
func readScl(r io.Reader) (geom.Rect, error) {
	sc := newScanner(r)
	var (
		box     geom.BBox
		coord   float64
		height  float64
		subOrig float64
		sites   float64
		inRow   bool
	)
	flushRow := func() {
		if inRow {
			box.Add(subOrig, coord)
			box.Add(subOrig+sites, coord+height)
		}
		inRow, coord, height, subOrig, sites = false, 0, 0, 0, 0
	}
	for {
		ln, ok := sc.next()
		if !ok {
			flushRow()
			break
		}
		switch {
		case strings.HasPrefix(ln, "CoreRow"):
			flushRow()
			inRow = true
		case strings.HasPrefix(ln, "End"):
			flushRow()
		default:
			if !inRow {
				continue
			}
			if v, ok := parseKV(ln, "Coordinate"); ok {
				coord = finiteOrZero(firstField(v))
			} else if v, ok := parseKV(ln, "Height"); ok {
				height = finiteOrZero(firstField(v))
			} else if strings.HasPrefix(ln, "SubrowOrigin") {
				// "SubrowOrigin : x NumSites : n". A trailing ':' with no
				// value after it is malformed but must not crash.
				fields := strings.Fields(ln)
				for i, f := range fields {
					if f == ":" && i > 0 && i+1 < len(fields) {
						val, err := strconv.ParseFloat(fields[i+1], 64)
						if err != nil || !finite(val) {
							continue
						}
						switch fields[i-1] {
						case "SubrowOrigin":
							subOrig = val
						case "NumSites":
							sites = val
						}
					}
				}
			}
		}
	}
	if box.Count() == 0 {
		return geom.Rect{}, fmt.Errorf("no CoreRow records found")
	}
	rect := box.Rect()
	if !finite(rect.Lx) || !finite(rect.Ly) || !finite(rect.Ux) || !finite(rect.Uy) {
		return geom.Rect{}, fmt.Errorf("non-finite core region %+v", rect)
	}
	return rect, nil
}

func firstField(s string) string {
	f := strings.Fields(s)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func finiteNonNegative(v float64) bool { return finite(v) && v >= 0 }

// finiteOrZero parses s as a float and returns it when finite, else 0
// (lenient numeric fields of the .scl reader).
func finiteOrZero(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !finite(v) {
		return 0
	}
	return v
}

// defaultRegion derives a placement region from the node positions and
// total area when no .scl file is available.
func defaultRegion(d *netlist.Design) geom.Rect {
	var area float64
	var box geom.BBox
	for i := range d.Nodes {
		n := &d.Nodes[i]
		area += n.Area()
		box.Add(n.X, n.Y)
		box.Add(n.X+n.W, n.Y+n.H)
	}
	if box.Count() > 0 && box.Rect().Area() > area {
		return box.Rect()
	}
	// Square region at ~70% utilization.
	side := 1.0
	if area > 0 {
		side = sqrt(area / 0.7)
	}
	return geom.NewRect(0, 0, side, side)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton iteration; avoids importing math for one call site and
	// keeps the function total for negative inputs.
	z := x
	for i := 0; i < 40; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

// classifyMacros promotes oversized movable nodes to Macro kind using
// the dominant (row) height heuristic.
func classifyMacros(d *netlist.Design) {
	counts := make(map[float64]int)
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == netlist.Cell && n.H > 0 {
			counts[n.H]++
		}
	}
	var rowH float64
	best := 0
	for h, c := range counts {
		if c > best || (c == best && h < rowH) {
			best, rowH = c, h
		}
	}
	if rowH <= 0 {
		return
	}
	for i := range d.Nodes {
		n := &d.Nodes[i]
		if n.Kind == netlist.Cell && n.H >= MacroHeightFactor*rowH {
			n.Kind = netlist.Macro
		}
	}
}

// Write emits the design as canonical Bookshelf files named
// <base>.nodes/.nets/.pl/.scl/.aux inside dir.
func Write(d *netlist.Design, dir, base string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bookshelf: %w", err)
	}
	write := func(ext string, fn func(w *bufio.Writer) error) error {
		// Atomic per-file replacement (see atomicio): an interrupted
		// Write never leaves a torn .nodes/.nets/... on disk.
		return atomicio.WriteFile(filepath.Join(dir, base+ext), func(out io.Writer) error {
			w := bufio.NewWriter(out)
			if err := fn(w); err != nil {
				return err
			}
			return w.Flush()
		})
	}

	if err := write(".nodes", func(w *bufio.Writer) error {
		terms := 0
		for i := range d.Nodes {
			if d.Nodes[i].Kind == netlist.Pad {
				terms++
			}
		}
		fmt.Fprintln(w, "UCLA nodes 1.0")
		fmt.Fprintf(w, "NumNodes : %d\n", len(d.Nodes))
		fmt.Fprintf(w, "NumTerminals : %d\n", terms)
		for i := range d.Nodes {
			n := &d.Nodes[i]
			if n.Kind == netlist.Pad {
				fmt.Fprintf(w, "%s %g %g terminal\n", n.Name, n.W, n.H)
			} else {
				fmt.Fprintf(w, "%s %g %g\n", n.Name, n.W, n.H)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := write(".nets", func(w *bufio.Writer) error {
		pins := 0
		for i := range d.Nets {
			pins += len(d.Nets[i].Pins)
		}
		fmt.Fprintln(w, "UCLA nets 1.0")
		fmt.Fprintf(w, "NumNets : %d\n", len(d.Nets))
		fmt.Fprintf(w, "NumPins : %d\n", pins)
		for i := range d.Nets {
			net := &d.Nets[i]
			fmt.Fprintf(w, "NetDegree : %d %s\n", len(net.Pins), net.Name)
			for _, p := range net.Pins {
				fmt.Fprintf(w, "\t%s B : %g %g\n", d.Nodes[p.Node].Name, p.Dx, p.Dy)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	if err := write(".pl", func(w *bufio.Writer) error {
		fmt.Fprintln(w, "UCLA pl 1.0")
		for i := range d.Nodes {
			n := &d.Nodes[i]
			suffix := ""
			if n.Fixed || n.Kind == netlist.Pad {
				suffix = " /FIXED"
			}
			fmt.Fprintf(w, "%s %g %g : N%s\n", n.Name, n.X, n.Y, suffix)
		}
		return nil
	}); err != nil {
		return err
	}

	if err := write(".scl", func(w *bufio.Writer) error {
		// Emit synthetic rows of height = most common cell height
		// covering the region, enough for the parser to reconstruct
		// the region box.
		rowH := dominantCellHeight(d)
		if rowH <= 0 {
			rowH = d.Region.H()
		}
		rows := int(d.Region.H() / rowH)
		if rows < 1 {
			rows = 1
		}
		fmt.Fprintln(w, "UCLA scl 1.0")
		fmt.Fprintf(w, "NumRows : %d\n", rows+1)
		for r := 0; r < rows; r++ {
			fmt.Fprintln(w, "CoreRow Horizontal")
			fmt.Fprintf(w, " Coordinate : %g\n", d.Region.Ly+float64(r)*rowH)
			fmt.Fprintf(w, " Height : %g\n", rowH)
			fmt.Fprintf(w, " SubrowOrigin : %g NumSites : %g\n", d.Region.Lx, d.Region.W())
			fmt.Fprintln(w, "End")
		}
		// Sentinel zero-height row pinning the exact upper-right region
		// corner. Without it the reconstructed region is the row bounding
		// box — Uy truncates to a whole number of rows and Ux picks up
		// the rounding of Lx + W, so a written region did not re-read
		// identically.
		fmt.Fprintln(w, "CoreRow Horizontal")
		fmt.Fprintf(w, " Coordinate : %g\n", d.Region.Uy)
		fmt.Fprintln(w, " Height : 0")
		fmt.Fprintf(w, " SubrowOrigin : %g NumSites : 0\n", d.Region.Ux)
		fmt.Fprintln(w, "End")
		return nil
	}); err != nil {
		return err
	}

	weighted := false
	for i := range d.Nets {
		if d.Nets[i].Weight != 0 {
			weighted = true
			break
		}
	}
	if weighted {
		if err := write(".wts", func(w *bufio.Writer) error {
			fmt.Fprintln(w, "UCLA wts 1.0")
			for i := range d.Nets {
				fmt.Fprintf(w, "%s %g\n", d.Nets[i].Name, d.Nets[i].Weight)
			}
			return nil
		}); err != nil {
			return err
		}
	}

	return write(".aux", func(w *bufio.Writer) error {
		fmt.Fprintf(w, "RowBasedPlacement : %s.nodes %s.nets %s.pl %s.scl", base, base, base, base)
		if weighted {
			fmt.Fprintf(w, " %s.wts", base)
		}
		fmt.Fprintln(w)
		return nil
	})
}

func dominantCellHeight(d *netlist.Design) float64 {
	counts := make(map[float64]int)
	for i := range d.Nodes {
		if d.Nodes[i].Kind == netlist.Cell {
			counts[d.Nodes[i].H]++
		}
	}
	type hc struct {
		h float64
		c int
	}
	var all []hc
	for h, c := range counts {
		all = append(all, hc{h, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].h < all[j].h
	})
	if len(all) == 0 {
		return 0
	}
	return all[0].h
}
