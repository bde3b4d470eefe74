package agent

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"macroplace/internal/atomicio"
)

// checkpointMagic identifies agent checkpoint files; checkpointMagicV1
// marks the earlier format, which also carried BatchNorm running
// statistics that no pass reads.
const (
	checkpointMagic   = "MPAGENT2"
	checkpointMagicV1 = "MPAGENT1"
)

// maxCheckpointParams bounds the parameter count a checkpoint header
// may imply: about 20× the 3.1 M of the paper's Table I shape, and
// enough for a ζ=64 policy layer.
const maxCheckpointParams = 1 << 26

// Save serialises the agent's configuration and weights so a
// pre-trained agent can be reused across runs — the paper's workflow
// pre-trains once and searches many times.
func (a *Agent) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	cfg := []int64{int64(a.Cfg.Zeta), int64(a.Cfg.Channels), int64(a.Cfg.ResBlocks), int64(a.Cfg.MaxSteps), a.Cfg.Seed}
	for _, v := range cfg {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("agent: %w", err)
		}
	}
	writeSlice := func(s []float32) error {
		if err := binary.Write(bw, binary.LittleEndian, int64(len(s))); err != nil {
			return err
		}
		return binary.Write(bw, binary.LittleEndian, s)
	}
	for _, p := range a.params {
		if err := writeSlice(p.W); err != nil {
			return fmt.Errorf("agent: %s: %w", p.Name, err)
		}
	}
	return bw.Flush()
}

// Load reads a checkpoint written by Save and returns a fresh agent.
func Load(r io.Reader) (*Agent, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	switch string(magic) {
	case checkpointMagic:
	case checkpointMagicV1:
		return nil, fmt.Errorf("agent: checkpoint format %s predates the current format %s; retrain and save the agent again", magic, checkpointMagic)
	default:
		return nil, fmt.Errorf("agent: not an agent checkpoint (magic %q)", magic)
	}
	var cfg [5]int64
	for i := range cfg {
		if err := binary.Read(br, binary.LittleEndian, &cfg[i]); err != nil {
			return nil, fmt.Errorf("agent: truncated checkpoint header: %w", err)
		}
	}
	// A corrupt header decodes into arbitrary dimensions. Bound them,
	// and read the payload they imply, before New allocates for them:
	// a short file then costs no more memory than its own length.
	params, slices, err := validateShape(cfg)
	if err != nil {
		return nil, err
	}
	size := 8*slices + 4*params // a length prefix per slice, a float32 per parameter
	payload, err := io.ReadAll(io.LimitReader(br, size+1))
	if err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	switch {
	case int64(len(payload)) < size:
		return nil, fmt.Errorf("agent: truncated checkpoint: %d of %d payload bytes", len(payload), size)
	case int64(len(payload)) > size:
		// Save writes nothing after the last parameter, so any
		// remaining byte means the file is not a checkpoint this Load
		// understands (e.g. a concatenation or version skew).
		return nil, fmt.Errorf("agent: trailing data after checkpoint payload")
	}
	a := New(Config{
		Zeta: int(cfg[0]), Channels: int(cfg[1]), ResBlocks: int(cfg[2]),
		MaxSteps: int(cfg[3]), Seed: cfg[4],
	})
	pr := bytes.NewReader(payload)
	for _, p := range a.params {
		var n int64
		if err := binary.Read(pr, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("agent: %s: %w", p.Name, err)
		}
		if n != int64(len(p.W)) {
			return nil, fmt.Errorf("agent: %s has %d values, want %d (architecture mismatch)", p.Name, n, len(p.W))
		}
		if err := binary.Read(pr, binary.LittleEndian, p.W); err != nil {
			return nil, fmt.Errorf("agent: %s: %w", p.Name, err)
		}
	}
	return a, nil
}

// validateShape bounds the decoded header dimensions, each on its own
// and by the parameter count they imply, so that a corrupted header
// cannot demand gigabyte allocations. It returns the agent's parameter
// and slice counts. The per-field limits also keep paramCount's
// arithmetic far from overflow.
func validateShape(cfg [5]int64) (params, slices int64, err error) {
	for _, f := range []struct {
		what      string
		v, lo, hi int64
	}{
		{"zeta", cfg[0], 1, 1024},
		{"channels", cfg[1], 1, 8192},
		{"resblocks", cfg[2], 1, 1024},
		{"maxsteps", cfg[3], 1, 1 << 20},
	} {
		if f.v < f.lo || f.v > f.hi {
			return 0, 0, fmt.Errorf("agent: checkpoint %s=%d outside [%d, %d] (corrupt header?)", f.what, f.v, f.lo, f.hi)
		}
	}
	shape := Config{Zeta: int(cfg[0]), Channels: int(cfg[1]), ResBlocks: int(cfg[2]), MaxSteps: int(cfg[3])}
	if err := CheckParams(shape); err != nil {
		return 0, 0, fmt.Errorf("%w (corrupt header?)", err)
	}
	params, slices = paramCount(cfg[0], cfg[1], cfg[2], cfg[3])
	return params, slices, nil
}

// CheckParams refuses a network whose shape has more parameters than
// a checkpoint may hold (maxCheckpointParams), naming the shape and the
// bound, so a network it admits is one whose checkpoint Load accepts.
// The daemon checks a job's network with it before admission. Each
// field must be positive and within Load's header limits.
func CheckParams(cfg Config) error {
	n, _ := paramCount(int64(cfg.Zeta), int64(cfg.Channels), int64(cfg.ResBlocks), int64(cfg.MaxSteps))
	if n > maxCheckpointParams {
		return fmt.Errorf("agent: network shape zeta=%d channels=%d resblocks=%d maxsteps=%d has %d parameters, above %d",
			cfg.Zeta, cfg.Channels, cfg.ResBlocks, cfg.MaxSteps, n, maxCheckpointParams)
	}
	return nil
}

// paramCount returns the number of scalar parameters New builds for
// ζ=z, c channels, r residual blocks and m position-embedding rows, and
// the number of slices they come in: the stem, the residual tower, the
// policy head, then the value head, each layer with a weight and a
// bias (γ and β for a BatchNorm), and the embedding table.
func paramCount(z, c, r, m int64) (n, slices int64) {
	z2 := z * z
	conv := func(cin, cout, k int64) int64 { return cout*cin*k*k + cout }
	linear := func(in, out int64) int64 { return out*in + out }
	bn := func(ch int64) int64 { return 2 * ch }
	n = conv(1, c, 3) + bn(c)
	n += r * 2 * (conv(c, c, 3) + bn(c))
	n += conv(c, 2, 1) + bn(2) + linear(2*z2, z2)
	n += m*z2 + conv(c+2, 1, 1) + bn(1) + linear(z2, 16) + linear(16, z2) + linear(z2, 1)
	layers := 2 + 4*r + 3 + 5
	return n, 2*layers + 1
}

// SaveFile writes a checkpoint to path atomically: a crash mid-write
// leaves any previous checkpoint at path intact (see atomicio).
func (a *Agent) SaveFile(path string) error {
	return atomicio.WriteFile(path, a.Save)
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*Agent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("agent: %w", err)
	}
	defer f.Close()
	return Load(f)
}
