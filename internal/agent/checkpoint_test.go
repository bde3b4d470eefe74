package agent

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadRejectsEveryTruncation cuts a valid checkpoint at every
// 64-byte boundary and asserts Load returns an error — never a panic,
// never a silently zero-weight agent.
func TestLoadRejectsEveryTruncation(t *testing.T) {
	a := testAgent()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 64 {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded without error", cut, len(data))
		}
	}
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("full checkpoint failed to load: %v", err)
	}
}

func TestLoadRejectsTrailingData(t *testing.T) {
	a := testAgent()
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0)
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte should be rejected, got %v", err)
	}
}

func TestLoadRejectsCorruptHeaderDimensions(t *testing.T) {
	// Each header must fail validation instead of attempting a
	// multi-gigabyte allocation (or, for zero blocks, building a
	// default tower the file does not describe).
	for _, tc := range []struct {
		header [5]int64 // zeta, channels, resblocks, maxsteps, seed
		want   string
	}{
		{[5]int64{1 << 40, 8, 1, 4, 0}, "zeta"},
		{[5]int64{1024, 8, 1, 4, 0}, "parameters"},     // policy Linear ≈ 2.2e12
		{[5]int64{8, 8192, 1024, 4, 0}, "parameters"},  // tower ≈ 1.2e12
		{[5]int64{64, 8, 1, 1 << 20, 0}, "parameters"}, // embedding ≈ 4.3e9
		{[5]int64{8, 8, 0, 4, 0}, "resblocks"},
	} {
		var buf bytes.Buffer
		buf.WriteString(checkpointMagic)
		for _, v := range tc.header {
			binary.Write(&buf, binary.LittleEndian, v)
		}
		if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("header %v: got %v, want an error naming %s", tc.header, err, tc.want)
		}
	}
}

// TestParamCountMatchesNew pins the header bound's formula to the
// agents New builds.
func TestParamCountMatchesNew(t *testing.T) {
	for _, cfg := range []Config{
		{Zeta: 6, Channels: 4, ResBlocks: 1, MaxSteps: 8},
		{Zeta: 16, Channels: 16, ResBlocks: 2, MaxSteps: 30},
		{Zeta: 5, Channels: 3, ResBlocks: 4, MaxSteps: 1},
		Paper(64, 0),
	} {
		a := New(cfg)
		n, slices := paramCount(int64(cfg.Zeta), int64(cfg.Channels), int64(cfg.ResBlocks), int64(cfg.MaxSteps))
		if n != int64(a.NumParams()) || slices != int64(len(a.Params())) {
			t.Errorf("%+v: paramCount %d in %d slices, New builds %d in %d", cfg, n, slices, a.NumParams(), len(a.Params()))
		}
	}
}

// TestLoadRefusesFormatV1: a checkpoint of the earlier format, which
// also carried BatchNorm running statistics, is refused by name.
func TestLoadRefusesFormatV1(t *testing.T) {
	var buf bytes.Buffer
	if err := testAgent().Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(checkpointMagicV1), buf.Bytes()[len(checkpointMagic):]...)
	if _, err := Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "predates") {
		t.Errorf("MPAGENT1 checkpoint: got %v, want an error saying it predates the format", err)
	}
}

// FuzzLoadAgent: Load never panics, and any input it accepts re-saves
// to the same bytes.
func FuzzLoadAgent(f *testing.F) {
	// The smallest shape keeps the valid seed short (under 1 KB), so
	// mutating and minimizing it stays fast.
	var buf bytes.Buffer
	if err := New(Config{Zeta: 1, Channels: 1, ResBlocks: 1, MaxSteps: 1, Seed: 3}).Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append([]byte(checkpointMagicV1), valid[len(checkpointMagic):]...))
	f.Add([]byte(checkpointMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := a.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-save to %d different bytes", len(data), out.Len())
		}
	})
}

// TestSaveFileAtomicReplacement overwrites an existing checkpoint and
// verifies no temporary debris is left next to it.
func TestSaveFileAtomicReplacement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "agent.ckpt")
	a := testAgent()
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("re-saved checkpoint does not load: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the checkpoint", len(entries))
	}
}
