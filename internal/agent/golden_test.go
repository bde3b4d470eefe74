package agent

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"macroplace/internal/rng"
)

// goldenStates returns twelve fixed states on a ζ×ζ grid. States 0, 4
// and 8 have an all-zero s_p (t = 0 on a design with no pre-placed
// macros), which makes every first-layer channel constant over its
// map; state 6 has no available grid at all.
func goldenStates(zeta, maxSteps int) []BatchInput {
	r := rng.New(int64(zeta*1000 + maxSteps))
	n := zeta * zeta
	in := make([]BatchInput, 12)
	for s := range in {
		sp := make([]float64, n)
		sa := make([]float64, n)
		for i := range sp {
			if s%4 != 0 {
				sp[i] = r.Float64()
			}
			if s != 6 && r.Float64() > 0.3 {
				sa[i] = r.Float64()
			}
		}
		in[s] = BatchInput{SP: sp, SA: sa, T: (s * 3) % (maxSteps + 4)}
	}
	return in
}

// addBits writes the bits of vs to h, little-endian.
func addBits(h hash.Hash, vs ...float32) {
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
}

// TestNetworkGolden pins the network's bits at three tower shapes: the
// outputs of one-state EvaluateBatchInto calls over twelve fixed
// states, and every parameter's gradient after a Forward and Backward
// over the same states with an entropy bonus. The values were recorded
// before inference and training shared one forward pass, and must
// never change: every golden downstream (the update golden, the flow
// determinism tests, the daemon's bit-identity) rests on them.
func TestNetworkGolden(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cfg            Config
		outputs, grads uint64
	}{
		// The daemon default.
		{"zeta16-c16-b2", Config{Zeta: 16, Channels: 16, ResBlocks: 2, MaxSteps: 64, Seed: 21}, 0x1098559efbe395b4, 0xf18c9de8ad1b49fb},
		// agent.Default: its 3×3 convolutions cross the MatMul
		// parallel threshold.
		{"default", Default(16, 64, 22), 0xfbe0a148ec1cbd80, 0xb237ef4f5c3757ed},
		{"zeta8-c5-b1", Config{Zeta: 8, Channels: 5, ResBlocks: 1, MaxSteps: 8, Seed: 23}, 0x802208e51f3d5814, 0x1b91b716ea70075c},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ag := New(tc.cfg)
			states := goldenStates(ag.Cfg.Zeta, ag.Cfg.MaxSteps)
			n := ag.Cfg.Zeta * ag.Cfg.Zeta

			outH := fnv.New64a()
			for _, in := range states {
				o := evalState(ag, in.SP, in.SA, in.T)
				addBits(outH, o.Probs...)
				addBits(outH, o.Value)
			}

			gradH := fnv.New64a()
			r := rng.New(7)
			var tp Tape
			for _, in := range states {
				out := ag.Forward(&tp, in.SP, in.SA, in.T)
				target := float32(r.Range(-1, 1))
				ag.Backward(&tp, &tp, r.Intn(n), target-out.Value, target, 0.05)
			}
			for _, p := range ag.Params() {
				addBits(gradH, p.G...)
			}

			if got := outH.Sum64(); got != tc.outputs {
				t.Errorf("outputs hash %#x, want %#x", got, tc.outputs)
			}
			if got := gradH.Sum64(); got != tc.grads {
				t.Errorf("gradients hash %#x, want %#x", got, tc.grads)
			}
		})
	}
}
