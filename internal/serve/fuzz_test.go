package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"macroplace/internal/agent"
	"macroplace/internal/core"
)

// TestValidateBoundsNetworkParams: each network field within its own
// cap can still multiply into a network the daemon cannot allocate.
// Validate counts the parameters of the normalized shape, with one
// position-embedding row, against the bound agent.Load puts on a
// checkpoint, and its error names the shape and the bound.
func TestValidateBoundsNetworkParams(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		params int64 // 0: admitted
	}{
		{`{"bench":"ibm01","zeta":128}`, 537_470_412},
		{`{"bench":"ibm01","zeta":80}`, 82_160_076},
		{`{"bench":"ibm01","channels":4096,"resblocks":64}`, 19_329_127_452},
		{`{"bench":"ibm01","channels":1024,"resblocks":4}`, 75_677_724},
		{`{"bench":"ibm01","zeta":64}`, 0},                     // 33,711,564 parameters
		{`{"bench":"ibm01","channels":128,"resblocks":10}`, 0}, // the paper's Table I tower
	} {
		var sp Spec
		if err := json.Unmarshal([]byte(tc.spec), &sp); err != nil {
			t.Fatal(err)
		}
		err := sp.Validate()
		if tc.params == 0 {
			if err != nil {
				t.Errorf("%s refused: %v", tc.spec, err)
			}
			continue
		}
		n := sp.normalize()
		shape := fmt.Sprintf("zeta=%d channels=%d resblocks=%d maxsteps=1", n.Zeta, n.Channels, n.ResBlocks)
		want := fmt.Sprintf("%s has %d parameters, above %d", shape, tc.params, 1<<26)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", tc.spec, err, want)
		}
	}
}

// TestEffortRefusedOutsideARace: Effort scales only raced backends, so
// a flow or ECO job that sets it is refused at admission instead of
// running silently at full budget. A race keeps it, and an ECO job
// scales its moves with eco.effort.
func TestEffortRefusedOutsideARace(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		admitted bool
	}{
		{`{"bench":"ibm01","effort":0.1}`, false},
		{`{"bench":"ibm01","effort":0.1,"eco":{"prior":{"m0":[1,2]}}}`, false},
		{`{"bench":"ibm01","effort":0.1,"race":["mincut","mcts"]}`, true},
		{`{"bench":"ibm01","eco":{"prior":{"m0":[1,2]},"effort":0.5}}`, true},
	} {
		var sp Spec
		if err := json.Unmarshal([]byte(tc.spec), &sp); err != nil {
			t.Fatal(err)
		}
		err := sp.Validate()
		switch {
		case tc.admitted && err != nil:
			t.Errorf("%s refused: %v", tc.spec, err)
		case !tc.admitted && (err == nil || !strings.Contains(err.Error(), "effort")):
			t.Errorf("%s: error %v, want one naming effort", tc.spec, err)
		}
	}
}

// FuzzSpecJSON throws arbitrary bytes at the submission path's decoder
// and validator — the daemon's untrusted input surface. The contract:
// malformed or hostile specs produce a decode or validation error,
// never a panic; and any spec that survives Validate derives sane,
// bounded options (no NaN/Inf, no non-positive budgets) so the flow
// behind it cannot be wedged by crafted numerics. Mirrors the
// bookshelf package's FuzzParse, one layer up the stack.
func FuzzSpecJSON(f *testing.F) {
	seed, err := json.Marshal(tinySpec(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"bench":"ibm01","race":["mincut","maskplace"],"effort":0.1,"race_grace_ms":200}`))
	f.Add([]byte(`{"bookshelf":{"a.aux":"RowBasedPlacement : a.nodes a.nets a.pl a.scl"}}`))
	f.Add([]byte(`{"bench":"ibm01","scale":1e308}`))
	f.Add([]byte(`{"bench":"ibm01","race":["mincut","mincut"]}`))
	f.Add([]byte(`{"bench":"ibm01","zeta":-1}`))
	f.Add([]byte(`{"bench":"ibm01","race_deadline_ms":99999999999}`))
	f.Add([]byte(`{"bench":"ibm01","effort":-0.5}`))
	f.Add([]byte(`{"bench":"ibm01","race":["nope"]}`))
	f.Add([]byte(`{"bench":"ibm01","zeta":128}`))
	f.Add([]byte(`{"bench":"ibm01","channels":4096,"resblocks":64}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var sp Spec
		if err := dec.Decode(&sp); err != nil {
			return // the submission path refuses it with 400
		}
		if err := sp.Validate(); err != nil {
			return // likewise
		}

		// The spec was admitted: every derived option must be finite,
		// positive where a budget is meant, and within the caps Validate
		// advertises.
		n := sp.normalize()
		for name, v := range map[string]int{
			"zeta": n.Zeta, "channels": n.Channels, "resblocks": n.ResBlocks,
		} {
			if v <= 0 {
				t.Fatalf("normalized %s = %d, want positive", name, v)
			}
		}
		if n.Scale <= 0 || n.Scale > 100 || math.IsNaN(n.Scale) || math.IsInf(n.Scale, 0) {
			t.Fatalf("normalized scale = %v", n.Scale)
		}
		if err := agent.CheckParams(agent.Config{Zeta: n.Zeta, Channels: n.Channels, ResBlocks: n.ResBlocks, MaxSteps: 1}); err != nil {
			t.Fatalf("admitted network is over the parameter bound: %v", err)
		}

		popts := sp.PortfolioOptions()
		if math.IsNaN(popts.Effort) || math.IsInf(popts.Effort, 0) || popts.Effort < 0 {
			t.Fatalf("portfolio effort = %v", popts.Effort)
		}
		if popts.Zeta <= 0 || popts.Channels <= 0 || popts.ResBlocks <= 0 {
			t.Fatalf("portfolio options carry non-positive sizes: %+v", popts)
		}
		// The flow job and the race's mcts backend both run the
		// derived flow options.
		for name, opts := range map[string]core.Options{"flow": sp.Options(), "race mcts": popts.Flow()} {
			if opts.RL.Episodes <= 0 || opts.MCTS.Gamma <= 0 || opts.MCTS.Workers <= 0 {
				t.Fatalf("%s options carry non-positive budgets: %+v", name, opts)
			}
		}
		if len(sp.Race) > 16 {
			t.Fatalf("validated spec races %d backends", len(sp.Race))
		}
	})
}
