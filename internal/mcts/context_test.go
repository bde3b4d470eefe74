package mcts

import (
	"context"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"macroplace/internal/agent"
)

// cancellingEvaluator cancels a context after a fixed number of
// evaluator calls, simulating a deadline that strikes mid-search.
type cancellingEvaluator struct {
	inner  *agent.Agent
	after  int64
	calls  int64
	cancel context.CancelFunc
}

func (c *cancellingEvaluator) EvaluateBatchInto(in []agent.BatchInput, out []agent.Output) {
	if atomic.AddInt64(&c.calls, 1) == c.after {
		c.cancel()
	}
	c.inner.EvaluateBatchInto(in, out)
}

// TestRunContextBackgroundMatchesRun pins the acceptance criterion
// that threading a background context changes nothing: same anchors,
// wirelength, and exploration count as Run for Workers=1.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	env, wl := cornerEnv()
	a := New(Config{Gamma: 16, Seed: 1, Workers: 1}, untrained(), wl, testScaler()).Run(env)
	b := New(Config{Gamma: 16, Seed: 1, Workers: 1}, untrained(), wl, testScaler()).
		RunContext(context.Background(), env)
	if !reflect.DeepEqual(a.Anchors, b.Anchors) || a.Wirelength != b.Wirelength ||
		a.Explorations != b.Explorations || a.TerminalEvals != b.TerminalEvals {
		t.Errorf("RunContext(Background) diverged from Run: %+v vs %+v", b, a)
	}
	if b.Interrupted {
		t.Error("background context must not mark the result Interrupted")
	}
}

// TestCancelledBeforeStartStillCompletes: even a context that is
// already cancelled yields a complete, legal allocation — the search
// degrades to committing the greedy policy path, it never returns a
// partial placement.
func TestCancelledBeforeStartStillCompletes(t *testing.T) {
	for _, workers := range []int{1, 4} {
		env, wl := cornerEnv()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s := New(Config{Gamma: 16, Seed: 2, Workers: workers}, untrained(), wl, testScaler())
		res := s.RunContext(ctx, env)
		if !res.Interrupted {
			t.Errorf("workers=%d: cancelled run not marked Interrupted", workers)
		}
		if len(res.Anchors) != 3 {
			t.Fatalf("workers=%d: anchors = %v, want a complete allocation", workers, res.Anchors)
		}
		for _, a := range res.Anchors {
			if a < 0 || a >= env.G.NumCells() {
				t.Errorf("workers=%d: illegal anchor %d", workers, a)
			}
		}
		if res.Wirelength != wl(res.Anchors) {
			t.Errorf("workers=%d: reported wirelength does not match anchors", workers)
		}
	}
}

// TestCancelledMidSearchReturnsBestSoFar cancels partway through the
// exploration budget and checks the anytime property: the result is
// complete, legal, and carries the statistics gathered before the
// cut.
func TestCancelledMidSearchReturnsBestSoFar(t *testing.T) {
	for _, workers := range []int{1, 3} {
		env, wl := cornerEnv()
		ctx, cancel := context.WithCancel(context.Background())
		ev := &cancellingEvaluator{inner: untrained(), after: 5, cancel: cancel}
		s := New(Config{Gamma: 16, Seed: 3, Workers: workers}, ev, wl, testScaler())
		res := s.RunContext(ctx, env)
		cancel()
		if !res.Interrupted {
			t.Errorf("workers=%d: mid-search cancellation not marked Interrupted", workers)
		}
		if len(res.Anchors) != 3 {
			t.Fatalf("workers=%d: anchors = %v, want complete", workers, res.Anchors)
		}
		if res.Wirelength != wl(res.Anchors) {
			t.Errorf("workers=%d: wirelength mismatch", workers)
		}
		if res.Explorations >= 3*16 {
			t.Errorf("workers=%d: explorations = %d, expected fewer than the full budget", workers, res.Explorations)
		}
	}
}

// TestSnapshotAndResume: snapshots emitted after each commit carry a
// replayable prefix; resuming from one continues the same episode and
// pins the already-committed moves.
func TestSnapshotAndResume(t *testing.T) {
	env, wl := cornerEnv()
	var snaps []Snapshot
	s := New(Config{Gamma: 10, Seed: 4, Workers: 1}, untrained(), wl, testScaler())
	s.OnSnapshot = func(sn Snapshot) { snaps = append(snaps, sn) }
	full := s.Run(env)
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want one per commit step", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if !reflect.DeepEqual(last.Committed, full.Anchors) {
		t.Errorf("final snapshot prefix %v != committed anchors %v", last.Committed, full.Anchors)
	}

	// Resume from the first snapshot: the first committed move is
	// pinned, the remaining steps are searched afresh.
	first := snaps[0]
	if err := first.Check(env); err != nil {
		t.Fatalf("snapshot fails its own Check: %v", err)
	}
	s2 := New(Config{Gamma: 10, Seed: 4, Workers: 1}, untrained(), wl, testScaler())
	s2.Resume = &first
	res := s2.Run(env)
	if len(res.Anchors) != 3 {
		t.Fatalf("resumed anchors = %v", res.Anchors)
	}
	if res.Anchors[0] != first.Committed[0] {
		t.Errorf("resume did not pin committed move: %v vs %v", res.Anchors[0], first.Committed[0])
	}
	if res.Explorations != first.Explorations+2*10 {
		t.Errorf("resumed explorations = %d, want %d carried + 2 steps × γ", res.Explorations, first.Explorations+20)
	}
}

// TestSnapshotResumeParallel exercises the resume path of the
// tree-parallel driver.
func TestSnapshotResumeParallel(t *testing.T) {
	env, wl := cornerEnv()
	var snaps []Snapshot
	s := New(Config{Gamma: 12, Seed: 5, Workers: 4}, untrained(), wl, testScaler())
	s.OnSnapshot = func(sn Snapshot) { snaps = append(snaps, sn) }
	s.Run(env)
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	s2 := New(Config{Gamma: 12, Seed: 5, Workers: 4}, untrained(), wl, testScaler())
	s2.Resume = &snaps[1]
	res := s2.Run(env)
	if len(res.Anchors) != 3 {
		t.Fatalf("resumed anchors = %v", res.Anchors)
	}
	if res.Anchors[0] != snaps[1].Committed[0] || res.Anchors[1] != snaps[1].Committed[1] {
		t.Errorf("resume did not pin committed prefix: %v vs %v", res.Anchors[:2], snaps[1].Committed)
	}
}

func TestSnapshotSaveLoadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.snap")
	sn := Snapshot{Committed: []int{3, 7}, Explorations: 24, TerminalEvals: 2,
		BestAnchors: []int{3, 7, 1}, BestWirelength: 5.5}
	if err := SaveSnapshot(path, sn); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, sn) {
		t.Errorf("roundtrip mismatch: %+v vs %+v", *got, sn)
	}
}

func TestSnapshotCheckRejectsGarbage(t *testing.T) {
	env, _ := cornerEnv()
	cases := []Snapshot{
		{Committed: []int{-1}},
		{Committed: []int{1 << 30}},
		{Committed: []int{0, 1, 2, 3}}, // longer than the episode
		{Explorations: -1},
	}
	for i, sn := range cases {
		if err := sn.Check(env); err == nil {
			t.Errorf("case %d: garbage snapshot passed Check", i)
		}
	}
	good := Snapshot{Committed: []int{0, 5}}
	if err := good.Check(env); err != nil {
		t.Errorf("legal snapshot rejected: %v", err)
	}
	if env.T() != 0 {
		t.Error("Check mutated the caller's env")
	}
}
