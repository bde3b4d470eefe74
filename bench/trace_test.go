package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "mcts.search", Start: 0, End: 10},
		// Two workers' inference calls overlap on [3, 4]; the union of
		// the parent's children is [1, 6] plus [8, 10] (clipped).
		{ID: 2, Parent: 1, Name: "agent.infer", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "agent.infer", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "core.oracle", Start: 8, End: 12},
		// A grandchild is its parent's business, not the search's.
		{ID: 5, Parent: 2, Name: "nn.gemm", Start: 1.5, End: 2},
	}
	total, self := layerTimes(spans)
	for name, want := range map[string]float64{"mcts.search": 3, "agent.infer": 5.5, "core.oracle": 4, "nn.gemm": 0.5} {
		if math.Abs(self[name]-want) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if total["agent.infer"] != 6 || total["mcts.search"] != 10 {
		t.Errorf("totals = %v", total)
	}
}

func TestCoveredMergesAndClips(t *testing.T) {
	ivs := []interval{{5, 7}, {0, 2}, {1, 3}, {6, 9}, {20, 30}}
	if got := covered(ivs, 1, 8); got != 5 { // [1,3] + [5,8]
		t.Errorf("covered = %v, want 5", got)
	}
	if got := covered(nil, 0, 1); got != 0 {
		t.Errorf("covered(nil) = %v, want 0", got)
	}
}

// TestJobTraceParents checks spans nest under the span open when they
// start, leaves included, and carry the job id.
func TestJobTraceParents(t *testing.T) {
	tr := newTracer()
	jt := tr.job("j1")
	endRoot := jt.begin("bench.job")
	endChild := jt.begin("mcts.search")
	jt.leaf("agent.infer", time.Now(), 3)
	endChild()
	jt.leaf("core.oracle", time.Now(), 0)
	endRoot()

	spans := tr.snapshot()
	byName := make(map[string]span)
	for _, s := range spans {
		byName[s.Name] = s
		if s.Job != "j1" {
			t.Errorf("span %s has job %q", s.Name, s.Job)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	root, search := byName["bench.job"], byName["mcts.search"]
	if root.Parent != 0 || search.Parent != root.ID {
		t.Errorf("search parent %d, root %d/%d", search.Parent, root.ID, root.Parent)
	}
	if byName["agent.infer"].Parent != search.ID || byName["agent.infer"].Items != 3 {
		t.Errorf("infer span %+v not under the search", byName["agent.infer"])
	}
	if byName["core.oracle"].Parent != root.ID {
		t.Errorf("oracle span %+v not under the root", byName["core.oracle"])
	}
	var nilTrace *jobTrace
	nilTrace.begin("x")()
	nilTrace.leaf("y", time.Now(), 0)
}
