package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"macroplace/internal/baseline"
	"macroplace/internal/netlist"
	"macroplace/internal/portfolio"
	"macroplace/internal/portfolio/conformance"
)

// slowPlacer is a deliberately losing race participant: it produces a
// legal placement immediately, streams it as an incumbent, then holds
// until its context is cancelled — so a race against it only ends when
// the grace timer prunes it. Its placement piles every movable cell in
// the region corner, guaranteeing it never wins on HPWL while every
// legality invariant still holds.
type slowPlacer struct{}

func (slowPlacer) Name() string { return "slowtest" }

func (slowPlacer) Caps() portfolio.Caps { return portfolio.Caps{Anytime: true} }

func (slowPlacer) PlaceContext(ctx context.Context, d *netlist.Design, opts portfolio.Options) (portfolio.Result, error) {
	work := d.Clone()
	br := baseline.Finish(work)
	// Scatter cells to alternating opposite corners so nearly every net
	// spans the whole region (piling them in ONE corner would zero the
	// cell-to-cell net lengths and accidentally produce a great HPWL).
	for i := range work.Nodes {
		n := &work.Nodes[i]
		if n.Kind == netlist.Macro || n.Fixed {
			continue
		}
		n.X, n.Y = work.Region.Lx, work.Region.Ly
		if i%2 == 0 {
			n.X = work.Region.Ux - n.W
		}
		if (i/2)%2 == 0 {
			n.Y = work.Region.Uy - n.H
		}
	}
	res := portfolio.Result{
		Backend:      "slowtest",
		HPWL:         work.HPWL(),
		MacroOverlap: portfolio.RecomputeOverlap(work),
		Converged:    br.Converged,
		Placed:       work,
	}
	if opts.OnIncumbent != nil {
		opts.OnIncumbent(portfolio.Incumbent{Backend: "slowtest", HPWL: res.HPWL})
	}
	if ctx != nil {
		<-ctx.Done() // hold until the race prunes this straggler
	}
	res.Interrupted = true
	return res, nil
}

var registerSlowtestOnce sync.Once

func registerSlowtest() {
	registerSlowtestOnce.Do(func() { portfolio.Register(slowPlacer{}) })
}

// TestDaemonRaceE2E is the race job class acceptance scenario over a
// real socket: a race between a real backend and a deliberately slow
// loser must (1) cancel the loser via the grace timer rather than wait
// for it, (2) stream a strictly decreasing cross-backend incumbent
// over SSE, (3) persist the leaderboard, and (4) report winner metrics
// bit-identical to running the winning backend directly.
func TestDaemonRaceE2E(t *testing.T) {
	registerSlowtest()
	d, err := NewServer(Config{Workers: 1, QueueCap: 4, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	sp := Spec{
		Bench: "ibm01", Scale: 0.01, Seed: 5, Zeta: 8,
		Channels: 4, ResBlocks: 1, Effort: 0.05,
		Race:        []string{portfolio.BackendMinCut, "slowtest"},
		RaceGraceMS: 200, RaceDeadlineMS: 100_000,
	}
	st, resp := postJob(t, base, sp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if got := waitTerminal(t, d, st.ID); got != StateDone {
		t.Fatalf("race job state %q, want done", got)
	}
	j, _ := d.Job(st.ID)
	res := j.Result()
	if res == nil {
		t.Fatal("race job has no result")
	}

	// Winner and per-backend outcomes, in spec order.
	if res.Winner != portfolio.BackendMinCut {
		t.Fatalf("winner %q, want %q (the slow backend cannot win)", res.Winner, portfolio.BackendMinCut)
	}
	if !res.Converged {
		t.Errorf("winner placement did not converge")
	}
	if len(res.Backends) != 2 ||
		res.Backends[0].Backend != portfolio.BackendMinCut ||
		res.Backends[1].Backend != "slowtest" {
		t.Fatalf("outcomes %+v, want spec order [mincut slowtest]", res.Backends)
	}
	slow := res.Backends[1]
	if !slow.Cancelled {
		t.Errorf("slow backend not marked Cancelled — grace pruning did not fire")
	}
	if slow.Err != "" {
		t.Errorf("slow backend errored: %s", slow.Err)
	}
	if !slow.Interrupted {
		t.Errorf("slow backend not marked Interrupted")
	}
	if slow.HPWL <= res.HPWL {
		t.Errorf("slow backend hpwl %v beat winner %v — loser construction broken", slow.HPWL, res.HPWL)
	}

	// The persisted leaderboard agrees with the job result.
	data, err := os.ReadFile(filepath.Join(j.Dir, "race.json"))
	if err != nil {
		t.Fatalf("race.json: %v", err)
	}
	var board raceBoard
	if err := json.Unmarshal(data, &board); err != nil {
		t.Fatalf("race.json: %v", err)
	}
	if board.Winner != res.Winner || len(board.Outcomes) != 2 {
		t.Errorf("race.json winner %q / %d outcomes, want %q / 2", board.Winner, len(board.Outcomes), res.Winner)
	}

	// SSE replays the incumbent stream: at least one exact incumbent,
	// strictly decreasing, ending at the winner's HPWL.
	httpResp, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer httpResp.Body.Close()
	var incumbents []portfolio.Incumbent
	sc := bufio.NewScanner(httpResp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		if ev.Type != "incumbent" {
			continue
		}
		var inc portfolio.Incumbent
		if err := json.Unmarshal([]byte(ev.Data), &inc); err != nil {
			t.Fatalf("bad incumbent payload %q: %v", ev.Data, err)
		}
		incumbents = append(incumbents, inc)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read events: %v", err)
	}
	if len(incumbents) == 0 {
		t.Fatal("no incumbent events streamed")
	}
	for i := 1; i < len(incumbents); i++ {
		if incumbents[i].HPWL >= incumbents[i-1].HPWL {
			t.Errorf("incumbent stream not strictly decreasing: %v then %v", incumbents[i-1].HPWL, incumbents[i].HPWL)
		}
	}
	if last := incumbents[len(incumbents)-1]; last.HPWL != res.HPWL {
		t.Errorf("last incumbent hpwl %v != winner %v", last.HPWL, res.HPWL)
	}

	// Bit-identity seam: the winner's metrics through the daemon equal
	// running the winning backend directly with the same derived
	// options on the same design.
	design, _, _, err := sp.LoadDesignDoc(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := portfolio.Lookup(portfolio.BackendMinCut)
	direct, err := p.PlaceContext(context.Background(), design, sp.PortfolioOptions())
	if err != nil {
		t.Fatal(err)
	}
	if direct.HPWL != res.HPWL || direct.MacroOverlap != res.MacroOverlap {
		t.Errorf("daemon race winner (hpwl=%v overlap=%v) != direct run (hpwl=%v overlap=%v)",
			res.HPWL, res.MacroOverlap, direct.HPWL, direct.MacroOverlap)
	}
	conformance.CheckResult(t, portfolio.BackendMinCut, design, direct)
}
