package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"macroplace/internal/core"
	"macroplace/internal/faults"
)

// tinySpec is a spec sized for the single-core CI container: a few
// seconds end to end, deterministic at Workers=1.
func tinySpec(seed int64) Spec {
	return Spec{
		Bench: "ibm01", Scale: 0.01, Zeta: 8,
		Episodes: 4, Gamma: 2, Workers: 1,
		Channels: 4, ResBlocks: 1, Seed: seed,
	}
}

func postJob(t *testing.T, base string, sp Spec) (Status, *http.Response) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func waitTerminal(t *testing.T, d *Server, id string) State {
	t.Helper()
	j, ok := d.Job(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := j.WaitTerminal(ctx)
	if err != nil {
		t.Fatalf("job %s did not terminate: %v", id, err)
	}
	return st
}

// TestDaemonE2E is the acceptance scenario: five concurrent jobs over
// a real socket — one cancelled by a client DELETE, one panicking via
// deterministic fault injection, the rest completing legally — all
// while the job table, event streams and persisted artifacts stay
// consistent.
func TestDaemonE2E(t *testing.T) {
	const (
		seedPanic  = 666
		seedCancel = 777
	)
	runner := func(ctx context.Context, j *Job) (*Result, error) {
		switch j.Spec.Seed {
		case seedPanic:
			// A dead evaluator: the first forward pass panics. runJob
			// must contain it and fail only this job.
			inj := &faults.Injector{PanicEvery: 1}
			inj.Evaluator(nil).Forward(nil, nil, 0)
			return nil, nil
		case seedCancel:
			// Hold until the client DELETE cancels the job context.
			<-ctx.Done()
			return nil, nil
		default:
			return RunSpec(ctx, j)
		}
	}
	d, err := NewServer(Config{Workers: 2, QueueCap: 16, Dir: t.TempDir(), Runner: runner, Logf: t.Logf})
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

	seeds := []int64{11, 12, seedPanic, seedCancel, 13}
	ids := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			st, resp := postJob(t, base, tinySpec(seed))
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("seed %d: submit status %d, want 202", seed, resp.StatusCode)
				return
			}
			ids[i] = st.ID
			if st.State != StateQueued {
				t.Errorf("seed %d: fresh job state %q, want queued", seed, st.State)
			}
		}(i, seed)
	}
	wg.Wait()
	byseed := map[int64]string{}
	for i, seed := range seeds {
		if ids[i] == "" {
			t.Fatalf("seed %d: no job id", seed)
		}
		byseed[seed] = ids[i]
	}

	// Cancel the blocking job through the API.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+byseed[seedCancel], nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d, want 202", resp.StatusCode)
	}

	for seed, id := range byseed {
		st := waitTerminal(t, d, id)
		switch seed {
		case seedPanic:
			if st != StateFailed {
				t.Errorf("panic job state %q, want failed", st)
			}
			j, _ := d.Job(id)
			if got := j.Status().Error; !strings.Contains(got, "panicked") {
				t.Errorf("panic job error %q, want mention of panic", got)
			}
		case seedCancel:
			if st != StateCancelled {
				t.Errorf("cancelled job state %q, want cancelled", st)
			}
		default:
			if st != StateDone {
				t.Errorf("job seed %d state %q, want done", seed, st)
				continue
			}
			j, _ := d.Job(id)
			res := j.Result()
			if res == nil || res.HPWL <= 0 {
				t.Errorf("job seed %d: result %+v, want positive HPWL", seed, res)
				continue
			}
			if res.MacroOverlap != 0 {
				t.Errorf("job seed %d: macro overlap %v, want 0 (legal placement)", seed, res.MacroOverlap)
			}
			// The result must also be on disk, crash-safe, and agree.
			data, err := os.ReadFile(filepath.Join(j.Dir, "result.json"))
			if err != nil {
				t.Errorf("job seed %d: result.json: %v", seed, err)
				continue
			}
			var onDisk Result
			if err := json.Unmarshal(data, &onDisk); err != nil {
				t.Errorf("job seed %d: result.json: %v", seed, err)
			} else if onDisk.HPWL != res.HPWL {
				t.Errorf("job seed %d: result.json hpwl %v != %v", seed, onDisk.HPWL, res.HPWL)
			}
		}
	}

	// The event stream of a finished job replays its full history and
	// then ends (terminal state closes the SSE stream).
	resp, err = http.Get(base + "/v1/jobs/" + byseed[11] + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content-type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read events: %v", err)
	}
	var states []string
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d, want dense 1-based", i, ev.Seq)
		}
		if ev.Type == "state" {
			states = append(states, ev.Data)
		}
	}
	if want := []string{"queued", "running", "done"}; !reflect.DeepEqual(states, want) {
		t.Errorf("state events %v, want %v", states, want)
	}

	// List covers all five; unknown ids are 404.
	resp, err = http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list) != len(seeds) {
		t.Errorf("list has %d jobs, want %d", len(list), len(seeds))
	}
	resp, err = http.Get(base + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
}

// TestDaemonQueueFull pins the admission control: with the single
// worker held and the one queue slot taken, the next submission is
// refused with 429 and a Retry-After hint.
func TestDaemonQueueFull(t *testing.T) {
	started := make(chan string, 4)
	gate := make(chan struct{})
	runner := func(ctx context.Context, j *Job) (*Result, error) {
		started <- j.ID
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}
	d, err := NewServer(Config{Workers: 1, QueueCap: 1, Dir: t.TempDir(), RetryAfter: 3 * time.Second, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	if _, resp := postJob(t, base, tinySpec(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	<-started // worker busy, queue empty
	if _, resp := postJob(t, base, tinySpec(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d", resp.StatusCode)
	}
	_, resp := postJob(t, base, tinySpec(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After %q, want 3", ra)
	}

	// Malformed and invalid specs are 400, not enqueued; the error
	// names the offending value. A field the daemon no longer knows
	// (a removed inference-backend selector) is refused loudly rather
	// than silently run on the default path.
	for _, tc := range []struct{ body, want string }{
		{`{"bench":"nope"}`, "nope"},
		{`{"bench":"ibm01","nn_backend":"parallel"}`, `unknown field \"nn_backend\"`},
	} {
		bad, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(bad.Body)
		bad.Body.Close()
		if bad.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", tc.body, bad.StatusCode)
		}
		if !strings.Contains(string(msg), tc.want) {
			t.Errorf("spec %s: error %s does not mention %s", tc.body, msg, tc.want)
		}
	}

	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After drain, admission answers 503 at the scheduler level.
	if _, err := d.Submit(tinySpec(4)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown = %v, want ErrDraining", err)
	}
}

// TestDaemonDrainCheckpoints runs a real flow, waits until the search
// has checkpointed at least once, then drains: the job must land done
// with its result persisted and the crash-safe checkpoint on disk.
func TestDaemonDrainCheckpoints(t *testing.T) {
	d, err := NewServer(Config{Workers: 1, QueueCap: 4, Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	sp := tinySpec(21)
	sp.Gamma = 4
	j, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first search checkpoint (a "progress" event is only
	// appended after SaveSnapshot succeeded).
	deadline := time.After(2 * time.Minute)
	seen := 0
	sawProgress := false
	for !sawProgress {
		evs, more := j.EventsSince(seen)
		seen += len(evs)
		for _, ev := range evs {
			if ev.Type == "progress" {
				sawProgress = true
			}
		}
		if sawProgress || more == nil {
			break
		}
		select {
		case <-more:
		case <-deadline:
			t.Fatal("no progress event within deadline")
		}
	}
	if !sawProgress {
		t.Fatal("job terminated without any progress (checkpoint) event")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("drained job state %q, want done (anytime property)", st)
	}
	res := j.Result()
	if res == nil || res.HPWL <= 0 {
		t.Fatalf("drained job result %+v, want a complete legal placement", res)
	}
	for _, name := range []string{"result.json", "search.ckpt"} {
		if _, err := os.Stat(filepath.Join(j.Dir, name)); err != nil {
			t.Errorf("drained job artifact %s: %v", name, err)
		}
	}
}

// TestDaemonBitIdenticalToDirectRun is the golden seam between the
// daemon and a bare core run: a Workers=1 job through the daemon must
// produce exactly the numbers the same spec produces through core.New
// with Spec.Options — the daemon's progress observers must not perturb
// the search.
func TestDaemonBitIdenticalToDirectRun(t *testing.T) {
	d, err := NewServer(Config{Workers: 1, QueueCap: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		d.Shutdown(ctx)
	}()
	sp := tinySpec(5)
	j, err := d.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, d, j.ID); st != StateDone {
		t.Fatalf("daemon job state %q, want done", st)
	}
	got := j.Result()

	design, err := sp.LoadDesign(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(design, sp.Options())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.PlaceContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if got.HPWL != res.Final.HPWL {
		t.Errorf("daemon HPWL %v != direct %v", got.HPWL, res.Final.HPWL)
	}
	if got.RLHPWL != res.RLFinal.HPWL {
		t.Errorf("daemon RL HPWL %v != direct %v", got.RLHPWL, res.RLFinal.HPWL)
	}
	if got.Explorations != res.Search.Explorations {
		t.Errorf("daemon explorations %d != direct %d", got.Explorations, res.Search.Explorations)
	}
	if !reflect.DeepEqual(got.Anchors, res.Final.Anchors) {
		t.Errorf("daemon anchors %v != direct %v", got.Anchors, res.Final.Anchors)
	}
}
