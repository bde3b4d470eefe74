package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"
)

func deleteJob(t *testing.T, base, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	return resp
}

// TestCancelIdempotent pins the DELETE semantics the fleet coordinator
// leans on when it forwards cancellations to workers that may have
// already finished: the first DELETE on a live job answers 202, every
// DELETE on a terminal job answers 200 with the settled status, and a
// late DELETE never flips a done job into cancelled.
func TestCancelIdempotent(t *testing.T) {
	hold := make(chan struct{})
	runner := func(ctx context.Context, j *Job) (*Result, error) {
		if j.Spec.Seed == 2 {
			select {
			case <-hold:
			case <-ctx.Done():
			}
		}
		if err := os.MkdirAll(j.Dir, 0o755); err != nil {
			return nil, err
		}
		return &Result{Design: "stub", HPWL: 42}, nil
	}
	d, err := NewServer(Config{Workers: 2, QueueCap: 8, Dir: t.TempDir(), Runner: runner})
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

	// A job that completes on its own: DELETE afterwards must be a 200
	// no-op, and the final state must stay done.
	st, _ := postJob(t, base, tinySpec(1))
	if got := waitTerminal(t, d, st.ID); got != StateDone {
		t.Fatalf("job state = %s, want done", got)
	}
	for i := 0; i < 2; i++ {
		if resp := deleteJob(t, base, st.ID); resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE #%d on done job: status %d, want 200", i+1, resp.StatusCode)
		}
	}
	j, _ := d.Job(st.ID)
	if got := j.State(); got != StateDone {
		t.Fatalf("done job flipped to %s by late DELETE", got)
	}

	// A completed job must not pin a live context: the terminal cause
	// is installed by runJob, not left dangling until daemon shutdown —
	// and a late DELETE (above) must not overwrite it.
	if cause := context.Cause(j.ctx); !errors.Is(cause, errJobDone) {
		t.Fatalf("finished job context cause = %v, want errJobDone", cause)
	}

	// A running job: first DELETE answers 202 and cancels; repeats
	// answer 200 once the cancellation lands.
	st2, _ := postJob(t, base, tinySpec(2))
	waitState(t, d, st2.ID, StateRunning)
	if resp := deleteJob(t, base, st2.ID); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE on running job: status %d, want 202", resp.StatusCode)
	}
	if got := waitTerminal(t, d, st2.ID); got != StateCancelled {
		t.Fatalf("cancelled job state = %s, want cancelled", got)
	}
	if resp := deleteJob(t, base, st2.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat DELETE on cancelled job: status %d, want 200", resp.StatusCode)
	}

	if resp := deleteJob(t, base, "job-999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE on unknown job: status %d, want 404", resp.StatusCode)
	}
	close(hold)
}

// TestTerminalJobContextReleased is the regression test for a client
// that polls a job until it is terminal and then finds its context
// still live: runJob must install errJobDone before it publishes the
// terminal state, not after. Each no-op job is watched by spinning on
// State, the tightest client there is; with errJobDone installed after
// the terminal state, 55–92 of these 300 jobs read a live context on a
// 2-CPU host.
func TestTerminalJobContextReleased(t *testing.T) {
	runner := func(ctx context.Context, j *Job) (*Result, error) { return nil, nil }
	d, err := NewServer(Config{Workers: 2, QueueCap: 8, Dir: t.TempDir(), Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := d.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	const jobs = 300
	live := 0
	for i := 0; i < jobs; i++ {
		j, err := d.Submit(tinySpec(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for !j.State().Terminal() {
			// Spin: a client polling as fast as it can.
		}
		if context.Cause(j.ctx) == nil {
			live++
		}
	}
	if live > 0 {
		t.Fatalf("%d of %d jobs read a live context once terminal, want 0", live, jobs)
	}
}

func waitState(t *testing.T, d *Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := d.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st := j.State(); st == want || st.Terminal() {
			if st != want {
				t.Fatalf("job %s reached %s, want %s", id, st, want)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestDrainRacesSubmits runs Drain concurrently with a burst of
// Submits under the race detector: every submit must either be
// admitted (and then reach a terminal state) or be refused with
// ErrDraining/ErrQueueFull — never panic, deadlock, or leave a job
// stuck non-terminal after the drain returns.
func TestDrainRacesSubmits(t *testing.T) {
	runner := func(ctx context.Context, j *Job) (*Result, error) {
		if err := os.MkdirAll(j.Dir, 0o755); err != nil {
			return nil, err
		}
		return &Result{Design: "stub"}, nil
	}
	d, err := NewServer(Config{Workers: 4, QueueCap: 4, Dir: t.TempDir(), Runner: runner})
	if err != nil {
		t.Fatal(err)
	}

	const submitters = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var admitted []string
	start := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				j, err := d.Submit(tinySpec(int64(g*100 + i)))
				switch {
				case err == nil:
					mu.Lock()
					admitted = append(admitted, j.ID)
					mu.Unlock()
				case errors.Is(err, ErrDraining), errors.Is(err, ErrQueueFull):
					// Both are legitimate refusals mid-drain.
				default:
					t.Errorf("submit: unexpected error %v", err)
				}
			}
		}(g)
	}
	var drainErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		drainErr = d.Drain(ctx)
	}()
	close(start)
	wg.Wait()
	if drainErr != nil {
		t.Fatalf("drain: %v", drainErr)
	}

	// Jobs admitted before the drain closed the door may still be
	// winding down their cancelled-before-start path; every one must
	// settle terminal.
	for _, id := range admitted {
		j, ok := d.Job(id)
		if !ok {
			t.Fatalf("admitted job %s vanished", id)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		st, err := j.WaitTerminal(ctx)
		cancel()
		if err != nil {
			t.Fatalf("job %s stuck at %s after drain: %v", id, j.State(), err)
		}
		if !st.Terminal() {
			t.Fatalf("job %s state %s not terminal after drain", id, st)
		}
	}
}
