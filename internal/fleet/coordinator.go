package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"macroplace/internal/atomicio"
	"macroplace/internal/mcts"
	"macroplace/internal/serve"
)

// errNoWorkers reports a routing attempt with zero live workers while
// local fallback is disabled.
var errNoWorkers = errors.New("fleet: no live workers")

// Config tunes a Coordinator. The zero value is usable: 16 jobs in
// flight, 3s/10s suspect/dead thresholds, 10s RPC timeout with a
// 3-attempt budget, up to 3 migrations per job, and local fallback on.
type Config struct {
	// Dir is the root of per-job working directories (mirrored
	// checkpoints and results land here), as serve.Config.Dir.
	Dir string
	// MaxInflight bounds concurrently routed jobs; a submit beyond it
	// is refused with 429 + Retry-After (default 16).
	MaxInflight int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// SuspectAfter demotes a worker to suspect (and probes it) after
	// that long without a heartbeat (default 3s); DeadAfter declares a
	// silent suspect dead (default 10s). The health ticker runs every
	// SuspectAfter/2.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// RPCTimeout bounds each worker RPC attempt except the long-lived
	// event stream (default 10s); RetryBudget is attempts per RPC
	// (default 3). The retry jitter is seeded with backoffSeed.
	RPCTimeout  time.Duration
	RetryBudget int
	// MigrationBudget bounds how many times one job may migrate before
	// the coordinator gives up and fails it (default 3).
	MigrationBudget int
	// NoLocalRun disables the zero-live-workers degradation rung where
	// the coordinator runs the job in-process; with it set, such jobs
	// fail with errNoWorkers instead.
	NoLocalRun bool
	// Logf receives coordinator diagnostics (nil discards).
	Logf func(format string, args ...any)
	// Client is the HTTP client for worker RPCs (default: no global
	// timeout — per-RPC deadlines come from contexts, and the event
	// stream is long-lived by design).
	Client *http.Client
}

// backoffSeed seeds the coordinator's retry jitter, so a run's retry
// schedule is reproducible.
const backoffSeed = 1

func (c Config) normalize() Config {
	if c.MaxInflight < 1 {
		c.MaxInflight = 16
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.RetryBudget < 1 {
		c.RetryBudget = 3
	}
	if c.MigrationBudget < 1 {
		c.MigrationBudget = 3
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Coordinator fronts a fleet of placed workers behind the single-daemon
// job API: clients submit, watch, and cancel jobs against it exactly as
// against one placed, while it routes each job to the least-loaded
// healthy worker, relays the worker's event stream into the client's,
// mirrors search checkpoints, and migrates jobs off workers that die
// or drain. See the package comment for the degradation ladder.
type Coordinator struct {
	cfg  Config
	srv  *serve.Server
	reg  *registry
	pool *dispatchPool
	bo   *Backoff

	sweepStop chan struct{}
	sweepDone chan struct{}

	httpSrv *http.Server
	ln      net.Listener
}

// New builds a coordinator (wrapping a serve.Server whose Pool and
// Runner are the fleet's) and starts its health sweeper. Call Shutdown
// before discarding it.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.normalize()
	c := &Coordinator{
		cfg:       cfg,
		reg:       newRegistry(),
		pool:      newDispatchPool(cfg.MaxInflight),
		bo:        NewBackoff(backoffSeed),
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	srv, err := serve.NewServer(serve.Config{
		Dir:        cfg.Dir,
		RetryAfter: cfg.RetryAfter,
		Logf:       cfg.Logf,
		Runner:     c.runJob,
		Pool:       c.pool,
	})
	if err != nil {
		return nil, err
	}
	c.srv = srv
	bindGauges(c.reg, time.Now)
	go c.sweeper()
	return c, nil
}

// Server exposes the wrapped job server (job table, Submit, Drain).
func (c *Coordinator) Server() *serve.Server { return c.srv }

// Workers snapshots the registry (GET /fleet/v1/workers).
func (c *Coordinator) Workers() []WorkerInfo { return c.reg.infos() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

func (c *Coordinator) sweeper() {
	defer close(c.sweepDone)
	tick := time.NewTicker(c.cfg.SuspectAfter / 2)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.reg.sweep(time.Now(), c.cfg.SuspectAfter, c.cfg.DeadAfter, c.probe)
		case <-c.sweepStop:
			return
		}
	}
}

// probe asks a suspect worker for proof of life.
func (c *Coordinator) probe(url string) bool {
	timeout := c.cfg.RPCTimeout
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Handler returns the coordinator's HTTP API: the fleet endpoints
//
//	POST /fleet/v1/heartbeat  worker heartbeat (Beat JSON)
//	GET  /fleet/v1/workers    registry snapshot
//
// layered over the complete single-daemon job API (submit, status,
// events, cancel, checkpoint, metrics) of the wrapped serve.Server —
// one endpoint, fleet-or-not.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/v1/heartbeat", c.handleBeat)
	mux.HandleFunc("GET /fleet/v1/workers", c.handleWorkers)
	mux.Handle("/", c.srv.Handler())
	return mux
}

func (c *Coordinator) handleBeat(w http.ResponseWriter, r *http.Request) {
	var b Beat
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		http.Error(w, "decode beat: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !strings.HasPrefix(b.URL, "http://") && !strings.HasPrefix(b.URL, "https://") {
		http.Error(w, fmt.Sprintf("beat url %q is not an http(s) base URL", b.URL), http.StatusBadRequest)
		return
	}
	c.reg.beat(b, time.Now())
	obsBeats.Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintln(w, "{}")
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(c.reg.infos())
}

// Start binds addr and serves the API in a background goroutine.
func (c *Coordinator) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	c.ln = ln
	c.httpSrv = &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = c.httpSrv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address ("" before Start).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Shutdown drains gracefully: stop the health sweeper, drain the job
// layer (in-flight relays forward the cancellation to their workers
// and collect best-so-far results), then close the HTTP listener.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	select {
	case <-c.sweepStop:
	default:
		close(c.sweepStop)
	}
	<-c.sweepDone
	err := c.srv.Shutdown(ctx)
	if c.httpSrv != nil {
		herr := c.httpSrv.Shutdown(ctx)
		if herr != nil {
			_ = c.httpSrv.Close()
		}
		if err == nil {
			err = herr
		}
	}
	return err
}

// outcome classification for one placement attempt on one worker.
type vKind int

const (
	vDone vKind = iota
	vFailed
	vCancelled
	vWorkerLost
)

type outcome struct {
	kind           vKind
	result         *serve.Result
	err            error
	resumeRejected bool
	ckpt           *mcts.Snapshot
}

// runJob is the coordinator's job runner, injected as the wrapped
// serve.Server's Runner: route the job to a healthy worker, relay and
// mirror until it settles, and climb the degradation ladder on every
// failure. FreshRoot is forced on so a migrated (or locally restarted)
// job lands the byte-identical result of an uninterrupted run.
func (c *Coordinator) runJob(ctx context.Context, j *serve.Job) (*serve.Result, error) {
	// The proxy job's working directory holds the mirrored checkpoint
	// and the persisted result; local fallback creates it too, but the
	// remote path needs it first.
	if err := os.MkdirAll(j.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: job dir: %w", err)
	}
	spec := j.Spec
	spec.FreshRoot = true
	resume := spec.Resume
	migrations := 0
	var history []error

	for {
		if ctx.Err() != nil {
			// Cancelled between placements; there is no best-so-far to
			// collect because no worker holds the job right now.
			return nil, nil
		}
		w := c.reg.pick()
		if w == nil {
			if c.cfg.NoLocalRun {
				if len(history) > 0 {
					return nil, errors.Join(append(history, errNoWorkers)...)
				}
				return nil, errNoWorkers
			}
			// Degradation rung: zero live workers — run in-process so
			// the fleet endpoint stays useful as a single daemon.
			obsLocalRuns.Inc()
			j.AppendEvent("fleet", "no live workers; running locally on the coordinator")
			spec.Resume = resume
			res, err := serve.RunSpecAs(ctx, j, spec)
			if res != nil {
				res.Worker = "local"
				res.Migrations = migrations
			}
			return res, err
		}

		spec.Resume = resume
		out := c.runOnWorker(ctx, j, w, spec)
		c.reg.done(w)

		switch out.kind {
		case vDone:
			out.result.Worker = w.URL()
			out.result.Migrations = migrations
			return out.result, nil

		case vCancelled:
			if out.result != nil {
				out.result.Worker = w.URL()
				out.result.Migrations = migrations
			}
			return out.result, nil

		case vFailed:
			if out.resumeRejected && resume != nil {
				// The worker refused our snapshot (design mismatch, a
				// torn mirror): drop it and restart from scratch rather
				// than failing the job — FreshRoot keeps the answer
				// identical either way.
				obsResumeFallbacks.Inc()
				j.AppendEvent("fleet", "worker rejected the resume checkpoint; restarting from scratch")
				history = append(history, out.err)
				resume = nil
				continue
			}
			return nil, out.err

		case vWorkerLost:
			migrations++
			obsMigrations.Inc()
			history = append(history, out.err)
			if migrations > c.cfg.MigrationBudget {
				return nil, fmt.Errorf("fleet: migration budget (%d) exhausted: %w",
					c.cfg.MigrationBudget, errors.Join(history...))
			}
			if out.ckpt != nil {
				resume = out.ckpt
			}
			if resume != nil {
				j.AppendEvent("fleet", fmt.Sprintf(
					"worker %s lost; migrating with checkpoint (%d groups committed)",
					w.URL(), len(resume.Committed)))
			} else {
				obsResumeFallbacks.Inc()
				j.AppendEvent("fleet", fmt.Sprintf(
					"worker %s lost; no usable checkpoint, restarting from scratch", w.URL()))
			}
			c.logf("fleet: job %s migrating off %s (migration %d): %v", j.ID, w.URL(), migrations, out.err)
		}
	}
}

// runOnWorker places the job on w and relays until it settles or the
// worker is lost. It owns the remote job's full lifecycle: submit with
// retry, event relay with seq-dedup and reattach, checkpoint
// mirroring, cancel forwarding, and terminal classification.
func (c *Coordinator) runOnWorker(ctx context.Context, j *serve.Job, w *Worker, spec serve.Spec) outcome {
	rid, err := c.submit(ctx, w, spec)
	if err != nil {
		if isResumeRejection(err) {
			return outcome{kind: vFailed, err: err, resumeRejected: true}
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			return outcome{kind: vFailed, err: err}
		}
		c.reg.markDead(w.URL())
		return outcome{kind: vWorkerLost, err: fmt.Errorf("fleet: submit to %s: %w", w.URL(), err)}
	}
	obsJobsRouted.Inc()
	j.AppendEvent("fleet", fmt.Sprintf("assigned to worker %s as %s", w.URL(), rid))

	// Forward a client cancellation (or coordinator drain) to the
	// worker so the remote flow commits its best-so-far and finishes.
	fwdDone := make(chan struct{})
	defer close(fwdDone)
	go func() {
		select {
		case <-ctx.Done():
			c.forwardCancel(w, rid)
		case <-fwdDone:
		}
	}()

	maxSeen := 0
	var ckpt *mcts.Snapshot
	for {
		streamErr := c.streamEvents(ctx, j, w, rid, &maxSeen, &ckpt)

		st, err := c.fetchStatus(ctx, w, rid)
		if err != nil {
			c.reg.markDead(w.URL())
			return outcome{kind: vWorkerLost, ckpt: ckpt,
				err: fmt.Errorf("fleet: worker %s unreachable after stream break: %w", w.URL(), err)}
		}
		if !st.State.Terminal() {
			if ctx.Err() != nil {
				// Our side is cancelled; the forwarded DELETE makes the
				// remote flow commit its best-so-far. Give it a bounded
				// window to settle so that result isn't thrown away.
				st2, ok := c.awaitRemoteTerminal(w, rid)
				if !ok {
					return outcome{kind: vCancelled}
				}
				st = st2
			} else {
				// Transient stream break (streamErr) with a live worker:
				// reattach — the SSE endpoint replays history and the
				// seq-dedup in relayEvent drops the duplicates.
				_ = streamErr
				continue
			}
		}

		// Drain the tail of the event log the broken stream missed,
		// under its own RPC timeout. Best effort: the terminal status is
		// already in hand, so a failed drain loses only event-log lines.
		rctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
		_ = c.readEvents(rctx, j, w, rid, &maxSeen, &ckpt)
		cancel()

		switch st.State {
		case serve.StateDone:
			if st.Result == nil {
				return outcome{kind: vFailed, err: fmt.Errorf("fleet: worker %s reported done without a result", w.URL())}
			}
			if st.Result.Interrupted && ctx.Err() == nil {
				// The worker drained under us: its flow committed early
				// and checkpointed. Treat as a planned migration — pick
				// up the final checkpoint and finish the job elsewhere.
				if sn := c.fetchCheckpoint(ctx, j, w, rid); sn != nil {
					ckpt = sn
				}
				return outcome{kind: vWorkerLost, ckpt: ckpt,
					err: fmt.Errorf("fleet: worker %s drained mid-job", w.URL())}
			}
			return outcome{kind: vDone, result: st.Result}
		case serve.StateCancelled:
			if ctx.Err() != nil {
				return outcome{kind: vCancelled, result: st.Result}
			}
			return outcome{kind: vFailed, err: fmt.Errorf("fleet: job cancelled on worker %s outside fleet control", w.URL())}
		default: // StateFailed
			err := fmt.Errorf("fleet: job failed on worker %s: %s", w.URL(), st.Error)
			return outcome{kind: vFailed, err: err, resumeRejected: isResumeRejection(errors.New(st.Error))}
		}
	}
}

// submit POSTs the spec to the worker with retry/backoff; 4xx is
// permanent, 429/5xx and transport errors are retried.
func (c *Coordinator) submit(ctx context.Context, w *Worker, spec serve.Spec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", Permanent(err)
	}
	var rid string
	err = Retry(ctx, c.cfg.RetryBudget, c.cfg.RPCTimeout, c.bo, "submit to "+w.URL(), func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.URL()+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			err := fmt.Errorf("worker answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
			if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
				return Permanent(err)
			}
			return err
		}
		var st serve.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		rid = st.ID
		return nil
	})
	return rid, err
}

// streamEvents attaches to the worker job's SSE stream and relays
// every not-yet-seen event into j, mirroring a checkpoint after each
// progress event. Returns nil when the stream completed (remote job
// terminal), an error when it broke. Blocks until one or the other,
// the context ends, or the worker is declared dead.
func (c *Coordinator) streamEvents(ctx context.Context, j *serve.Job, w *Worker, rid string, maxSeen *int, ckpt **mcts.Snapshot) error {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-c.reg.deadCh(w):
			cancel()
		case <-sctx.Done():
		}
	}()
	return c.readEvents(sctx, j, w, rid, maxSeen, ckpt)
}

// readEvents GETs the worker job's SSE event log under ctx and relays
// each event in it (relayEvent). It returns nil when the log ended
// (remote job terminal) and an error when the read broke.
func (c *Coordinator) readEvents(ctx context.Context, j *serve.Job, w *Worker, rid string, maxSeen *int, ckpt **mcts.Snapshot) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.URL()+"/v1/jobs/"+rid+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: event stream answered %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			return fmt.Errorf("fleet: malformed event from %s: %w", w.URL(), err)
		}
		c.relayEvent(ctx, j, w, rid, ev, maxSeen, ckpt)
	}
	return sc.Err()
}

// relayEvent deduplicates by remote sequence number and forwards one
// event into the client-visible job, mirroring checkpoints on
// progress. Remote state transitions are relayed as fleet events —
// the proxy job has its own lifecycle.
func (c *Coordinator) relayEvent(ctx context.Context, j *serve.Job, w *Worker, rid string, ev serve.Event, maxSeen *int, ckpt **mcts.Snapshot) {
	if ev.Seq <= *maxSeen {
		return
	}
	*maxSeen = ev.Seq
	switch ev.Type {
	case "state":
		j.AppendEvent("fleet", "worker job state: "+ev.Data)
	case "progress":
		j.AppendEvent(ev.Type, ev.Data)
		if sn := c.fetchCheckpoint(ctx, j, w, rid); sn != nil {
			*ckpt = sn
		}
	default:
		j.AppendEvent(ev.Type, ev.Data)
	}
}

// fetchCheckpoint mirrors the worker job's current search.ckpt: fetch,
// parse (a corrupt body is dropped — the previous good mirror, if any,
// stays authoritative), persist crash-safely under the coordinator's
// own job dir, and return the parsed snapshot.
func (c *Coordinator) fetchCheckpoint(ctx context.Context, j *serve.Job, w *Worker, rid string) *mcts.Snapshot {
	rctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, w.URL()+"/v1/jobs/"+rid+"/checkpoint", nil)
	if err != nil {
		return nil
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil
	}
	sn, err := mcts.ParseSnapshot(data, w.URL()+"/"+rid)
	if err != nil {
		c.logf("fleet: job %s: corrupt checkpoint from %s dropped: %v", j.ID, w.URL(), err)
		return nil
	}
	if err := atomicio.WriteFileBytes(filepath.Join(j.Dir, "search.ckpt"), data); err != nil {
		c.logf("fleet: job %s: mirror checkpoint: %v", j.ID, err)
	}
	return sn
}

// fetchStatus polls the remote job's status with retry/backoff.
func (c *Coordinator) fetchStatus(ctx context.Context, w *Worker, rid string) (serve.Status, error) {
	var st serve.Status
	err := Retry(ctx, c.cfg.RetryBudget, c.cfg.RPCTimeout, c.bo, "status from "+w.URL(), func(rctx context.Context) error {
		// Status must remain fetchable after ctx is cancelled (to
		// collect the best-so-far result a forwarded DELETE produced),
		// so the attempt deadline stands alone.
		if ctx.Err() != nil {
			var cancel context.CancelFunc
			rctx, cancel = context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
			defer cancel()
		}
		req, err := http.NewRequestWithContext(rctx, http.MethodGet, w.URL()+"/v1/jobs/"+rid, nil)
		if err != nil {
			return Permanent(err)
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			err := fmt.Errorf("worker answered %d", resp.StatusCode)
			if resp.StatusCode == http.StatusNotFound {
				// The worker restarted and lost its job table.
				return Permanent(err)
			}
			return err
		}
		return json.NewDecoder(resp.Body).Decode(&st)
	})
	return st, err
}

// awaitRemoteTerminal polls the remote job after a local cancellation
// until it settles (the forwarded DELETE makes the worker's flow
// commit its best-so-far quickly) or the RPC timeout elapses.
func (c *Coordinator) awaitRemoteTerminal(w *Worker, rid string) (serve.Status, bool) {
	deadline := time.Now().Add(c.cfg.RPCTimeout)
	for {
		st, err := c.fetchStatus(context.Background(), w, rid)
		if err == nil && st.State.Terminal() {
			return st, true
		}
		if err != nil || time.Now().After(deadline) {
			return serve.Status{}, false
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// forwardCancel relays a client DELETE (or coordinator drain) to the
// worker; best-effort, the DELETE is idempotent on the worker side.
func (c *Coordinator) forwardCancel(w *Worker, rid string) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RPCTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, w.URL()+"/v1/jobs/"+rid, nil)
	if err != nil {
		return
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// isResumeRejection recognises a worker's refusal of a resume snapshot
// (serve.RunSpec and Spec.Validate both word it with "resume").
func isResumeRejection(err error) bool {
	return err != nil && strings.Contains(err.Error(), "resume")
}
