package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"macroplace/internal/atomicio"
	"macroplace/internal/eco"
	"macroplace/internal/lefdef"
	"macroplace/internal/mcts"
	"macroplace/internal/portfolio"
)

// ErrCancelled is the cancellation cause installed by a client DELETE;
// the job ends in StateCancelled (with its best-so-far result attached
// when the flow was already running).
var ErrCancelled = errors.New("serve: job cancelled by client")

// errDrainJob is the cancellation cause used during Drain: a running
// job commits its best-so-far placement (checkpointed along the way)
// and still counts as done, just interrupted — "finish or checkpoint".
var errDrainJob = errors.New("serve: daemon draining")

// errJobDone is the benign cancellation cause installed once a job is
// terminal: the job's context must not outlive the job, or every
// completed job pins a child of the daemon's base context until
// shutdown (and a DELETE after completion would flip the recorded
// cause). runJob distinguishes real causes from this one by ordering —
// it is only ever installed after the terminal transition.
var errJobDone = errors.New("serve: job finished")

// Config tunes a daemon Server. The zero value serves one worker, an
// 8-deep queue, and stages job artifacts under the OS temp directory.
type Config struct {
	// Workers is the job worker pool size (default 1).
	Workers int
	// QueueCap bounds the FIFO queue; a submit beyond it is refused
	// with 429 (default 8).
	QueueCap int
	// Dir is the root of per-job working directories — result.json and
	// search.ckpt land in Dir/<job-id>/ (default: a fresh temp dir).
	Dir string
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// Logf receives daemon diagnostics (nil discards).
	Logf func(format string, args ...any)
	// Runner overrides how a job's flow executes — tests inject faults
	// here, and the fleet coordinator routes jobs to remote workers.
	// nil selects RunSpec, the production runner.
	Runner func(ctx context.Context, j *Job) (*Result, error)
	// Pool overrides the queue/placement policy. nil selects
	// NewScheduler(Workers, QueueCap), the local bounded-FIFO pool; the
	// fleet coordinator injects an elastic dispatch pool instead.
	Pool Pool
}

func (c Config) normalize() (Config, error) {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueCap < 1 {
		c.QueueCap = 8
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Dir == "" {
		dir, err := os.MkdirTemp("", "placed-jobs-")
		if err != nil {
			return c, fmt.Errorf("serve: job dir: %w", err)
		}
		c.Dir = dir
	} else if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return c, fmt.Errorf("serve: job dir: %w", err)
	}
	if c.Runner == nil {
		c.Runner = RunSpec
	}
	return c, nil
}

// Server is the placement job daemon: admission control in front of a
// Scheduler, the job table, and the HTTP API (Handler / Start).
type Server struct {
	cfg   Config
	sched Pool

	base      context.Context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	draining bool

	httpSrv *http.Server
	ln      net.Listener
}

// NewServer builds a daemon from cfg and starts its worker pool. Call
// Shutdown (or at least Drain) before discarding it.
func NewServer(cfg Config) (*Server, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	base, cancel := context.WithCancel(context.Background())
	pool := cfg.Pool
	if pool == nil {
		pool = NewScheduler(cfg.Workers, cfg.QueueCap)
	}
	return &Server{
		cfg:       cfg,
		sched:     pool,
		base:      base,
		cancelAll: cancel,
		jobs:      make(map[string]*Job),
	}, nil
}

// Dir returns the root of the per-job working directories.
func (d *Server) Dir() string { return d.cfg.Dir }

func (d *Server) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Submit validates and admits a job. ErrQueueFull and ErrDraining
// report admission refusals; anything else is a spec error.
func (d *Server) Submit(spec Spec) (*Job, error) {
	j, _, err := d.admit(spec)
	return j, err
}

// admit is Submit that also returns the job's status as admitted
// (state queued), taken before a worker can pick the job up — the
// submit reply describes the admission, not a race with the pool.
func (d *Server) admit(spec Spec) (*Job, Status, error) {
	if err := spec.Validate(); err != nil {
		return nil, Status{}, err
	}
	// Resolve an ECO prior-job reference against the job table now:
	// a dangling reference is a spec error the client should see at
	// submission, not a late run-time failure.
	var priorDir string
	if spec.Eco != nil && spec.Eco.PriorJob != "" {
		pj, ok := d.Job(spec.Eco.PriorJob)
		if !ok {
			return nil, Status{}, fmt.Errorf("serve: eco prior job %q unknown", spec.Eco.PriorJob)
		}
		priorDir = pj.Dir
	}
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		obsRejected.Inc()
		return nil, Status{}, ErrDraining
	}
	d.nextID++
	id := fmt.Sprintf("job-%06d", d.nextID)
	ctx, cancel := context.WithCancelCause(d.base)
	j := &Job{
		ID:       id,
		Spec:     spec,
		Dir:      filepath.Join(d.cfg.Dir, id),
		priorDir: priorDir,
		ctx:      ctx,
		cancel:   cancel,
		state:    StateQueued,
		created:  time.Now(),
	}
	d.jobs[id] = j
	d.order = append(d.order, id)
	d.mu.Unlock()

	// The "queued" event lands before the task is handed to the pool,
	// so a worker's "running" transition can never precede it.
	j.AppendEvent("state", string(StateQueued))
	st := j.Status()
	err := d.sched.Submit(Task{
		Run: func() { d.runJob(ctx, j) },
		// The scheduler-level recover is a backstop; runJob recovers
		// first and records the failure on the job itself.
		OnPanic: func(v any) { d.logf("job %s escaped panic: %v", j.ID, v) },
	})
	if err != nil {
		cancel(err)
		d.mu.Lock()
		delete(d.jobs, id)
		// Concurrent submits may have appended behind this id — remove
		// it by value, and never reuse the id (nextID stays monotonic).
		for i, oid := range d.order {
			if oid == id {
				d.order = append(d.order[:i], d.order[i+1:]...)
				break
			}
		}
		d.mu.Unlock()
		return nil, Status{}, err
	}
	obsSubmitted.Inc()
	d.logf("job %s admitted (%s)", id, describeSpec(spec))
	return j, st, nil
}

// Job looks up a job by id.
func (d *Server) Job(id string) (*Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	return j, ok
}

// Jobs returns every job in admission order.
func (d *Server) Jobs() []*Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Job, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.jobs[id])
	}
	return out
}

// LoadInfo snapshots the daemon's load for heartbeats: jobs currently
// running, jobs admitted but not yet started, and whether the daemon
// is draining (a draining worker accepts no new jobs but still
// checkpoints the ones it has — the fleet migrates them away).
func (d *Server) LoadInfo() (running, queued int, draining bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, j := range d.jobs {
		switch j.State() {
		case StateRunning:
			running++
		case StateQueued:
			queued++
		}
	}
	return running, queued, d.draining
}

// Cancel cancels the job with the given id (queued or running).
func (d *Server) Cancel(id string) bool {
	j, ok := d.Job(id)
	if !ok {
		return false
	}
	j.Cancel(ErrCancelled)
	return true
}

// Drain stops admitting jobs, cancels queued jobs, interrupts running
// flows so they commit (and checkpoint) their best-so-far placements,
// and waits for the pool to empty — bounded by ctx, after which it
// returns ctx's error with jobs possibly still winding down.
func (d *Server) Drain(ctx context.Context) error {
	d.mu.Lock()
	already := d.draining
	d.draining = true
	jobs := make([]*Job, 0, len(d.order))
	for _, id := range d.order {
		jobs = append(jobs, d.jobs[id])
	}
	d.mu.Unlock()
	if !already {
		d.logf("draining: %d job(s) known, %d queued", len(jobs), d.sched.QueueLen())
		for _, j := range jobs {
			j.Cancel(errDrainJob)
		}
	}
	done := make(chan struct{})
	go func() { d.sched.Drain(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runJob is the worker-side job lifecycle: skip-if-cancelled, state
// transitions, panic containment, artifact persistence, metrics.
func (d *Server) runJob(ctx context.Context, j *Job) {
	// Release the job's context once the job is terminal: a completed
	// job must not pin a live child of the daemon's base context, and a
	// late DELETE must not install ErrCancelled over the real outcome.
	// WithCancelCause keeps the FIRST cause, so this deferred call is a
	// no-op whenever a real cancellation already happened.
	defer j.cancel(errJobDone)
	obsQueueWait.Observe(time.Since(j.Status().Created).Seconds())
	if ctx.Err() != nil {
		// Cancelled (client or drain) before a worker picked it up.
		if j.setState(StateCancelled) {
			obsCancelled.Inc()
		}
		return
	}
	if !j.setState(StateRunning) {
		return
	}
	obsRunning.Add(1)
	defer obsRunning.Add(-1)
	start := time.Now()

	res, err := func() (res *Result, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("serve: job panicked: %v", v)
			}
		}()
		return d.cfg.Runner(ctx, j)
	}()
	obsJobSeconds.Observe(time.Since(start).Seconds())

	switch cause := context.Cause(ctx); {
	case err != nil:
		d.failJob(j, err)
	case errors.Is(cause, ErrCancelled):
		d.finishJob(j, res, StateCancelled)
		obsCancelled.Inc()
	default:
		// Includes the drain cause: the flow committed its best-so-far
		// placement, so the job is done (marked interrupted in Result).
		d.finishJob(j, res, StateDone)
		obsCompleted.Inc()
	}
}

func (d *Server) failJob(j *Job, err error) {
	j.mu.Lock()
	j.err = err.Error()
	j.mu.Unlock()
	j.AppendEvent("error", err.Error())
	j.setState(StateFailed)
	obsFailed.Inc()
	d.logf("job %s failed: %v", j.ID, err)
}

// finishJob persists the result crash-safely and lands the terminal
// state. A nil result (a Runner that opted out) still terminates.
func (d *Server) finishJob(j *Job, res *Result, final State) {
	if res != nil {
		if err := WriteResult(filepath.Join(j.Dir, "result.json"), res); err != nil {
			d.failJob(j, err)
			return
		}
		j.mu.Lock()
		j.result = res
		j.mu.Unlock()
	}
	j.setState(final)
	if res != nil {
		d.logf("job %s %s: hpwl=%.6g interrupted=%v", j.ID, final, res.HPWL, res.Interrupted)
	} else {
		d.logf("job %s %s", j.ID, final)
	}
}

// WriteResult atomically persists a job result as indented JSON.
func WriteResult(path string, res *Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: marshal result: %w", err)
	}
	return atomicio.WriteFileBytes(path, append(data, '\n'))
}

// RunSpec is the production job runner: it runs the job's own spec
// through RunSpecAs.
func RunSpec(ctx context.Context, j *Job) (*Result, error) {
	return RunSpecAs(ctx, j, j.Spec)
}

// RunSpecAs runs spec against j's working directory and event stream
// instead of j.Spec. The fleet coordinator's local-fallback rung uses
// it to run the job in-process with FreshRoot forced and the migrated
// resume snapshot attached, without mutating the admitted (client-
// visible) spec under concurrent Status readers.
//
// It materialises the design, resolves an ECO prior_job reference to
// the referenced job's persisted placement, and hands both to
// RunDesign with the job's event log as the event sink and
// search.ckpt as the per-commit crash-safe checkpoint. From the
// returned value it persists the job's artifacts: placement.json (so
// a later ECO job can chain from this one), race.json for race jobs,
// and placed.def for inline LEF/DEF designs. Apart from race.json the
// artifacts are best-effort: a write failure must not fail a finished
// placement.
func RunSpecAs(ctx context.Context, j *Job, spec Spec) (*Result, error) {
	if err := os.MkdirAll(j.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job dir: %w", err)
	}
	if es := spec.Eco; es != nil && es.PriorJob != "" && j.priorDir != "" {
		macros, err := eco.ReadPlacementWire(filepath.Join(j.priorDir, "placement.json"))
		if err != nil {
			return nil, fmt.Errorf("serve: eco prior job %q has no usable placement: %w", es.PriorJob, err)
		}
		inline := *es
		inline.PriorJob, inline.Prior = "", macros
		spec.Eco = &inline
	}
	design, doc, _, err := spec.LoadDesignDoc(j.Dir)
	if err != nil {
		return nil, err
	}
	var incumbents []json.RawMessage
	ckpt := filepath.Join(j.Dir, "search.ckpt")
	res, placed, err := RunDesign(ctx, spec, design, Sinks{
		Event: func(typ, data string) {
			if typ == "incumbent" {
				incumbents = append(incumbents, json.RawMessage(data))
			}
			j.AppendEvent(typ, data)
		},
		Snapshot: func(sn mcts.Snapshot) error { return mcts.SaveSnapshot(ckpt, sn) },
	})
	if err != nil {
		return nil, err
	}
	if len(spec.Race) > 0 {
		if err := writeRaceBoard(filepath.Join(j.Dir, "race.json"), res, incumbents); err != nil {
			return nil, err
		}
	}
	if err := eco.WritePlacement(filepath.Join(j.Dir, "placement.json"), placed); err == nil {
		j.AppendEvent("stage", "placement persisted")
	}
	if doc != nil && lefdef.WritePlacedDEF(filepath.Join(j.Dir, "placed.def"), doc, placed) == nil {
		j.AppendEvent("stage", "placed.def persisted")
	}
	return res, nil
}

// raceBoard is the disk form of a race leaderboard (race.json): the
// winner, every backend's outcome in spec order, and the cross-backend
// incumbent stream (portfolio.Incumbent JSON, as the events carry it).
type raceBoard struct {
	Winner     string              `json:"winner"`
	Outcomes   []portfolio.Outcome `json:"outcomes"`
	Incumbents []json.RawMessage   `json:"incumbents"`
}

// writeRaceBoard atomically persists the race leaderboard.
func writeRaceBoard(path string, res *Result, incumbents []json.RawMessage) error {
	data, err := json.MarshalIndent(raceBoard{
		Winner:     res.Winner,
		Outcomes:   res.Backends,
		Incumbents: incumbents,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: marshal race board: %w", err)
	}
	return atomicio.WriteFileBytes(path, append(data, '\n'))
}

func describeSpec(sp Spec) string {
	desc := fmt.Sprintf("bookshelf upload, %d file(s)", len(sp.Bookshelf))
	if sp.DEF != "" {
		desc = fmt.Sprintf("lef/def upload, %d+%d bytes", len(sp.LEF), len(sp.DEF))
	}
	if sp.Bench != "" {
		desc = fmt.Sprintf("bench=%s", sp.Bench)
	}
	if sp.Eco != nil {
		if sp.Eco.PriorJob != "" {
			return fmt.Sprintf("eco from %s, %s", sp.Eco.PriorJob, desc)
		}
		return "eco, " + desc
	}
	return desc
}
