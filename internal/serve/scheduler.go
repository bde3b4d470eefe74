// Package serve is the placement-as-a-service layer: a bounded FIFO
// job queue drained by a fixed worker pool (Scheduler), a job model
// whose specs name a generated benchmark or an uploaded Bookshelf
// netlist (Spec, Job), an HTTP API over both (Server, cmd/placed), and
// the signal plumbing the CLIs share (Signals).
//
// The scheduler is deliberately generic — a task is just a closure —
// so the experiments sweep reuses it for cross-benchmark parallelism
// while the daemon layers the job lifecycle on top. Every task runs
// with panic isolation: a panicking task is recovered on the worker,
// reported through its OnPanic hook, and the pool keeps draining the
// queue — one crashing job never takes down its siblings or the
// process.
//
// DESIGN.md §10 documents the queue semantics, admission control, and
// the drain state machine.
package serve

import (
	"errors"
	"sync"
)

// ErrQueueFull is returned by Submit when the bounded queue has no
// room; HTTP admission maps it to 429 with a Retry-After hint.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is returned by Submit once Drain has begun; HTTP
// admission maps it to 503.
var ErrDraining = errors.New("serve: scheduler draining")

// Pool is the queue/placement policy behind a Server, split out so the
// daemon's job lifecycle composes with more than one execution
// backend: Scheduler is the local bounded-FIFO/fixed-worker policy the
// standalone daemon uses, while the fleet coordinator substitutes an
// elastic dispatch pool whose "workers" are remote placed processes.
// Submit must never block (admission control over backpressure) and
// returns ErrQueueFull / ErrDraining on refusal; Drain stops admission
// and waits for everything already admitted to finish.
type Pool interface {
	Submit(Task) error
	QueueLen() int
	Wait()
	Drain()
}

// Task is one unit of queued work.
type Task struct {
	// Run executes the task on a pool worker.
	Run func()
	// OnPanic, when set, receives the recovered value if Run panics.
	// It runs on the worker goroutine after recovery; the pool itself
	// always survives the panic.
	OnPanic func(v any)
}

// Scheduler is a bounded FIFO queue drained by a fixed worker pool.
// Construct with NewScheduler; Submit never blocks (admission control
// instead of backpressure-by-blocking); Drain stops admission and
// waits for everything already admitted to finish.
type Scheduler struct {
	queue chan Task
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool

	// tasks counts admitted-but-unfinished tasks (queued + running),
	// so Drain can wait for completion rather than mere dequeueing.
	tasks sync.WaitGroup
}

// NewScheduler starts a pool of workers draining a FIFO queue that
// admits at most queueCap waiting tasks (tasks being run by a worker
// no longer occupy queue slots). workers and queueCap are clamped to
// at least 1.
func NewScheduler(workers, queueCap int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	s := &Scheduler{queue: make(chan Task, queueCap)}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Submit enqueues t, returning ErrQueueFull when the queue is at
// capacity and ErrDraining once Drain has begun. It never blocks.
func (s *Scheduler) Submit(t Task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	// Count the task before a worker can see it: a worker that runs it
	// at once must not mark it done before it was added.
	s.tasks.Add(1)
	select {
	case s.queue <- t:
		obsQueueDepth.Set(float64(len(s.queue)))
		return nil
	default:
		s.tasks.Done()
		obsRejected.Inc()
		return ErrQueueFull
	}
}

// QueueLen reports the number of tasks waiting in the queue (running
// tasks excluded).
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Wait blocks until every task admitted so far has finished. Unlike
// Drain it leaves admission open — the experiments sweep uses it as a
// barrier between table sections.
func (s *Scheduler) Wait() { s.tasks.Wait() }

// Drain stops admission (Submit returns ErrDraining from now on),
// waits for every queued and running task to finish, and stops the
// workers. It is idempotent; concurrent calls all block until the
// drain completes.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		obsQueueDepth.Set(float64(len(s.queue)))
		s.runOne(t)
		s.tasks.Done()
	}
}

// runOne executes one task with panic isolation: the recover here is
// the backstop guaranteeing the pool survives any task, on top of
// whatever recovery the task itself layers inside Run.
func (s *Scheduler) runOne(t Task) {
	defer func() {
		if v := recover(); v != nil {
			obsTaskPanics.Inc()
			if t.OnPanic != nil {
				t.OnPanic(v)
			}
		}
	}()
	t.Run()
}
