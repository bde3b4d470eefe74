package fleet

import (
	"sort"
	"sync"
	"time"
)

// WorkerState is a worker's position in the health state machine:
//
//	healthy --missed beats (SuspectAfter)--> suspect
//	suspect --probe ok / fresh beat-------> healthy
//	suspect --probe fails or DeadAfter----> dead
//	dead    --fresh beat------------------> healthy (revived)
//
// Only healthy, non-draining workers receive new jobs; a dead worker's
// in-flight jobs are migrated.
type WorkerState string

const (
	StateHealthy WorkerState = "healthy"
	StateSuspect WorkerState = "suspect"
	StateDead    WorkerState = "dead"
)

// Beat is one worker heartbeat, POSTed to the coordinator's
// /fleet/v1/heartbeat by a placed worker's Heartbeater.
type Beat struct {
	// URL is the worker's advertised base URL (http://host:port).
	URL string `json:"url"`
	// Running / Queued / Draining mirror serve.Server.LoadInfo.
	Running  int  `json:"running"`
	Queued   int  `json:"queued"`
	Draining bool `json:"draining"`
}

// Worker is the coordinator's view of one placed process. All fields
// behind the registry's lock; read through Info.
type Worker struct {
	url string

	state    WorkerState
	lastBeat time.Time
	running  int
	queued   int
	draining bool
	// active counts jobs this coordinator currently has routed to the
	// worker — the load-balancing signal (beats lag; this does not).
	active int
	// order is the registration sequence number, the pick tie-break.
	order int
	// dead is closed when the worker transitions to dead, so a relay
	// blocked on the worker's event stream wakes up immediately instead
	// of waiting out a TCP timeout. Revival allocates a fresh channel.
	dead chan struct{}
}

// URL returns the worker's advertised base URL.
func (w *Worker) URL() string { return w.url }

// WorkerInfo is the wire form of one worker (GET /fleet/v1/workers).
type WorkerInfo struct {
	URL      string      `json:"url"`
	State    WorkerState `json:"state"`
	LastBeat time.Time   `json:"last_beat"`
	Running  int         `json:"running"`
	Queued   int         `json:"queued"`
	Draining bool        `json:"draining"`
	Active   int         `json:"active"`
}

// registry tracks workers and drives the health state machine. Beats
// arrive from HTTP; sweeps run on the coordinator's health ticker with
// an injectable clock and probe so tests are wall-clock-free.
type registry struct {
	mu      sync.Mutex
	workers map[string]*Worker
	nextOrd int
}

func newRegistry() *registry {
	return &registry{workers: make(map[string]*Worker)}
}

// beat registers or revives the worker and refreshes its load view.
func (r *registry) beat(b Beat, now time.Time) *Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[b.URL]
	if !ok {
		w = &Worker{url: b.URL, order: r.nextOrd, dead: make(chan struct{})}
		r.nextOrd++
		r.workers[b.URL] = w
	}
	if w.state == StateDead {
		// Revival: a restarted worker reuses the URL but none of the
		// dead incarnation's state — fresh dead channel, zero active
		// (its jobs were already migrated away).
		w.dead = make(chan struct{})
		w.active = 0
	}
	w.state = StateHealthy
	w.lastBeat = now
	w.running, w.queued, w.draining = b.Running, b.Queued, b.Draining
	return w
}

// sweep advances the health state machine: a healthy worker whose last
// beat is older than suspectAfter becomes suspect and is probed (probe
// true → healthy again); a suspect worker that fails its probe or goes
// deadAfter without a beat becomes dead. probe runs synchronously
// under the caller's deadline discipline — the coordinator passes a
// short-timeout HTTP GET /healthz.
func (r *registry) sweep(now time.Time, suspectAfter, deadAfter time.Duration, probe func(url string) bool) {
	r.mu.Lock()
	var check []*Worker
	for _, w := range r.workers {
		if w.state != StateDead && now.Sub(w.lastBeat) > suspectAfter {
			w.state = StateSuspect
			check = append(check, w)
		}
	}
	r.mu.Unlock()

	for _, w := range check {
		alive := probe != nil && probe(w.url)
		r.mu.Lock()
		if w.state != StateSuspect {
			// A beat raced the probe and already revived it.
			r.mu.Unlock()
			continue
		}
		switch {
		case alive:
			// Reachable but not beating (clock skew, a wedged beat
			// loop): serving traffic is proof of life, but keep the
			// stale lastBeat so continued silence re-suspects it.
			w.state = StateHealthy
		case now.Sub(w.lastBeat) > deadAfter:
			w.state = StateDead
			close(w.dead)
		}
		r.mu.Unlock()
	}
}

// markDead force-transitions a worker the coordinator caught red-handed
// (a broken event stream plus a failed direct probe) without waiting
// for the beat-driven sweep.
func (r *registry) markDead(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w, ok := r.workers[url]; ok && w.state != StateDead {
		w.state = StateDead
		close(w.dead)
	}
}

// pick returns the healthy, non-draining worker with the fewest active
// jobs (ties broken by registration order) and increments its active
// count; nil when no worker qualifies. Callers must release with done.
func (r *registry) pick() *Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *Worker
	for _, w := range r.workers {
		if w.state != StateHealthy || w.draining {
			continue
		}
		if best == nil || w.active < best.active || (w.active == best.active && w.order < best.order) {
			best = w
		}
	}
	if best != nil {
		best.active++
	}
	return best
}

// done releases one active slot taken by pick.
func (r *registry) done(w *Worker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w.active > 0 {
		w.active--
	}
}

// deadCh returns the channel closed when w dies (snapshot under lock:
// revival swaps the channel).
func (r *registry) deadCh(w *Worker) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return w.dead
}

// state returns w's current health state.
func (r *registry) state(w *Worker) WorkerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return w.state
}

// live counts healthy workers (the workers_live gauge).
func (r *registry) live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.workers {
		if w.state == StateHealthy {
			n++
		}
	}
	return n
}

// maxLag returns the oldest healthy-or-suspect worker heartbeat age —
// the heartbeat_lag_seconds gauge; 0 with no live workers.
func (r *registry) maxLag(now time.Time) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lag time.Duration
	for _, w := range r.workers {
		if w.state == StateDead {
			continue
		}
		if d := now.Sub(w.lastBeat); d > lag {
			lag = d
		}
	}
	return lag
}

// infos snapshots every worker in registration order.
func (r *registry) infos() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	ws := make([]*Worker, 0, len(r.workers))
	for _, w := range r.workers {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].order < ws[j].order })
	for _, w := range ws {
		out = append(out, WorkerInfo{
			URL: w.url, State: w.state, LastBeat: w.lastBeat,
			Running: w.running, Queued: w.queued, Draining: w.draining,
			Active: w.active,
		})
	}
	return out
}
