package serve

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"macroplace/internal/agent"
	"macroplace/internal/core"
	"macroplace/internal/eco"
	"macroplace/internal/gen"
	"macroplace/internal/geom"
	"macroplace/internal/lefdef"
	"macroplace/internal/mcts"
	"macroplace/internal/netlist"
	"macroplace/internal/netlist/bookshelf"
	"macroplace/internal/portfolio"
)

// Spec is the description of one placement job: the design (a
// generated benchmark by name, or an uploaded Bookshelf netlist or
// LEF/DEF pair inline) plus the core/MCTS options. It is the one job
// model: daemon clients submit it as JSON and cmd/mctsplace fills it
// from its flags, and both run it through RunDesign. Zero fields
// select the flow job's defaults (portfolio.Options.Flow); Workers
// defaults to 1 (one search worker, deterministic), so a shared daemon
// never lets one job grab the machine by default.
type Spec struct {
	// Bench names a synthetic benchmark (ibm01..ibm18, cir1..cir6).
	// Mutually exclusive with Bookshelf.
	Bench string `json:"bench,omitempty"`
	// Scale is the synthetic benchmark scale (1 = paper-sized).
	Scale float64 `json:"scale,omitempty"`
	// Bookshelf uploads a netlist inline: base file name → content.
	// Exactly one entry must end in .aux; the daemon stages the files
	// in the job's working directory and parses them from there.
	Bookshelf map[string]string `json:"bookshelf,omitempty"`
	// LEF and DEF upload a real design inline as LEF (sites, layers,
	// macro geometry) plus DEF (die area, rows, components, pins,
	// nets) text. Both must be set together; mutually exclusive with
	// Bench and Bookshelf. The job stages both files in its working
	// directory, and the placed design is emitted back as DEF
	// (placed.def, served on GET /v1/jobs/{id}/def).
	LEF string `json:"lef,omitempty"`
	DEF string `json:"def,omitempty"`

	// Phys carries the physical-legality constraints (per-macro halos,
	// minimum channels, fence region, snap lattice) applied to the
	// materialised design. Works for every job class and design source;
	// on a LEF/DEF design the knobs overlay the DEF-derived row
	// geometry. Validated hard at admission (non-finite, negative, and
	// inverted values are refused; the fence is checked against the
	// DEF die area when one is inline).
	Phys *netlist.Constraints `json:"phys,omitempty"`
	// Snap derives the macro snap lattice from the DEF's TRACKS
	// statements (site/row fallback) for the axes Phys leaves unset.
	// Requires an inline DEF design.
	Snap bool `json:"snap,omitempty"`

	Seed      int64 `json:"seed,omitempty"`
	Zeta      int   `json:"zeta,omitempty"`
	Episodes  int   `json:"episodes,omitempty"`
	Gamma     int   `json:"gamma,omitempty"`
	Workers   int   `json:"workers,omitempty"`
	Channels  int   `json:"channels,omitempty"`
	ResBlocks int   `json:"resblocks,omitempty"`

	// Race selects the portfolio-race job class: the named backends
	// (internal/portfolio registry) run concurrently on the design and
	// the best legal placement wins. Empty selects the single-flow
	// (mcts) job class.
	Race []string `json:"race,omitempty"`
	// Effort scales every raced backend's budget (0 = full budget,
	// matching portfolio.Options semantics). Episodes/Gamma, when set,
	// still override the mcts backend's scaled defaults. Validate
	// refuses it on a flow or ECO job, whose budgets it would not scale.
	Effort float64 `json:"effort,omitempty"`
	// RaceDeadlineMS bounds the whole race in milliseconds (0: none);
	// backends still running at the deadline commit their anytime
	// incumbents.
	RaceDeadlineMS int64 `json:"race_deadline_ms,omitempty"`
	// RaceGraceMS, when positive, cancels the backends still running
	// that long after the first finisher (dominated-loser pruning).
	// 0 keeps the race deterministic: every backend runs to completion.
	RaceGraceMS int64 `json:"race_grace_ms,omitempty"`

	// FreshRoot makes the search discard its subtree after every commit
	// step, so a resume from any checkpoint is bit-identical to the
	// uninterrupted run (mcts.Config.FreshRoot). The fleet coordinator
	// forces it on so migrated jobs land the same answer they would have
	// without the failure.
	FreshRoot bool `json:"fresh_root,omitempty"`
	// Resume, when set, restarts the search stage from this checkpoint
	// instead of from scratch — the migration path: the fleet fetches a
	// dead worker's search.ckpt and re-submits the job elsewhere with
	// the snapshot inline. It is validated cheaply here and fully
	// (legality replay against the materialised design) by RunSpec.
	// Mutually exclusive with Race.
	Resume *mcts.Snapshot `json:"resume,omitempty"`

	// Eco selects the ECO incremental re-placement job class: instead
	// of a from-scratch flow, a short budgeted local-move search
	// re-places the design starting from a prior placement under a
	// netlist delta, reusing warm per-design state (trained agent +
	// eval cache) across jobs on the same daemon. Mutually exclusive
	// with Race and Resume.
	Eco *EcoSpec `json:"eco,omitempty"`
}

// EcoSpec describes one ECO job: where the prior placement comes from,
// the netlist delta to re-place under, and the search budget.
type EcoSpec struct {
	// PriorJob references an earlier job on the same daemon whose
	// persisted placement.json provides the prior placement. The
	// daemon rejects dangling references at submission; the job fails
	// at run time if the referenced job has not (yet) produced a
	// placement. Mutually exclusive with Prior.
	PriorJob string `json:"prior_job,omitempty"`
	// Prior supplies the prior placement inline: movable-macro name →
	// placed center [x, y]. Mutually exclusive with PriorJob.
	Prior map[string][2]float64 `json:"prior,omitempty"`
	// Delta is the netlist change to re-place under. Nil (or empty)
	// re-places the unchanged design from the prior.
	Delta *eco.Delta `json:"delta,omitempty"`
	// Moves is the local-move probe budget (0: eco.DefaultMoves).
	Moves int `json:"moves,omitempty"`
	// Effort scales Moves (0 = 1.0), mirroring the race job class's
	// budget knob.
	Effort float64 `json:"effort,omitempty"`
	// Retrain forces training even when warm state exists and
	// retargets the warm entry's cache to the new weights.
	Retrain bool `json:"retrain,omitempty"`
}

// MovesBudget is the effective probe budget after effort scaling.
func (e *EcoSpec) MovesBudget() int {
	moves := e.Moves
	if moves <= 0 {
		moves = eco.DefaultMoves
	}
	if e.Effort > 0 {
		moves = int(float64(moves) * e.Effort)
		if moves < 1 {
			moves = 1
		}
	}
	return moves
}

// normalize fills the defaults of the fields loading, admission and
// the raced baselines read: the scale, and the flow job's seed, ζ and
// tower (portfolio.Options.Flow). cmd/mctsplace's flag defaults are
// the same values.
func (sp Spec) normalize() Spec {
	if sp.Scale <= 0 {
		sp.Scale = 0.05
	}
	f := portfolio.Options{Seed: sp.Seed, Zeta: sp.Zeta, Channels: sp.Channels, ResBlocks: sp.ResBlocks}.Flow()
	sp.Seed, sp.Zeta, sp.Channels, sp.ResBlocks = f.Seed, f.Zeta, f.Agent.Channels, f.Agent.ResBlocks
	return sp
}

// Validate rejects specs the daemon cannot run, before admission. It
// is deliberately paranoid — the spec is the daemon's untrusted input
// surface, so non-finite, negative, and absurdly large numeric fields
// are refused here rather than discovered as hangs or panics later
// (FuzzSpecJSON pins this down).
func (sp Spec) Validate() error {
	sources := 0
	if sp.Bench != "" {
		sources++
	}
	if len(sp.Bookshelf) > 0 {
		sources++
	}
	if sp.LEF != "" || sp.DEF != "" {
		if sp.LEF == "" || sp.DEF == "" {
			return fmt.Errorf("serve: lef and def must be uploaded together")
		}
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("serve: spec needs exactly one of bench, bookshelf, or lef+def (got %d)", sources)
	}
	if sp.Bench != "" && !strings.HasPrefix(sp.Bench, "ibm") && !strings.HasPrefix(sp.Bench, "cir") {
		return fmt.Errorf("serve: unknown benchmark %q (want ibm01..ibm18 or cir1..cir6)", sp.Bench)
	}
	if len(sp.Bookshelf) > 0 {
		aux := 0
		for name := range sp.Bookshelf {
			if name != filepath.Base(name) || name == "." || name == ".." {
				return fmt.Errorf("serve: bookshelf file name %q must be a bare base name", name)
			}
			if strings.HasSuffix(name, ".aux") {
				aux++
			}
		}
		if aux != 1 {
			return fmt.Errorf("serve: bookshelf upload needs exactly one .aux file, got %d", aux)
		}
	}

	if math.IsNaN(sp.Scale) || math.IsInf(sp.Scale, 0) || sp.Scale < 0 || sp.Scale > 100 {
		return fmt.Errorf("serve: scale %v out of range (0, 100]", sp.Scale)
	}
	if math.IsNaN(sp.Effort) || math.IsInf(sp.Effort, 0) || sp.Effort < 0 || sp.Effort > 1000 {
		return fmt.Errorf("serve: effort %v out of range [0, 1000]", sp.Effort)
	}
	if sp.Effort != 0 && len(sp.Race) == 0 {
		return fmt.Errorf("serve: effort scales only a race job's backends (a flow job takes episodes and gamma, an ECO job eco.effort)")
	}
	for _, f := range []struct {
		name string
		val  int
		max  int
	}{
		{"zeta", sp.Zeta, 128},
		{"episodes", sp.Episodes, 1_000_000},
		{"gamma", sp.Gamma, 1_000_000},
		{"workers", sp.Workers, 4096},
		{"channels", sp.Channels, 4096},
		{"resblocks", sp.ResBlocks, 64},
	} {
		if f.val < 0 || f.val > f.max {
			return fmt.Errorf("serve: %s %d out of range [0, %d]", f.name, f.val, f.max)
		}
	}
	// The per-field caps do not bound their product. One
	// position-embedding row is a lower bound: the real count is the
	// design's group count, unknown until the design is clustered.
	n := sp.normalize()
	if err := agent.CheckParams(agent.Config{Zeta: n.Zeta, Channels: n.Channels, ResBlocks: n.ResBlocks, MaxSteps: 1}); err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	if sp.Snap && sp.DEF == "" {
		return fmt.Errorf("serve: snap needs an inline DEF design to derive the lattice from")
	}
	if sp.Phys != nil {
		// Design-independent checks first (non-finite, negative,
		// inverted); with an inline DEF the die area is knowable at
		// admission, so an out-of-die fence is refused here too instead
		// of failing the job at run time.
		region := geom.Rect{}
		if sp.Phys.Fence != nil && sp.DEF != "" {
			doc, err := lefdef.ParseDEF([]byte(sp.DEF), "spec.def")
			if err != nil {
				return fmt.Errorf("serve: inline def: %w", err)
			}
			region = doc.DieArea.Rect(doc.DBU)
		}
		if err := sp.Phys.Validate(region); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}

	const maxMS = 86_400_000 // one day
	if sp.RaceDeadlineMS < 0 || sp.RaceDeadlineMS > maxMS {
		return fmt.Errorf("serve: race_deadline_ms %d out of range [0, %d]", sp.RaceDeadlineMS, maxMS)
	}
	if sp.RaceGraceMS < 0 || sp.RaceGraceMS > maxMS {
		return fmt.Errorf("serve: race_grace_ms %d out of range [0, %d]", sp.RaceGraceMS, maxMS)
	}
	if len(sp.Race) > 16 {
		return fmt.Errorf("serve: race lists %d backends (max 16)", len(sp.Race))
	}
	seen := make(map[string]bool, len(sp.Race))
	for _, name := range sp.Race {
		if _, ok := portfolio.Lookup(name); !ok {
			return fmt.Errorf("serve: unknown race backend %q (have %v)", name, portfolio.Names())
		}
		if seen[name] {
			return fmt.Errorf("serve: race backend %q listed twice", name)
		}
		seen[name] = true
	}

	if sp.Resume != nil {
		if len(sp.Race) > 0 {
			return fmt.Errorf("serve: resume snapshot cannot combine with a race job")
		}
		// Cheap structural sanity before admission; the full legality
		// replay (Snapshot.Check) needs the materialised design and runs
		// in RunSpec. The caps mirror mcts's own snapshot limits.
		sn := sp.Resume
		if len(sn.Committed) > 1_000_000 {
			return fmt.Errorf("serve: resume snapshot commits %d steps (max 1000000)", len(sn.Committed))
		}
		if sn.Explorations < 0 || sn.TerminalEvals < 0 || sn.WorkerPanics < 0 {
			return fmt.Errorf("serve: resume snapshot has negative counters")
		}
		if math.IsNaN(sn.BestWirelength) || math.IsInf(sn.BestWirelength, 0) || sn.BestWirelength < 0 {
			return fmt.Errorf("serve: resume snapshot best wirelength %v is not a finite non-negative number", sn.BestWirelength)
		}
	}

	if e := sp.Eco; e != nil {
		if len(sp.Race) > 0 {
			return fmt.Errorf("serve: eco job cannot combine with a race job")
		}
		if sp.Resume != nil {
			return fmt.Errorf("serve: eco job cannot combine with a resume snapshot")
		}
		switch {
		case e.PriorJob != "" && len(e.Prior) > 0:
			return fmt.Errorf("serve: eco spec has both prior_job and an inline prior")
		case e.PriorJob == "" && len(e.Prior) == 0:
			return fmt.Errorf("serve: eco spec needs prior_job or an inline prior")
		}
		if e.Moves < 0 || e.Moves > 1_000_000 {
			return fmt.Errorf("serve: eco moves %d out of range [0, 1000000]", e.Moves)
		}
		if math.IsNaN(e.Effort) || math.IsInf(e.Effort, 0) || e.Effort < 0 || e.Effort > 1000 {
			return fmt.Errorf("serve: eco effort %v out of range [0, 1000]", e.Effort)
		}
		if len(e.Prior) > 1_000_000 {
			return fmt.Errorf("serve: eco prior lists %d macros (max 1000000)", len(e.Prior))
		}
		if _, err := eco.PriorFromWire(e.Prior); err != nil {
			return err
		}
		if e.Delta != nil {
			if len(e.Delta.AddNets) > 100_000 || len(e.Delta.DropNets) > 100_000 || len(e.Delta.Reweight) > 100_000 {
				return fmt.Errorf("serve: eco delta too large (max 100000 entries per section)")
			}
			// Design-independent structural checks here; the full check
			// (unknown cells/nets) needs the materialised design and runs
			// inside eco.Run's Delta.Apply.
			if err := e.Delta.Validate(nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// Options derives the core options of a flow or ECO job: the flow job
// portfolio.Options.Flow derives from the spec's knobs, with the spec's
// FreshRoot.
func (sp Spec) Options() core.Options {
	opts := sp.PortfolioOptions().Flow()
	opts.MCTS.FreshRoot = sp.FreshRoot
	return opts
}

// PortfolioOptions derives the backend options of a job. Episodes,
// Gamma and Workers stay raw: each backend applies its own Effort-scaled
// defaults (the mcts backend's are the flow job's).
func (sp Spec) PortfolioOptions() portfolio.Options {
	sp = sp.normalize()
	return portfolio.Options{
		Seed:      sp.Seed,
		Zeta:      sp.Zeta,
		Effort:    sp.Effort,
		Workers:   sp.Workers,
		Channels:  sp.Channels,
		ResBlocks: sp.ResBlocks,
		Episodes:  sp.Episodes,
		Gamma:     sp.Gamma,
	}
}

// LoadDesignDoc materialises the spec's design, staging an uploaded
// Bookshelf netlist or LEF/DEF pair under dir first. Constraint knobs
// (Phys, Snap) are applied and validated against the materialised
// region. It keeps the DEF document and LEF library of an inline
// LEF/DEF design (nil for the other sources), which the runners use to
// emit the placed design back as DEF.
func (sp Spec) LoadDesignDoc(dir string) (*netlist.Design, *lefdef.Document, *lefdef.LEF, error) {
	sp = sp.normalize()
	var (
		d   *netlist.Design
		doc *lefdef.Document
		lef *lefdef.LEF
		err error
	)
	switch {
	case sp.LEF != "":
		d, doc, lef, err = sp.loadLEFDEF(dir)
	case len(sp.Bookshelf) > 0:
		d, err = sp.loadBookshelf(dir)
	case strings.HasPrefix(sp.Bench, "ibm"):
		d, err = gen.IBM(sp.Bench, sp.Scale, sp.Seed)
	case strings.HasPrefix(sp.Bench, "cir"):
		d, err = gen.Cir(sp.Bench, sp.Scale, sp.Seed)
	default:
		err = fmt.Errorf("serve: unknown benchmark %q", sp.Bench)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if err := lefdef.ApplyPhys(d, sp.Phys, doc, lef, sp.Snap); err != nil {
		return nil, nil, nil, fmt.Errorf("serve: %w", err)
	}
	return d, doc, lef, nil
}

// loadLEFDEF stages the inline LEF/DEF pair under dir and reads the
// design from there.
func (sp Spec) loadLEFDEF(dir string) (*netlist.Design, *lefdef.Document, *lefdef.LEF, error) {
	stage := filepath.Join(dir, "lefdef")
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("serve: stage lefdef: %w", err)
	}
	lefPath, defPath := filepath.Join(stage, "design.lef"), filepath.Join(stage, "design.def")
	for path, content := range map[string]string{lefPath: sp.LEF, defPath: sp.DEF} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return nil, nil, nil, fmt.Errorf("serve: stage lefdef: %w", err)
		}
	}
	d, doc, lef, err := lefdef.ReadDesign(lefPath, defPath)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: %w", err)
	}
	return d, doc, lef, nil
}

func (sp Spec) loadBookshelf(dir string) (*netlist.Design, error) {
	stage := filepath.Join(dir, "bookshelf")
	if err := os.MkdirAll(stage, 0o755); err != nil {
		return nil, fmt.Errorf("serve: stage bookshelf: %w", err)
	}
	var aux string
	for name, content := range sp.Bookshelf {
		path := filepath.Join(stage, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return nil, fmt.Errorf("serve: stage bookshelf: %w", err)
		}
		if strings.HasSuffix(name, ".aux") {
			aux = path
		}
	}
	return bookshelf.ReadAux(aux)
}

// State is a job's lifecycle position. Transitions are strictly
// forward: queued → running → {done, failed, cancelled}, with
// queued → cancelled when the job is cancelled (or the daemon drains)
// before a worker picks it up.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions can occur.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry of a job's append-only event log, streamed over
// GET /v1/jobs/{id}/events. Seq is 1-based and dense, so a client can
// resume a dropped stream without duplicates.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	// Type is "state" (Data: the new state), "stage" (Data: e.g.
	// "pretrain start" / "pretrain done"), "progress" (Data: "k/n
	// groups committed"), "incumbent" (Data: a portfolio.Incumbent as
	// JSON — race jobs only, strictly decreasing HPWL), or "error".
	Type string `json:"type"`
	Data string `json:"data"`
}

// Result is the outcome of a completed job, persisted crash-safely as
// result.json in the job directory.
type Result struct {
	Design       string  `json:"design"`
	HPWL         float64 `json:"hpwl"`
	RLHPWL       float64 `json:"rl_hpwl"`
	MacroOverlap float64 `json:"macro_overlap"`
	Explorations int     `json:"explorations"`
	Interrupted  bool    `json:"interrupted"`
	Anchors      []int   `json:"anchors,omitempty"`
	WallSeconds  float64 `json:"wall_seconds"`

	// Race-job fields: the winning backend, whether its placement fully
	// converged, and every raced backend's outcome in spec order.
	Winner    string              `json:"winner,omitempty"`
	Converged bool                `json:"converged,omitempty"`
	Backends  []portfolio.Outcome `json:"backends,omitempty"`

	// Fleet-job fields: the worker URL that produced the final result
	// and how many times the job migrated between workers (0 when the
	// first assignment ran it to completion, or when the job never
	// passed through a fleet coordinator).
	Worker     string `json:"worker,omitempty"`
	Migrations int    `json:"migrations,omitempty"`

	// ECO-job fields: whether warm per-design state was reused (no
	// training this run), the evaluation-cache hit/miss deltas (also
	// reported by single-flow jobs, as the search's counts), and the
	// local-move search's probe/commit ledger.
	EcoWarm        bool   `json:"eco_warm,omitempty"`
	CacheHits      uint64 `json:"cache_hits,omitempty"`
	CacheMisses    uint64 `json:"cache_misses,omitempty"`
	MovesProbed    int    `json:"moves_probed,omitempty"`
	MovesCommitted int    `json:"moves_committed,omitempty"`
}

// Job is one admitted placement job. All fields behind mu; read
// through Status / Events / WaitTerminal.
type Job struct {
	ID   string
	Spec Spec
	// Dir is the job's working directory (result/checkpoint files).
	Dir string
	// priorDir is the referenced prior job's working directory for ECO
	// jobs submitted with Spec.Eco.PriorJob — resolved (and checked
	// against dangling references) at Submit time, read by RunSpecAs.
	priorDir string

	// ctx is the job's lifecycle context (a cancel-cause child of the
	// daemon's base); runJob releases it with errJobDone once the job
	// is terminal so completed jobs pin nothing.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	state    State
	err      string
	result   *Result
	events   []Event
	waiters  []chan struct{} // closed on every append/transition
	created  time.Time
	started  time.Time
	finished time.Time
}

// Status is the wire form of a job's current state (GET /v1/jobs/{id}).
type Status struct {
	ID       string    `json:"id"`
	State    State     `json:"state"`
	Spec     Spec      `json:"spec"`
	Error    string    `json:"error,omitempty"`
	Result   *Result   `json:"result,omitempty"`
	Events   int       `json:"events"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, State: j.state, Spec: j.Spec,
		Error: j.err, Result: j.result, Events: len(j.events),
		Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the persisted outcome, nil until the job is done.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Cancel requests cancellation: a queued job is skipped by the worker
// pool; a running job's context is cancelled so the flow commits its
// best-so-far placement and finishes early.
func (j *Job) Cancel(cause error) {
	j.cancel(cause)
}

// notifyLocked wakes every event-stream waiter. Callers hold j.mu.
func (j *Job) notifyLocked() {
	for _, w := range j.waiters {
		close(w)
	}
	j.waiters = j.waiters[:0]
}

// AppendEvent adds one event to the log and wakes streamers. The fleet
// coordinator uses it to splice fleet-level events (worker assignment,
// migration) into the same stream the flow's own stage and progress
// events land in, so a client sees one coherent log.
func (j *Job) AppendEvent(typ, data string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, Event{
		Seq: len(j.events) + 1, Time: time.Now(), Type: typ, Data: data,
	})
	j.notifyLocked()
}

// setState transitions the lifecycle state (appending a "state" event)
// unless the job is already terminal; it reports whether the
// transition happened.
func (j *Job) setState(s State) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = s
	switch s {
	case StateRunning:
		j.started = time.Now()
	case StateDone, StateFailed, StateCancelled:
		j.finished = time.Now()
	}
	j.events = append(j.events, Event{
		Seq: len(j.events) + 1, Time: time.Now(), Type: "state", Data: string(s),
	})
	j.notifyLocked()
	return true
}

// EventsSince returns the events with Seq > after, plus a channel that
// is closed when more arrive (nil when the job is terminal and the
// log is fully consumed — the stream is complete).
func (j *Job) EventsSince(after int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	if after < len(j.events) {
		out = append(out, j.events[after:]...)
	}
	if j.state.Terminal() && after+len(out) >= len(j.events) {
		return out, nil
	}
	w := make(chan struct{})
	j.waiters = append(j.waiters, w)
	return out, w
}

// WaitTerminal blocks until the job reaches a terminal state or ctx
// ends, reporting the final state.
func (j *Job) WaitTerminal(ctx context.Context) (State, error) {
	seen := 0
	for {
		evs, more := j.EventsSince(seen)
		seen += len(evs)
		if more == nil {
			return j.State(), nil
		}
		select {
		case <-more:
		case <-ctx.Done():
			return j.State(), ctx.Err()
		}
	}
}
