package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// size is one workload's problem size and budget.
type size struct {
	scale           float64 // generated-design scale (1: the paper's sizes)
	episodes, gamma int     // RL training episodes; MCTS explorations per step
	// inputs is the number of distinct input sets a run places; later
	// rounds repeat them, and a deterministic workload must then
	// reproduce its results bit for bit. Quality metrics use only the
	// first pass, so they do not depend on how many rounds fit in the
	// time.
	inputs int
}

// params sizes the workloads. defaultParams is what the benchmark
// measures; the smoke test shrinks every size.
type params struct {
	flow, search, ingest, serve size
	warmRepeats                 int // resubmissions of each ECO delta per cycle
	setupReps                   int
}

func defaultParams() params {
	return params{
		flow:        size{scale: 0.02, episodes: 30, gamma: 16, inputs: 2},
		search:      size{scale: 0.05, episodes: 4, gamma: 32, inputs: 2},
		ingest:      size{scale: 0.04, episodes: 10, gamma: 8, inputs: 2},
		serve:       size{scale: 0.02, episodes: 30, gamma: 8, inputs: 2},
		warmRepeats: 6,
		setupReps:   3,
	}
}

// jobResult is one completed job as the benchmark saw it.
type jobResult struct {
	kind string        // the design, or the daemon's job class
	wall time.Duration // what the user waits for, end to end
	hpwl float64       // final full-netlist HPWL
	// rlHPWL is the greedy-RL HPWL at the same training budget (0: the
	// job has none); hpwl_vs_rl compares the search against it.
	rlHPWL float64
	// gpHPWL is the HPWL of the design's initial analytical placement
	// (macros and cells together, overlaps allowed) the flow starts
	// from; hpwl_vs_gp divides by it to take out each generated
	// design's own wirelength scale.
	gpHPWL float64
	// illegal marks a placement whose macro overlap exceeds the
	// conformance tolerance (see overlapExceeds).
	illegal bool
	// quality marks the jobs of the fixed input set the quality
	// metrics are computed over.
	quality      bool
	explorations int
	searchTime   time.Duration // MCTS stage wall time (0: no search)
	counts       counters
}

// counters are per-job layer counts for the traced run.
type counters struct {
	episodes, faults            int
	terminalEvals, workerPanics int
	cacheHits, cacheMisses      uint64
	lefdefBytes                 int64
	ecoJob, ecoWarm             bool
	movesProbed, movesCommitted int
}

// runner executes one workload run and collects what it measured.
type runner struct {
	workload string
	seed     int64
	seconds  time.Duration
	p        params
	ctx      context.Context
	dir      string  // this run's scratch directory
	tr       *tracer // nil in an untraced run

	mu     sync.Mutex
	setups []time.Duration
	jobs   []jobResult // untraced jobs
	traced []jobResult // traced jobs (traced run only)
	// jobsPerSec is the throughput of the untraced jobs.
	jobsPerSec float64
	pairUntr   time.Duration // untraced half of the traced run's pairs
	pairTr     time.Duration // traced half
	refused    int
	illegal    int // placements over the overlap tolerance, traced or not
	attempted  int
	failed     int
}

// jobSeed derives the seed of a round's inputs (design, deltas, flow
// seeds) from the run seed.
func (r *runner) jobSeed(round int) int64 { return r.seed*1000 + int64(round) + 1 }

// setup times f, repeated p.setupReps times; the last repetition's
// state is what the run goes on with.
func (r *runner) setup(f func() error) error {
	for i := 0; i < r.p.setupReps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(start))
	}
	return nil
}

// record counts one attempted job (or check) and reports a failure.
func (r *runner) record(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "%s: %s: FAILED: %v\n", r.workload, what, err)
		return false
	}
	return true
}

// fail reports a failed check on an already counted job.
func (r *runner) fail(what string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	fmt.Fprintf(os.Stderr, "%s: %s: FAILED: %v\n", r.workload, what, err)
}

func (r *runner) addJob(res jobResult, traced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res.illegal {
		r.illegal++
	}
	if traced {
		r.traced = append(r.traced, res)
	} else {
		r.jobs = append(r.jobs, res)
	}
}

// startJob starts a job's clock and its root span; the returned func
// stops both and reports the wall time.
func startJob(jt *jobTrace, root string) func() time.Duration {
	start := time.Now()
	end := jt.begin(root)
	return func() time.Duration {
		end()
		return time.Since(start)
	}
}

// jobFunc runs one job of kind k in round; jt is nil for an untraced
// run of the job. A returned error fails the job.
type jobFunc func(k, round int, jt *jobTrace) (jobResult, error)

// rounds runs one job of every kind per round, for at least q+1 rounds
// and until the run's time is up. Round i places the inputs of round
// i mod q, so every later round repeats an earlier one; a deterministic
// workload must then reproduce its HPWL bit for bit. In a traced run
// every job runs twice, untraced and traced, and a deterministic job's
// traced twin must agree too.
func (r *runner) rounds(kinds []string, q int, deterministic bool, job jobFunc) {
	first := make(map[[2]int]float64)
	var busy time.Duration
	defer func() { r.jobsPerSec = float64(len(r.jobs)) / busy.Seconds() }()
	start := time.Now()
	for round := 0; round <= q || time.Since(start) < r.seconds; round++ {
		if r.ctx.Err() != nil {
			return
		}
		for k, kind := range kinds {
			what := fmt.Sprintf("%s round %d", kind, round)
			// In a traced run the twins alternate which runs first, so
			// warm-up order does not masquerade as tracing overhead.
			var tres jobResult
			var terr error
			traceFirst := r.tr != nil && round%2 == 1
			if traceFirst {
				tres, terr = job(k, round, r.tr.job(fmt.Sprintf("%s/%d", kind, round)))
			}
			res, err := job(k, round, nil)
			if !r.record(what, err) {
				continue
			}
			res.quality = round < q
			r.addJob(res, false)
			busy += res.wall
			key := [2]int{k, round % q}
			if deterministic {
				if want, ok := first[key]; ok {
					r.fail(what+": repeat of round "+fmt.Sprint(round%q), sameBits("workers=1 repeat diverged", want, res.hpwl))
				} else {
					first[key] = res.hpwl
				}
			}
			if r.tr == nil {
				continue
			}
			if !traceFirst {
				tres, terr = job(k, round, r.tr.job(fmt.Sprintf("%s/%d", kind, round)))
			}
			if !r.record(what+" (traced)", terr) {
				continue
			}
			r.addJob(tres, true)
			r.pairUntr += res.wall
			r.pairTr += tres.wall
			if deterministic {
				r.fail(what, sameBits("traced flow diverged from core", res.hpwl, tres.hpwl))
			}
		}
	}
}

// kindWalls groups job walls by kind, kinds in first-seen order.
func kindWalls(jobs []jobResult) ([]string, map[string][]float64) {
	var kinds []string
	walls := make(map[string][]float64)
	for _, j := range jobs {
		if _, ok := walls[j.kind]; !ok {
			kinds = append(kinds, j.kind)
		}
		walls[j.kind] = append(walls[j.kind], j.wall.Seconds())
	}
	return kinds, walls
}

// sample is one printed metric value with its sample count.
type sample struct {
	value float64
	n     int
}

// endToEndMetrics summarises the untraced jobs.
func (r *runner) endToEndMetrics() map[string]sample {
	m := make(map[string]sample)
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	m["setup_s"] = sample{median(setups), len(setups)}

	kinds, walls := kindWalls(r.jobs)
	var sum float64
	meds := make([]float64, 0, len(kinds))
	for _, k := range kinds {
		md := median(walls[k])
		sum += md
		meds = append(meds, md)
	}
	m["wall_s"] = sample{sum, len(r.jobs)}
	m["wall_geomean_s"] = sample{geomean(meds), len(r.jobs)}
	m["jobs_per_s"] = sample{r.jobsPerSec, len(r.jobs)}

	var vsGP, vsRL []float64
	for _, j := range r.jobs {
		if !j.quality {
			continue
		}
		vsGP = append(vsGP, j.hpwl/j.gpHPWL)
		if j.rlHPWL > 0 {
			vsRL = append(vsRL, j.hpwl/j.rlHPWL)
		}
	}
	m["hpwl_vs_gp"] = sample{geomean(vsGP), len(vsGP)}
	m["hpwl_vs_rl"] = sample{geomean(vsRL), len(vsRL)}
	m["peak_rss_mb"] = sample{peakRSSMB(), 1}
	return m
}

// perLayerMetrics derives the layer metrics from the traced jobs'
// spans and counters. Set-up spans are written to the trace file but
// left out here: shares are of job wall time.
func (r *runner) perLayerMetrics() map[string]sample {
	var spans []span
	for _, s := range r.tr.snapshot() {
		if !strings.HasPrefix(s.Job, "setup/") {
			spans = append(spans, s)
		}
	}
	total, self := layerTimes(spans)
	var wall float64
	calls := make(map[string]int)
	items := make(map[string]int)
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End - s.Start
		}
		calls[s.Name]++
		items[s.Name] += s.Items
	}
	n := len(r.traced)
	m := make(map[string]sample)
	share := func(sec float64) float64 { return 100 * sec / wall }
	for name, sp := range selfShares {
		m[name] = sample{share(self[sp]), calls[sp]}
	}
	m["mcts.search_pct"] = sample{share(total["mcts.search"]), calls["mcts.search"]}

	kinds, walls := kindWalls(r.traced)
	var sum float64
	for _, k := range kinds {
		sum += median(walls[k])
	}
	m["trace.job_wall_s"] = sample{sum, n}
	m["trace.overhead_frac"] = sample{r.pairTr.Seconds()/r.pairUntr.Seconds() - 1, n}

	var c counters
	var expl, ecoJobs, ecoWarm int
	var search time.Duration
	for _, j := range r.traced {
		if j.searchTime > 0 {
			expl += j.explorations
			search += j.searchTime
		}
		jc := j.counts
		c.episodes += jc.episodes
		c.faults += jc.faults
		c.terminalEvals += jc.terminalEvals
		c.workerPanics += jc.workerPanics
		c.cacheHits += jc.cacheHits
		c.cacheMisses += jc.cacheMisses
		c.lefdefBytes += jc.lefdefBytes
		c.movesProbed += jc.movesProbed
		c.movesCommitted += jc.movesCommitted
		if jc.ecoJob {
			ecoJobs++
			if jc.ecoWarm {
				ecoWarm++
			}
		}
	}
	perJob := func(v float64) sample { return sample{v / float64(n), n} }
	m["lefdef.bytes"] = perJob(float64(c.lefdefBytes))
	m["core.oracle_calls"] = perJob(float64(calls["core.oracle"]))
	m["rl.episodes"] = perJob(float64(c.episodes))
	m["rl.faults"] = sample{float64(c.faults), n}
	m["agent.infer_calls"] = perJob(float64(calls["agent.infer"]))
	m["agent.infer_items"] = perJob(float64(items["agent.infer"]))
	m["agent.cache_hits"] = perJob(float64(c.cacheHits))
	m["agent.cache_misses"] = perJob(float64(c.cacheMisses))
	m["agent.cache_hit_ratio"] = sample{ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)), n}
	m["mcts.explorations"] = perJob(float64(expl))
	m["mcts.sims_per_s"] = sample{ratio(float64(expl), search.Seconds()), expl}
	m["mcts.terminal_evals"] = perJob(float64(c.terminalEvals))
	m["mcts.worker_panics"] = sample{float64(c.workerPanics), n}
	m["eco.warm_ratio"] = sample{ratio(float64(ecoWarm), float64(ecoJobs)), ecoJobs}
	m["eco.moves_probed"] = perJob(float64(c.movesProbed))
	m["eco.moves_committed"] = perJob(float64(c.movesCommitted))
	m["serve.refused"] = sample{float64(r.refused), r.attempted}
	m["legalize.illegal_frac"] = sample{ratio(float64(r.illegal), float64(len(r.jobs)+len(r.traced))), len(r.jobs) + len(r.traced)}
	return m
}

// ratio is a/b, 0 when b is 0 (nothing of the kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is this process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// kindSummary prints each kind's median and tail latency.
func kindSummary(workload string, jobs []jobResult) []string {
	kinds, walls := kindWalls(jobs)
	lines := make([]string, 0, len(kinds))
	for _, k := range kinds {
		w := walls[k]
		line := fmt.Sprintf("%s.%s.p50_s %.6g s n=%d", workload, k, median(w), len(w))
		if p, ok := tailPercentile(len(w)); ok {
			line += fmt.Sprintf(" p%g_s %.6g s", p, quantile(w, p/100))
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return lines
}
