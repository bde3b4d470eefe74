package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"macroplace/internal/core"
	"macroplace/internal/eco"
	"macroplace/internal/gen"
	"macroplace/internal/gplace"
	"macroplace/internal/netlist"
	"macroplace/internal/rng"
	"macroplace/internal/serve"
)

// Serve job classes.
const (
	kindFull = "full"
	kindCold = "eco_cold"
	kindWarm = "eco_warm"
)

// serveClients is the number of closed-loop clients; the daemon gets
// as many workers, so the load stays within a 2-CPU host.
const serveClients = 2

var errRefused = errors.New("submission refused (queue full)")

// runServe: an in-process daemon on a loopback port, driven over HTTP
// by serveClients closed-loop clients. A client cycle submits one full
// job on a fresh design, two ECO jobs with new deltas against it (cold:
// they train), then resubmits each delta warmRepeats times (warm: the
// daemon's ECO store skips training). Warm ECOs are two orders of
// magnitude faster than cold ones and read the state cold jobs write,
// so serving overhead and the warm path show here.
func runServe(r *runner) error {
	q := r.p.serve.inputs
	designs := make([][]*netlist.Design, serveClients)
	gps := make([][]float64, serveClients)
	var servers []*serve.Server
	err := r.setup(func() error {
		// A cold ECO must find no warm state: start from an empty store,
		// as a fresh daemon process does.
		eco.Default.InvalidateAll()
		srv, err := serve.NewServer(serve.Config{
			Workers:  serveClients,
			QueueCap: 8,
			Dir:      filepath.Join(r.dir, fmt.Sprintf("jobs%d", len(servers))),
		})
		if err != nil {
			return err
		}
		servers = append(servers, srv)
		if _, err := srv.Start("127.0.0.1:0"); err != nil {
			return err
		}
		for c := range designs {
			designs[c] = make([]*netlist.Design, q)
			gps[c] = make([]float64, q)
			for i := range designs[c] {
				d, err := gen.IBM("ibm01", r.p.serve.scale, r.serveSeed(c, i))
				if err != nil {
					return err
				}
				designs[c][i] = d
				// The HPWL the daemon's flow starts from: the design's
				// initial analytical placement.
				gp := d.Clone()
				gplace.InitialPlacement(gp)
				gps[c][i] = gp.HPWL()
			}
		}
		return nil
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, srv := range servers {
			_ = srv.Shutdown(ctx) // every job has finished; nothing to drain
		}
	}()
	if err != nil {
		return err
	}
	base := "http://" + servers[len(servers)-1].Addr()

	first := make([][]float64, serveClients) // first full-job HPWL per client design
	rates := make([]float64, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		first[c] = make([]float64, q)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			cl := &client{base: base, hc: &http.Client{Transport: tr}}
			n := r.serveClient(c, cl, designs[c], gps[c], first[c], start)
			rates[c] = float64(n) / time.Since(start).Seconds()
		}(c)
	}
	wg.Wait()
	// Each client's own rate over its whole cycles, summed: the first
	// client to finish would otherwise leave the other running alone.
	r.jobsPerSec = 0
	for _, rate := range rates {
		r.jobsPerSec += rate
	}

	// A daemon full job must be bit-identical to the library flow run
	// on the same spec (CLI ≡ daemon).
	spec := r.serveSpec(0, 0)
	p, err := core.New(designs[0][0], spec.Options())
	if err == nil {
		var res *core.Result
		if res, err = p.PlaceContext(r.ctx); err == nil {
			err = sameBits("daemon full job vs library run", res.Final.HPWL, first[0][0])
		}
	}
	r.record("library run of the first full job", err)
	return nil
}

// serveSeed is the design (and flow) seed of client c's i-th design.
func (r *runner) serveSeed(c, i int) int64 { return r.jobSeed(c*r.p.serve.inputs + i) }

func (r *runner) serveSpec(c, i int) serve.Spec {
	sz := r.p.serve
	return serve.Spec{Bench: "ibm01", Scale: sz.scale, Seed: r.serveSeed(c, i),
		Episodes: sz.episodes, Gamma: sz.gamma, Workers: 1}
}

// serveClient runs client c's cycles until the run's time is up (at
// least inputs+1 of them, so every design is placed twice and
// the repeat must match) and returns the number of jobs it completed.
// In a traced run odd cycles are traced and repeat the previous cycle's
// design, so each traced cycle has an untraced twin.
func (r *runner) serveClient(c int, cl *client, designs []*netlist.Design, gps, first []float64, start time.Time) int {
	q := len(designs)
	rnd := rng.New(r.jobSeed(1000 + c)).Split("eco-deltas")
	var twin time.Duration // the last untraced cycle's summed latency
	done := 0
	for cycle := 0; cycle <= q || time.Since(start) < r.seconds; cycle++ {
		if r.ctx.Err() != nil {
			return done
		}
		i := cycle % q
		traced := false
		if r.tr != nil {
			i, traced = (cycle/2)%q, cycle%2 == 1
		}
		d := designs[i]
		var cycleWall time.Duration
		what := func(kind string, n int) string { return fmt.Sprintf("client %d cycle %d %s %d", c, cycle, kind, n) }
		job := func(kind string, n int, spec serve.Spec) (served, bool) {
			s, err := cl.do(r.ctx, spec)
			if errors.Is(err, errRefused) {
				r.mu.Lock()
				r.refused++
				r.mu.Unlock()
			}
			if err == nil {
				err = checkHPWL(s.res.HPWL)
			}
			if !r.record(what(kind, n), err) {
				return s, false
			}
			done++
			res := s.res
			out := jobResult{kind: kind, wall: s.end.Sub(s.start), hpwl: res.HPWL, rlHPWL: res.RLHPWL, gpHPWL: gps[i],
				quality: kind == kindFull && cycle < q && r.tr == nil, illegal: overlapExceeds(d, res.MacroOverlap),
				explorations: res.Explorations, searchTime: s.search}
			if spec.Eco != nil {
				out.counts = counters{ecoJob: true, ecoWarm: res.EcoWarm, cacheHits: res.CacheHits,
					cacheMisses: res.CacheMisses, movesProbed: res.MovesProbed, movesCommitted: res.MovesCommitted}
			}
			r.addJob(out, traced)
			cycleWall += out.wall
			if traced {
				r.mu.Lock()
				r.traceServed(what(kind, n), s)
				r.mu.Unlock()
			}
			return s, true
		}

		spec := r.serveSpec(c, i)
		full, ok := job(kindFull, 0, spec)
		if !ok {
			continue
		}
		if first[i] == 0 {
			first[i] = full.res.HPWL
		} else {
			r.fail(what(kindFull, 0), sameBits("repeat of a full job diverged", first[i], full.res.HPWL))
		}
		ecos := make([]serve.Spec, 2)
		cold := make([]float64, len(ecos))
		for k := range ecos {
			ecos[k] = spec
			ecos[k].Eco = &serve.EcoSpec{
				PriorJob: full.st.ID,
				Delta:    ecoDelta(d, rnd, fmt.Sprintf("c%d_%d_%d", c, cycle, k)),
			}
			s, ok := job(kindCold, k, ecos[k])
			if ok && s.res.EcoWarm {
				r.fail(what(kindCold, k), errors.New("a new delta was served warm"))
			}
			cold[k] = s.res.HPWL
		}
		for n := 0; n < r.p.warmRepeats; n++ {
			for k := range ecos {
				s, ok := job(kindWarm, n, ecos[k])
				if !ok {
					continue
				}
				if !s.res.EcoWarm {
					r.fail(what(kindWarm, n), errors.New("a resubmitted delta was not served warm"))
				}
				r.fail(what(kindWarm, n), sameBits("warm ECO vs its cold run", cold[k], s.res.HPWL))
			}
		}
		switch {
		case r.tr == nil:
		case !traced:
			twin = cycleWall
		case twin > 0:
			r.mu.Lock()
			r.pairUntr += twin
			r.pairTr += cycleWall
			r.mu.Unlock()
		}
	}
	return done
}

// traceServed records a daemon job's spans: the client's wait as the
// root, the daemon's queue wait and run time (its own timestamps) as
// children. What the children leave uncovered is serving overhead.
// Callers hold r.mu.
func (r *runner) traceServed(job string, s served) {
	root := r.tr.add(job, 0, "serve.client", s.start, s.end, 0)
	r.tr.add(job, root, "serve.queue", s.st.Created, s.st.Started, 0)
	r.tr.add(job, root, "serve.run", s.st.Started, s.st.Finished, 0)
}

// ecoDelta builds a seeded netlist change on d: four added nets between
// random nodes and four reweighted nets. tag makes the added net names,
// and so the post-delta design, unique: a new delta is always cold.
func ecoDelta(d *netlist.Design, rnd *rng.RNG, tag string) *eco.Delta {
	dl := &eco.Delta{Reweight: make(map[string]float64)}
	for j := 0; j < 4; j++ {
		pins := make([]eco.DeltaPin, 2+rnd.Intn(2))
		for p := range pins {
			pins[p] = eco.DeltaPin{Node: d.Nodes[rnd.Intn(len(d.Nodes))].Name}
		}
		dl.AddNets = append(dl.AddNets, eco.DeltaNet{Name: fmt.Sprintf("bench_%s_%d", tag, j), Weight: 1, Pins: pins})
	}
	for len(dl.Reweight) < 4 {
		dl.Reweight[d.Nets[rnd.Intn(len(d.Nets))].Name] = 2
	}
	return dl
}

// client is one closed-loop daemon client on its own connection.
type client struct {
	base string
	hc   *http.Client
}

// served is one daemon job as its client saw it.
type served struct {
	st         serve.Status
	res        serve.Result
	search     time.Duration // the flow's search stage, from its event stream
	start, end time.Time     // submit → final status read
}

// do submits spec, follows the job's event stream until the daemon
// closes it (the job is terminal), then reads the final status.
func (cl *client) do(ctx context.Context, spec serve.Spec) (served, error) {
	s := served{start: time.Now()}
	body, err := json.Marshal(spec)
	if err != nil {
		return s, err
	}
	var st serve.Status
	if err := cl.call(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &st); err != nil {
		return s, err
	}
	id := st.ID
	if s.search, err = cl.events(ctx, id); err != nil {
		return s, err
	}
	if err := cl.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &s.st); err != nil {
		return s, err
	}
	s.end = time.Now()
	if s.st.State != serve.StateDone || s.st.Result == nil {
		return s, fmt.Errorf("job %s ended %s: %s", id, s.st.State, s.st.Error)
	}
	s.res = *s.st.Result
	return s, nil
}

// call makes one JSON request and decodes the response into out.
func (cl *client) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case want:
		return json.Unmarshal(data, out)
	case http.StatusTooManyRequests:
		return errRefused
	}
	return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
}

// events reads a job's event stream to its end and returns the search
// stage's duration ("search done in …"; 0 for jobs without a search).
func (cl *client) events(ctx context.Context, id string) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	var search time.Duration
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return 0, fmt.Errorf("events %s: %w", id, err)
		}
		if d, ok := strings.CutPrefix(ev.Data, "search done in "); ok && ev.Type == "stage" {
			if search, err = time.ParseDuration(d); err != nil {
				return 0, fmt.Errorf("events %s: %w", id, err)
			}
		}
	}
	return search, sc.Err()
}
