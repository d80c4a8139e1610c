package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// nominalRate is requests per second per client on the 2-core reference
// host; --seconds buys seconds × nominalRate requests per client, so a
// seed fixes the whole request sequence and every count repeats.
const nominalRate = 900

// execEvery: the first request of every block of execEvery executes a
// spec new to the server; the others re-request one of the client's
// earlier specs and are answered from the run ledger.
const execEvery = 10

// serveMix is the serve-mix workload: an in-process cobrad (serve.New,
// Workers = nproc, fresh ledger) on loopback, driven as a closed loop by
// nproc clients with no think time.
type serveMix struct {
	o       options
	clients int
	reqs    [][]mixRequest // per client

	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	hc     *http.Client
}

// mixRequest is one generated request.
type mixRequest struct {
	spec   serve.Spec
	key    string
	body   []byte
	plain  []byte // body of the same spec without artifacts, for re-requests
	exec   bool
	fetch  []string // artifacts to fetch once done
	follow bool     // follow the session's event stream to its end
}

// mixRec is one request as the client saw it.
type mixRec struct {
	req       *mixRequest
	id        string
	err       error
	rejected  bool
	latency   time.Duration
	submit    time.Duration
	status    []time.Duration
	artifact  []time.Duration
	artBytes  int
	sse       int
	info      sessionInfo
	resultRaw []byte // compact JSON
}

// sessionInfo is the part of serve.SessionInfo the client reads; the
// result stays raw so it can be compared byte for byte.
type sessionInfo struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	CreatedAt time.Time       `json:"created_at"`
	StartedAt time.Time       `json:"started_at"`
	DoneAt    time.Time       `json:"done_at"`
	Result    json.RawMessage `json:"result"`
}

func (i sessionInfo) terminal() bool {
	return i.State == "done" || i.State == "failed" || i.State == "cancelled"
}

// mixPass is one timed phase.
type mixPass struct {
	recs               []*mixRec
	cacheHit, cacheMis float64 // build-cache counters scraped after the timed phase
}

func newServeMix(o options) bench {
	return &serveMix{o: o, clients: runtime.NumCPU()}
}

func (s *serveMix) setup() error {
	var err error
	if s.reqs, err = generateMix(s.o.seed, s.clients, s.o.seconds*nominalRate); err != nil {
		return err
	}
	if s.dir, err = os.MkdirTemp(s.o.out, "ledger-"); err != nil {
		return err
	}
	s.srv, err = serve.New(serve.Config{Workers: runtime.NumCPU(), LedgerDir: s.dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.hc = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4 * s.clients, DisableCompression: true},
	}
	resp, err := s.hc.Get(s.base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func (s *serveMix) teardown() {
	if s.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.served
	_ = s.srv.Shutdown(ctx)
	s.hc.CloseIdleConnections()
	os.RemoveAll(s.dir)
	s.hs = nil
}

func (s *serveMix) timed(tr *tracer) (*pass, error) {
	mp := &mixPass{}
	recs := make([][]*mixRec, s.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range s.reqs[c] {
				recs[c] = append(recs[c], s.do(tr, c, i))
			}
		}(c)
	}
	wg.Wait()
	p := &pass{wall: time.Since(t0), detail: mp}
	for _, rs := range recs {
		for _, rec := range rs {
			mp.recs = append(mp.recs, rec)
			p.ops = append(p.ops, rec.latency.Seconds())
			p.attempted++
		}
	}
	mp.cacheHit, mp.cacheMis = s.buildCacheCounters()
	return p, nil
}

// do sends request i of client c and waits until its result and any
// requested artifacts are in hand.
func (s *serveMix) do(tr *tracer, c, i int) *mixRec {
	rq := &s.reqs[c][i]
	rec := &mixRec{req: rq}
	label := fmt.Sprintf("c%d/%d", c, i)
	lane := c + 1
	t0 := time.Now()
	root := tr.begin("request", label, lane, 0)
	defer func() {
		rec.latency = time.Since(t0)
		tr.end(root)
	}()

	id := tr.begin("POST /sessions", label, lane, root)
	ts := time.Now()
	code, body, err := s.call(http.MethodPost, "/sessions", rq.body)
	rec.submit = time.Since(ts)
	tr.end(id)
	if err == nil && code != http.StatusAccepted {
		rec.rejected = code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable
		err = fmt.Errorf("POST /sessions: status %d: %s", code, bytes.TrimSpace(body))
	}
	if err == nil {
		err = json.Unmarshal(body, &rec.info)
	}
	if err != nil {
		rec.err = err
		return rec
	}
	rec.id = rec.info.ID
	if rq.follow {
		id := tr.begin("GET events", label, lane, root)
		rec.sse, err = s.follow(rec.id)
		tr.end(id)
		if err != nil {
			rec.err = err
			return rec
		}
	}
	// Like any client of the API, treat 202 as accepted, not finished:
	// poll status at once, then back off until the session is terminal.
	// (A followed stream has ended, so that session is terminal, but its
	// result still comes from the status call.) Skipping the poll when the
	// 202 body already reads done would split ledger hits into two modes
	// by a race between the handler and the pool worker.
	for wait, first := 100*time.Microsecond, true; first || !rec.info.terminal(); first = false {
		if !first {
			time.Sleep(wait)
			wait = min(2*wait, 2*time.Millisecond)
		}
		id := tr.begin("GET /sessions/{id}", label, lane, root)
		ts := time.Now()
		code, body, err := s.call(http.MethodGet, "/sessions/"+rec.id, nil)
		rec.status = append(rec.status, time.Since(ts))
		tr.end(id)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET status: status %d", code)
		}
		if err == nil {
			err = json.Unmarshal(body, &rec.info)
		}
		if err != nil {
			rec.err = err
			return rec
		}
	}
	if rec.info.State != "done" {
		rec.err = fmt.Errorf("session %s ended %s", rec.id, rec.info.State)
		return rec
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, rec.info.Result); err != nil {
		rec.err = fmt.Errorf("result: %w", err)
		return rec
	}
	rec.resultRaw = compact.Bytes()
	for _, kind := range rq.fetch {
		id := tr.begin("GET artifact "+kind, label, lane, root)
		ts := time.Now()
		code, body, err := s.call(http.MethodGet, "/sessions/"+rec.id+"/artifacts/"+kind, nil)
		rec.artifact = append(rec.artifact, time.Since(ts))
		tr.end(id)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("artifact %s: status %d", kind, code)
		}
		if err == nil && kind != "decisions" && !json.Valid(body) {
			err = fmt.Errorf("artifact %s: invalid JSON", kind)
		}
		if err != nil {
			rec.err = err
			return rec
		}
		rec.artBytes += len(body)
	}
	return rec
}

// call performs one HTTP request and reads the whole response body.
func (s *serveMix) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// follow reads session id's event stream until the server ends it after
// the end marker, and returns the number of events received.
func (s *serveMix) follow(id string) (int, error) {
	resp, err := s.hc.Get(s.base + "/sessions/" + id + "/events")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	events, ended := 0, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			events++
		case line == "event: end":
			ended = true
		}
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	if !ended {
		return events, errors.New("event stream closed before its end marker")
	}
	return events, nil
}

// buildCacheCounters scrapes the server's build-cache gauges.
func (s *serveMix) buildCacheCounters() (hits, misses float64) {
	code, body, err := s.call(http.MethodGet, "/metricsz", nil)
	if err != nil || code != http.StatusOK {
		return 0, 0
	}
	var d struct {
		Gauges map[string]float64 `json:"gauges"`
	}
	if json.Unmarshal(body, &d) != nil {
		return 0, 0
	}
	return d.Gauges["serve.build_cache_hits"], d.Gauges["serve.build_cache_misses"]
}

// generateMix builds every client's request sequence from the seed. Each
// executed spec is new to the whole run (no two clients share a key), so
// which requests execute never depends on timing.
func generateMix(seed int64, clients, perClient int) ([][]mixRequest, error) {
	seen := map[string]bool{}
	out := make([][]mixRequest, clients)
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		var executed []int
		reqs := make([]mixRequest, 0, perClient)
		for i := 0; i < perClient; i++ {
			if i%execEvery != 0 {
				rq := reqs[executed[rng.Intn(len(executed))]]
				rq.body, rq.exec, rq.fetch, rq.follow = rq.plain, false, nil, false
				reqs = append(reqs, rq)
				continue
			}
			rq, err := drawExec(rng, len(executed), seen)
			if err != nil {
				return nil, err
			}
			executed = append(executed, len(reqs))
			reqs = append(reqs, rq)
		}
		out[c] = reqs
	}
	return out, nil
}

var mixStrategies = []string{"off", "monitor", "noprefetch", "excl", "adaptive", "bias", "multiversion", "causal", "layout"}

// mixKinds is the cycle of workloads executed specs walk through, so
// every seed executes the same mix: small DAXPYs between the cheap
// tiny-class NPB programs (bt, sp and lu compile for ~100 ms and would
// split the executed sessions into two modes).
var mixKinds = []string{"daxpy", "ft", "daxpy", "mg", "daxpy", "cg", "daxpy", "ep", "daxpy", "is"}

// drawExec draws a valid spec whose key is not in seen, and the
// artifacts the client will ask of it. k counts the client's executed
// specs so far; its second one is a hashjoin. A tiny NPB program has a
// finite set of keys (threads, machine, placement, affinity, strategy),
// so after maxCollisions repeats the slot falls back to a DAXPY.
func drawExec(rng *rand.Rand, k int, seen map[string]bool) (mixRequest, error) {
	const maxCollisions = 64
	for tries := 0; ; tries++ {
		spec := serve.Spec{
			Workload: mixKinds[k%len(mixKinds)],
			Threads:  []int{1, 2, 4}[rng.Intn(3)],
			Strategy: mixStrategies[rng.Intn(len(mixStrategies))],
		}
		if rng.Intn(4) == 0 {
			spec.Machine = "numa"
			spec.Placement = []string{"", "interleave", "bind"}[rng.Intn(3)]
		}
		if spec.Threads > 1 {
			spec.Affinity = rng.Perm(spec.Threads)
		}
		switch {
		case k == 1:
			spec.Workload = "hashjoin"
		case spec.Workload == "daxpy" || tries >= maxCollisions:
			spec.Workload = "daxpy"
			spec.DaxpyWS = 4096 + 8*rng.Int63n(1537)
			spec.DaxpyReps = 2 + rng.Intn(7)
		default:
			tiny := false
			spec.ClassS = &tiny
		}
		spec.Normalize()
		if spec.Validate() != nil {
			continue
		}
		key, err := spec.Key()
		if err != nil {
			return mixRequest{}, err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		sub := serve.SubmitRequest{Spec: spec}
		rq := mixRequest{spec: spec, key: key, exec: true}
		switch x := rng.Intn(20); {
		case x < 3:
			sub.Artifacts.Events = true
			rq.follow = true
		case x < 8:
			for _, kind := range []string{"trace", "metrics", "decisions"} {
				if rng.Intn(2) == 0 {
					rq.fetch = append(rq.fetch, kind)
				}
			}
			if len(rq.fetch) == 0 {
				rq.fetch = []string{"metrics"}
			}
			sub.Artifacts.Trace = slices.Contains(rq.fetch, "trace")
			sub.Artifacts.Metrics = slices.Contains(rq.fetch, "metrics")
			sub.Artifacts.Decisions = slices.Contains(rq.fetch, "decisions")
		}
		if rq.body, err = json.Marshal(sub); err != nil {
			return mixRequest{}, err
		}
		if rq.plain, err = json.Marshal(serve.SubmitRequest{Spec: spec}); err != nil {
			return mixRequest{}, err
		}
		return rq, nil
	}
}

// direct is one executed spec run straight through
// serve.Spec.Instantiate(...).Measure(), after the timed phase.
type direct struct {
	want   []byte
	err    error
	build  time.Duration
	phases *phaseTimes
	sim    simTotals
}

// runDirect runs every distinct executed spec directly, nproc at a time.
func runDirect(specs map[string]serve.Spec) map[string]*direct {
	out := make(map[string]*direct, len(specs))
	keys := make(chan string)
	cache := workload.NewBuildCache()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range keys {
				spec := specs[key]
				d := &direct{}
				t0 := time.Now()
				inst, err := spec.Instantiate(cache, nil)
				d.build = time.Since(t0)
				if err == nil {
					d.phases = instrument(inst, nil, "", 0, 0)
					var m workload.Measurement
					if m, err = inst.Measure(); err == nil {
						d.want, err = json.Marshal(m)
						d.sim.add(m)
						d.sim.addInstance(inst)
					}
				}
				d.err = err
				mu.Lock()
				out[key] = d
				mu.Unlock()
			}
		}()
	}
	for key := range specs {
		keys <- key
	}
	close(keys)
	wg.Wait()
	return out
}

func (s *serveMix) check(passes []*pass, r *result) {
	specs := map[string]serve.Spec{}
	for _, p := range passes {
		for _, rec := range p.detail.(*mixPass).recs {
			if rec.req.exec {
				specs[rec.req.key] = rec.req.spec
			}
		}
	}
	directs := runDirect(specs)
	for _, p := range passes {
		for _, rec := range p.detail.(*mixPass).recs {
			if rec.err != nil {
				p.fail("%s %s: %v", rec.req.spec.Name(), rec.id, rec.err)
				continue
			}
			d := directs[rec.req.key]
			switch {
			case d == nil:
				p.fail("%s %s: no direct run for key %.16s", rec.req.spec.Name(), rec.id, rec.req.key)
			case d.err != nil:
				p.fail("%s: direct run failed: %v", rec.req.spec.Name(), d.err)
			case !bytes.Equal(rec.resultRaw, d.want):
				p.fail("%s %s: served result differs from the direct run", rec.req.spec.Name(), rec.id)
			}
		}
	}
	s.layerMetrics(passes[len(passes)-1], directs, r)
}

// layerMetrics fills the per-layer metrics from the last pass and the
// direct runs.
func (s *serveMix) layerMetrics(p *pass, directs map[string]*direct, r *result) {
	mp := p.detail.(*mixPass)
	var sim simTotals
	var run time.Duration
	var builds, setups, verifies []float64
	for _, d := range directs {
		if d.err != nil {
			continue
		}
		sim.merge(d.sim)
		run += d.phases.run
		builds = append(builds, ms(d.build))
		setups = append(setups, ms(d.phases.setup))
		verifies = append(verifies, ms(d.phases.verify))
	}
	sim.fill(r.layer)
	r.layer["machine.sim_mips"] = ratio(float64(sim.instr), run.Seconds()) / 1e6
	r.layer["machine.ns_per_instr"] = ratio(float64(run.Nanoseconds()), float64(sim.instr))
	r.layer["workload.build_ms"] = median(builds)
	r.layer["workload.setup_ms"] = median(setups)
	r.layer["workload.verify_ms"] = median(verifies)
	r.layer["workload.cache_hit_ratio"] = ratio(mp.cacheHit, mp.cacheHit+mp.cacheMis)

	var cells, waits, submits, statuses, artifacts, envelopes []float64
	var busy time.Duration
	var cached, done, polls, sse, rejected, artBytes int
	for _, rec := range mp.recs {
		submits = append(submits, ms(rec.submit))
		polls += len(rec.status)
		sse += rec.sse
		artBytes += rec.artBytes
		for _, d := range rec.status {
			statuses = append(statuses, ms(d))
		}
		for _, d := range rec.artifact {
			artifacts = append(artifacts, ms(d))
		}
		if rec.rejected {
			rejected++
		}
		if rec.err != nil {
			continue
		}
		done++
		exec := time.Duration(0)
		if rec.info.Cached {
			cached++
		} else if !rec.info.StartedAt.IsZero() {
			exec = rec.info.DoneAt.Sub(rec.info.StartedAt)
			busy += exec
			cells = append(cells, exec.Seconds())
			waits = append(waits, ms(rec.info.StartedAt.Sub(rec.info.CreatedAt)))
		}
		envelopes = append(envelopes, ms(rec.latency-exec))
	}
	r.layer["sched.cell_p50_s"] = median(cells)
	r.layer["sched.busy_frac"] = ratio(busy.Seconds(), float64(runtime.NumCPU())*p.wall.Seconds())
	r.layer["sched.queue_wait_ms"] = median(waits)
	r.layer["sched.ledger_hit_ratio"] = ratio(float64(cached), float64(done))
	r.layer["serve.submit_ms"] = median(submits)
	r.layer["serve.status_ms"] = median(statuses)
	r.layer["serve.artifact_ms"] = median(artifacts)
	r.layer["serve.envelope_ms"] = median(envelopes)
	r.layer["serve.polls_per_session"] = ratio(float64(polls), float64(len(mp.recs)))
	r.layer["serve.sse_events"] = float64(sse)
	r.layer["serve.rejected"] = float64(rejected)
	r.layer["obs.artifact_bytes"] = float64(artBytes)
	r.samples["serve.submit_ms"] = len(submits)
	r.samples["serve.status_ms"] = len(statuses)
	r.samples["serve.artifact_ms"] = len(artifacts)
	r.samples["sched.cell_p50_s"] = len(cells)
	r.record["executed_specs"] = len(directs)
	r.record["model_validation"] = "unvalidated: no reference result exists for these sessions, so no error figure is given"
}
