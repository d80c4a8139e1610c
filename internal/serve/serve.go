// Package serve is the cobrad optimization service: an HTTP front end
// that accepts optimization-session requests (workload × machine ×
// strategy × scale), runs them as cancellable sessions on a shared
// internal/sched pool — each session executing on its own machine
// instance with an ia64.Image cloned from a shared workload.BuildCache —
// and exposes results, live progress and internal/obs artifacts over
// JSON endpoints.
//
// Production hardening is part of the contract, not an afterthought:
//
//   - The session queue is bounded; a full queue answers 429 with
//     Retry-After instead of growing without bound.
//   - Every session carries a context with a wall-clock timeout and can
//     be cancelled while queued or mid-simulation (via the machine
//     interrupt poll); the run ledger never records a cancelled session.
//   - Requests are validated against explicit bounds before any memory
//     is committed.
//   - Workers are panic-isolated: a session that panics fails alone.
//   - Shutdown drains running sessions, persists their ledger entries,
//     and force-cancels only when the drain deadline expires.
//
// The batch CLI (cmd/cobra-run) builds its job through the same Spec
// type, so a session served by cobrad is byte-identical — result and
// artifacts — to the equivalent batch invocation, and the two share one
// run-ledger namespace.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Config configures a Server. The zero value is a sensible single-host
// deployment: GOMAXPROCS workers, a 2×workers queue, 2-minute default /
// 10-minute maximum session timeouts, no persistent ledger.
type Config struct {
	// Workers is the session worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds submitted-but-unstarted sessions; <= 0 means
	// 2×Workers. A full queue rejects submissions with 429.
	QueueDepth int
	// DefaultTimeout bounds a session that does not request a timeout
	// (0 = 2m). MaxTimeout caps what a request may ask for (0 = 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// LedgerDir, when non-empty, opens a persistent run ledger there:
	// sessions whose content hash is recorded are answered from it, and
	// completed sessions are recorded for future runs — the same
	// namespace cobra-run -incremental uses.
	LedgerDir string
	// MaxSessions bounds retained session records (<= 0 means 1024).
	// Oldest finished sessions are evicted first; if every retained
	// session is still live, submissions are rejected with 429 — the
	// memory guard that keeps a hammered server from growing without
	// bound.
	MaxSessions int
	// StreamSubscribers bounds concurrent SSE subscribers on the
	// server-wide /eventsz stream and on each session's event stream
	// (<= 0 means obs.DefaultBusSubscribers). The bound is what keeps a
	// subscriber stampede from holding goroutines: excess subscribers
	// are answered 429, and every admitted one is a cursor into the
	// bus's one bounded history with a lag bound, so no reader can
	// back-pressure a simulation.
	StreamSubscribers int
	// Logf receives service diagnostics (nil discards).
	Logf func(format string, args ...any)
}

// Server is the cobrad service core. It is an http.Handler; cmd/cobrad
// mounts it on an http.Server and wires OS signals to Shutdown.
type Server struct {
	cfg    Config
	pool   *sched.Pool[workload.Measurement]
	ledger *sched.Ledger
	cache  *workload.BuildCache
	mux    *http.ServeMux

	mu       sync.Mutex
	sessions map[string]*session
	order    []string // session ids in submission order
	nextID   int64

	// metricsMu guards the registry: obs.Registry is single-goroutine by
	// design (one per machine instance); the service shares one across
	// HTTP and worker goroutines, so every touch goes through the lock.
	// lastServe (same lock) is the counter baseline of the previous
	// KindServe bus event, so /eventsz carries deltas, not levels.
	metricsMu sync.Mutex
	metrics   *obs.Registry
	lastServe map[string]int64

	// bus is the server-wide event plane behind GET /eventsz:
	// admissions, session state changes and serve.* counter deltas. The
	// bus locks internally and its publishers never block, so HTTP
	// handlers and worker callbacks publish directly.
	bus *obs.EventBus

	draining atomic.Bool
}

// New builds and starts a server (its worker pool starts immediately).
func New(cfg Config) (*Server, error) {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	s := &Server{
		cfg:       cfg,
		cache:     workload.NewBuildCache(),
		sessions:  map[string]*session{},
		metrics:   obs.NewRegistry(),
		lastServe: map[string]int64{},
		bus:       obs.NewEventBus(0, cfg.StreamSubscribers),
	}
	if cfg.LedgerDir != "" {
		led, err := sched.OpenLedger(cfg.LedgerDir)
		if err != nil {
			return nil, err
		}
		s.ledger = led
	}
	s.pool = sched.NewPool[workload.Measurement](sched.Options{
		Workers: cfg.Workers,
		Ledger:  s.ledger,
		Logf:    s.logf,
	}, cfg.QueueDepth)
	s.routes()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// metric runs fn with the metrics registry under its lock.
func (s *Server) metric(fn func(r *obs.Registry)) {
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	fn(s.metrics)
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /eventsz", s.handleEventsz)
	mux.HandleFunc("POST /sessions", s.handleSubmit)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("GET /sessions/{id}", s.handleGet)
	mux.HandleFunc("GET /sessions/{id}/result", s.handleResult)
	mux.HandleFunc("GET /sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("POST /sessions/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleCancel)
	mux.HandleFunc("GET /sessions/{id}/artifacts/{kind}", s.handleArtifact)
	s.mux = mux
}

// ServeHTTP makes the server mountable directly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.draining.Load() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": state})
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	retained := len(s.sessions)
	s.mu.Unlock()
	s.metricsMu.Lock()
	s.metrics.Gauge("serve.queue_depth").Set(float64(s.pool.QueueLen()))
	s.metrics.Gauge("serve.running").Set(float64(s.pool.Running()))
	s.metrics.Gauge("serve.sessions_retained").Set(float64(retained))
	hits, misses := s.cache.Stats()
	s.metrics.Gauge("serve.build_cache_hits").Set(float64(hits))
	s.metrics.Gauge("serve.build_cache_misses").Set(float64(misses))
	d := s.metrics.Dump()
	s.metricsMu.Unlock()
	writeJSON(w, http.StatusOK, d)
}

// decodeSubmit decodes a POST /sessions body: one JSON object with no
// unknown fields. FuzzSpecKey drives it with arbitrary bytes.
func decodeSubmit(body io.Reader) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// handleSubmit is POST /sessions: validate, admit, enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting sessions")
		return
	}
	req, err := decodeSubmit(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.metric(func(m *obs.Registry) { m.Counter("serve.rejected_invalid").Inc() })
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req.Spec.Normalize()
	if err := req.Spec.Validate(); err != nil {
		s.metric(func(m *obs.Registry) { m.Counter("serve.rejected_invalid").Inc() })
		writeError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS != 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout <= 0 || timeout > s.cfg.MaxTimeout {
			s.metric(func(m *obs.Registry) { m.Counter("serve.rejected_invalid").Inc() })
			writeError(w, http.StatusBadRequest, "timeout_ms %d out of range (0, %d]", req.TimeoutMS, s.cfg.MaxTimeout.Milliseconds())
			return
		}
	}
	key, err := req.Spec.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	sess := &session{
		spec:     req.Spec,
		key:      key,
		name:     req.Spec.Name(),
		artifact: req.Artifacts,
		observer: req.Artifacts.observer(s.cfg.StreamSubscribers),
		ctx:      ctx,
		cancel:   cancel,
		admitted: make(chan struct{}),
		created:  time.Now(),
		state:    StateQueued,
	}

	if !s.admit(sess) {
		cancel()
		s.metric(func(m *obs.Registry) { m.Counter("serve.rejected_retained_full").Inc() })
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "session store full (%d live sessions retained); retry later", s.cfg.MaxSessions)
		return
	}

	err = s.pool.Submit(ctx, s.sessionJob(sess), func(res sched.Result[workload.Measurement]) {
		s.finishSession(sess, res)
	})
	if err != nil {
		s.forget(sess.id)
		cancel()
		switch {
		case errors.Is(err, sched.ErrQueueFull):
			s.metric(func(m *obs.Registry) { m.Counter("serve.rejected_queue_full").Inc() })
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "session queue full (%d queued, %d running); retry later",
				s.pool.QueueLen(), s.pool.Running())
		case errors.Is(err, sched.ErrPoolClosed):
			writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting sessions")
		default:
			writeError(w, http.StatusInternalServerError, "submit: %v", err)
		}
		return
	}
	// A cancelled or expired session that is still queued would otherwise
	// stay "queued" until a worker dequeues it (possibly much later on a
	// wedged pool). Finish it eagerly; the terminal-state guard in
	// finishSession makes this race-safe against the worker's callback.
	context.AfterFunc(ctx, func() {
		if sess.stateNow() == StateQueued {
			s.finishSession(sess, sched.Result[workload.Measurement]{Err: ctx.Err()})
		}
	})
	s.metric(func(m *obs.Registry) { m.Counter("serve.submitted").Inc() })
	s.publishSession(sess, StateQueued)
	close(sess.admitted)
	writeJSON(w, http.StatusAccepted, sess.info())
}

// SessionEvent is the obs.KindSession payload on the /eventsz stream:
// one event per session state change, with the instantaneous queue
// depth and running count attached.
type SessionEvent struct {
	ID         string `json:"id"`
	Name       string `json:"name"`
	Key        string `json:"key"`
	State      State  `json:"state"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
}

// ServeEvent is the obs.KindServe payload: serve.* counter deltas since
// the previous ServeEvent — the streaming form of diffing consecutive
// /metricsz scrapes.
type ServeEvent struct {
	CounterDeltas map[string]int64 `json:"counter_deltas,omitempty"`
	QueueDepth    int              `json:"queue_depth"`
	Running       int              `json:"running"`
}

// publishSession emits a session state change (and any accumulated
// serve.* counter deltas) onto the server-wide bus.
func (s *Server) publishSession(sess *session, state State) {
	queued, running := s.pool.QueueLen(), s.pool.Running()
	ev := SessionEvent{
		ID: sess.id, Name: sess.name, Key: sess.key, State: state,
		QueueDepth: queued, Running: running,
	}
	if state.Terminal() {
		sess.mu.Lock()
		ev.Cached, ev.Error = sess.cached, sess.errMsg
		sess.mu.Unlock()
	}
	s.bus.Publish(obs.KindSession, 0, ev)

	s.metricsMu.Lock()
	var deltas map[string]int64
	for _, name := range s.metrics.CounterNames() {
		if !strings.HasPrefix(name, "serve.") {
			continue
		}
		v := s.metrics.Counter(name).Value()
		if d := v - s.lastServe[name]; d != 0 {
			if deltas == nil {
				deltas = map[string]int64{}
			}
			deltas[name] = d
			s.lastServe[name] = v
		}
	}
	s.metricsMu.Unlock()
	if deltas != nil {
		s.bus.Publish(obs.KindServe, 0, ServeEvent{
			CounterDeltas: deltas, QueueDepth: queued, Running: running,
		})
	}
}

// sessionJob builds the scheduler job executing one session. The job key
// is the spec's content hash, so a ledger-backed server answers repeated
// configurations from the recorded measurement exactly like
// cobra-run -incremental.
func (s *Server) sessionJob(sess *session) sched.Job[workload.Measurement] {
	return sched.Job[workload.Measurement]{
		Key:  sess.key,
		Name: sess.name,
		Run: func(ctx context.Context) (workload.Measurement, error) {
			<-sess.admitted
			if sess.setRunning(time.Now()) {
				s.publishSession(sess, StateRunning)
			}
			inst, err := sess.spec.Instantiate(s.cache, sess.observer)
			if err != nil {
				return workload.Measurement{}, err
			}
			m := inst.Ctx.M
			// The interrupt poll is the cancellation path into the
			// simulator and the live-progress feed out of it: it reads
			// the global cycle for status requests and aborts the run
			// when the session context dies. It never mutates simulation
			// state, so artifacts stay byte-identical to a batch run.
			m.SetInterrupt(func() error {
				sess.progressCycles.Store(m.GlobalCycle())
				return ctx.Err()
			}, 0)
			meas, err := inst.Measure()
			if err == nil {
				sess.progressCycles.Store(meas.Cycles)
			}
			return meas, err
		},
	}
}

// finishSession maps a scheduler result onto the session record.
func (s *Server) finishSession(sess *session, res sched.Result[workload.Measurement]) {
	<-sess.admitted
	defer sess.cancel()
	now := time.Now()
	var pe *sched.PanicError
	sess.mu.Lock()
	if sess.state.Terminal() {
		// Already finished by the other path (eager queued-cancellation vs
		// worker callback) — first writer wins, and wins exactly once.
		sess.mu.Unlock()
		return
	}
	sess.finished = now
	switch {
	case res.Cached:
		v := res.Value
		sess.state = StateDone
		sess.cached = true
		sess.result = &v
		sess.progressCycles.Store(v.Cycles)
	case res.Err == nil:
		v := res.Value
		sess.state = StateDone
		sess.result = &v
	case errors.Is(res.Err, context.Canceled):
		sess.state = StateCancelled
		sess.errMsg = "session cancelled"
	case errors.Is(res.Err, context.DeadlineExceeded):
		sess.state = StateFailed
		sess.errMsg = fmt.Sprintf("session timeout exceeded: %v", res.Err)
	case errors.As(res.Err, &pe):
		sess.state = StateFailed
		sess.errMsg = fmt.Sprintf("internal error: %v", pe)
	default:
		sess.state = StateFailed
		sess.errMsg = res.Err.Error()
	}
	state := sess.state
	sess.mu.Unlock()

	s.metric(func(m *obs.Registry) {
		switch state {
		case StateDone:
			m.Counter("serve.completed").Inc()
			if res.Cached {
				m.Counter("serve.ledger_hits").Inc()
			} else {
				m.Histogram("serve.session_cycles").Observe(float64(res.Value.Cycles))
				m.Histogram("serve.session_wall_ms").Observe(float64(res.Elapsed.Milliseconds()))
			}
		case StateCancelled:
			m.Counter("serve.cancelled").Inc()
		case StateFailed:
			m.Counter("serve.failed").Inc()
			if pe != nil {
				m.Counter("serve.panics").Inc()
			}
		}
	})
	if pe != nil {
		s.logf("serve: session %s panicked: %v\n%s", sess.id, pe.Value, pe.Stack)
	}
	// Terminate the session's live stream: subscribers receive every
	// buffered event, then the end marker, then ErrBusClosed. Closing
	// here (the single place every session reaches exactly once) is what
	// lets stream followers treat "end" as the completeness signal.
	if b := sess.observer.Bus(); b != nil {
		b.Publish(obs.KindEnd, 0, EndEvent{State: state, Error: sess.errNow()})
		b.Close()
	}
	s.publishSession(sess, state)
}

// EndEvent is the obs.KindEnd payload closing a session stream.
type EndEvent struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// admit registers the session under a fresh id, evicting the oldest
// finished sessions beyond the retention bound. It refuses (false) only
// when the store is full of live sessions.
func (s *Server) admit(sess *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		evicted := false
		for i := 0; i < len(s.order) && len(s.sessions) >= s.cfg.MaxSessions; i++ {
			id := s.order[i]
			old, ok := s.sessions[id]
			if !ok || !old.stateNow().Terminal() {
				continue
			}
			delete(s.sessions, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			i--
			evicted = true
		}
		if !evicted && len(s.sessions) >= s.cfg.MaxSessions {
			return false
		}
	}
	s.nextID++
	sess.id = fmt.Sprintf("s-%06d", s.nextID)
	s.sessions[sess.id] = sess
	s.order = append(s.order, sess.id)
	return true
}

// forget drops a session that never made it into the pool.
func (s *Server) forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sessions, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

func (s *Server) lookup(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// handleList is GET /sessions[?state=...]: every retained session, in a
// stable submission-time order so a dashboard poller sees a steady list,
// optionally filtered to one lifecycle state.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var filter State
	if q := r.URL.Query().Get("state"); q != "" {
		filter = State(q)
		switch filter {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		default:
			writeError(w, http.StatusBadRequest,
				"unknown state %q (want queued, running, done, failed or cancelled)", q)
			return
		}
	}
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.order))
	for _, id := range s.order {
		if sess, ok := s.sessions[id]; ok {
			sessions = append(sessions, sess)
		}
	}
	s.mu.Unlock()
	infos := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		info := sess.info()
		if filter != "" && info.State != filter {
			continue
		}
		info.Result = nil // keep the listing light; fetch one session for its result
		infos = append(infos, info)
	}
	// s.order is already submission order, but make the contract explicit
	// (and robust against future eviction reshuffles): stable sort by
	// creation time, tie-broken by id.
	sort.SliceStable(infos, func(i, j int) bool {
		if infos[i].CreatedAt != infos[j].CreatedAt {
			return infos[i].CreatedAt < infos[j].CreatedAt
		}
		return infos[i].ID < infos[j].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

// handleResult serves the bare Measurement JSON — the document that is
// byte-compared against the batch CLI path in the e2e suite.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	info := sess.info()
	switch {
	case info.Result != nil:
		writeJSON(w, http.StatusOK, info.Result)
	case info.State.Terminal():
		writeError(w, http.StatusConflict, "session %s %s: %s", info.ID, info.State, info.Error)
	default:
		writeError(w, http.StatusConflict, "session %s still %s", info.ID, info.State)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	sess.cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": sess.id, "status": "cancellation requested"})
}

// handleArtifact serves one in-memory observability artifact of a
// terminal session: trace (Chrome trace_event JSON), metrics (registry
// dump) or decisions (Explain report, text).
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	info := sess.info()
	if !info.State.Terminal() {
		writeError(w, http.StatusConflict, "session %s still %s; artifacts are available once it finishes", info.ID, info.State)
		return
	}
	if info.Cached {
		writeError(w, http.StatusNotFound, "session %s was answered from the run ledger; artifacts exist only for executed sessions", info.ID)
		return
	}
	kind := r.PathValue("kind")
	o := sess.observer
	switch kind {
	case "trace":
		if o.Trace() == nil {
			writeError(w, http.StatusNotFound, "session %s did not request a trace artifact", info.ID)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = o.Trace().WriteJSON(w)
	case "metrics":
		if o.Metrics() == nil {
			writeError(w, http.StatusNotFound, "session %s did not request a metrics artifact", info.ID)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = o.Metrics().WriteJSON(w)
	case "decisions":
		if o.Decisions() == nil {
			writeError(w, http.StatusNotFound, "session %s did not request a decision log", info.ID)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = o.Decisions().Explain(w)
	default:
		writeError(w, http.StatusNotFound, "unknown artifact %q (want trace, metrics or decisions)", kind)
	}
}

// Shutdown drains the service: intake stops (submissions answer 503),
// queued and running sessions execute to completion with their ledger
// entries persisted, and every session record reaches a terminal state
// before Shutdown returns. If ctx expires first, the remaining sessions
// are force-cancelled (their interrupt polls abort the simulations) and
// Shutdown waits for the workers to unwind before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.pool.Shutdown(ctx)
	if err != nil {
		// Deadline expired mid-drain: cancel everything still live and
		// wait for the workers — the interrupt poll guarantees prompt
		// unwinding, and finishSession still runs for each, so no session
		// is left in a non-terminal state.
		s.cancelLive()
		s.pool.Wait()
	}
	// Every session is terminal now; end the server-wide stream so
	// /eventsz followers unblock instead of waiting out their heartbeat.
	s.bus.Publish(obs.KindEnd, 0, nil)
	s.bus.Close()
	s.logf("serve: drained (%s)", s.drainSummary())
	return err
}

// cancelLive cancels every non-terminal session's context.
func (s *Server) cancelLive() {
	s.mu.Lock()
	live := make([]*session, 0)
	for _, sess := range s.sessions {
		if !sess.stateNow().Terminal() {
			live = append(live, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range live {
		sess.cancel()
	}
}

func (s *Server) drainSummary() string {
	s.metricsMu.Lock()
	defer s.metricsMu.Unlock()
	parts := []string{}
	for _, name := range []string{"serve.submitted", "serve.completed", "serve.failed", "serve.cancelled"} {
		parts = append(parts, fmt.Sprintf("%s=%d", strings.TrimPrefix(name, "serve."), s.metrics.Counter(name).Value()))
	}
	return strings.Join(parts, " ")
}

// Ledger exposes the server's run ledger (nil when not configured) —
// used by cmd/cobrad logging and the e2e suite.
func (s *Server) Ledger() *sched.Ledger { return s.ledger }
