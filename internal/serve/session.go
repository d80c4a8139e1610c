package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// State is a session's lifecycle position. Transitions are strictly
// queued → running → (done | failed | cancelled), except that a session
// cancelled or timed out while still queued goes straight to cancelled,
// and a ledger hit goes straight to done.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ArtifactConfig selects which observability artifacts a session records.
// Artifacts are held in memory and served over the session's artifact
// endpoints; a session requesting none runs with a nil observer and the
// simulator's zero-overhead disabled path.
type ArtifactConfig struct {
	Trace        bool `json:"trace,omitempty"`
	TraceSamples bool `json:"trace_samples,omitempty"`
	Metrics      bool `json:"metrics,omitempty"`
	Decisions    bool `json:"decisions,omitempty"`
	// Events enables the live SSE stream (GET /sessions/{id}/events):
	// one window snapshot per optimizer pass and every patch-lifecycle
	// transition, published while the session runs. The stream carries
	// the metrics and decisions surfaces' records, so requesting it
	// implies both (their artifacts become available too).
	Events bool `json:"events,omitempty"`
}

func (a ArtifactConfig) any() bool { return a.Trace || a.Metrics || a.Decisions || a.Events }

// observer builds the session's observer; subscribers bounds its event
// stream like the server's (Config.StreamSubscribers).
func (a ArtifactConfig) observer(subscribers int) *obs.Observer {
	if !a.any() {
		return nil
	}
	return obs.New(obs.Config{
		Trace:            a.Trace,
		SampleEvents:     a.TraceSamples,
		Metrics:          a.Metrics,
		Decisions:        a.Decisions,
		Events:           a.Events,
		EventSubscribers: subscribers,
	})
}

// SubmitRequest is the POST /sessions body: a workload spec plus
// service-level knobs.
type SubmitRequest struct {
	Spec
	// TimeoutMS bounds the session's wall-clock execution; 0 uses the
	// server default, and values above the server maximum are rejected.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Artifacts selects observability artifacts to record.
	Artifacts ArtifactConfig `json:"artifacts,omitempty"`
}

// session is the server-side record of one optimization session.
type session struct {
	id       string
	spec     Spec
	key      string
	name     string
	artifact ArtifactConfig
	observer *obs.Observer // non-nil iff artifacts requested; safe to read once terminal
	ctx      context.Context
	cancel   context.CancelFunc
	// admitted closes right after handleSubmit puts the queued event on
	// the server bus; the job and finishSession wait for it, so /eventsz
	// shows each session's states in the order they changed.
	admitted chan struct{}

	created time.Time

	// progressCycles is updated by the machine interrupt poll while the
	// simulation runs — the live-progress feed. Atomic because status
	// requests read it from HTTP goroutines mid-run.
	progressCycles atomic.Int64

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	result   *workload.Measurement
	errMsg   string
	cached   bool
}

// SessionInfo is the JSON view of a session.
type SessionInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State State  `json:"state"`
	Spec  Spec   `json:"spec"`
	// Key is the content hash shared with the cobra-run ledger namespace.
	Key       string         `json:"key"`
	Artifacts ArtifactConfig `json:"artifacts,omitempty"`
	Cached    bool           `json:"cached,omitempty"`
	CreatedAt string         `json:"created_at"`
	StartedAt string         `json:"started_at,omitempty"`
	DoneAt    string         `json:"done_at,omitempty"`
	// ProgressCycles is the simulated global cycle the session had
	// reached at the last interrupt poll — monotonic while running,
	// final at completion.
	ProgressCycles int64                 `json:"progress_cycles,omitempty"`
	Error          string                `json:"error,omitempty"`
	Result         *workload.Measurement `json:"result,omitempty"`
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// info snapshots the session under its lock.
func (s *session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionInfo{
		ID:             s.id,
		Name:           s.name,
		State:          s.state,
		Spec:           s.spec,
		Key:            s.key,
		Artifacts:      s.artifact,
		Cached:         s.cached,
		CreatedAt:      rfc3339(s.created),
		StartedAt:      rfc3339(s.started),
		DoneAt:         rfc3339(s.finished),
		ProgressCycles: s.progressCycles.Load(),
		Error:          s.errMsg,
		Result:         s.result,
	}
}

// setRunning moves a queued session to running, reporting whether it did.
func (s *session) setRunning(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateQueued {
		return false
	}
	s.state = StateRunning
	s.started = now
	return true
}

// stateNow returns the current state.
func (s *session) stateNow() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// errNow returns the current error message.
func (s *session) errNow() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errMsg
}
