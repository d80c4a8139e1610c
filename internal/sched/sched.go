// Package sched executes experiment cells as independent jobs on a worker
// pool. Every figure and table of the reproduction is a sweep of fully
// deterministic simulations that share no state, so the scheduler can run
// them concurrently and still return results in deterministic input order
// regardless of completion order.
//
// Each Job carries a content-hash Key identifying the cell (workload ×
// machine × strategy × scale). The key serves two purposes: jobs submitted
// with the same key in one Run are executed once and share the result
// (dedup), and an optional persistent Ledger keyed by job hash lets
// unchanged cells be skipped entirely across process runs (incremental
// mode).
package sched

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Job is one schedulable unit of work producing a value of type T.
type Job[T any] struct {
	// Key is the content-hash identity of the cell (see KeyOf). Jobs with
	// equal keys are assumed to produce identical values: within one Run
	// they execute once, and with a Ledger a previously recorded value is
	// reused across runs. An empty key disables both behaviours.
	Key string
	// Name is the human-readable label used by progress hooks.
	Name string
	// Run computes the cell under the job's context (Pool.Submit's ctx;
	// context.Background() in Run), which long jobs consult to stop early
	// when it is cancelled. It must not share mutable state with other
	// jobs: the scheduler may invoke many Run functions concurrently.
	Run func(ctx context.Context) (T, error)
}

// PanicError is the job error produced when a Run panics: the scheduler
// isolates the panic to the owning job instead of tearing down the whole
// worker pool (and, for a service, the process).
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job panicked: %v", e.Value)
}

// Result pairs a job with its outcome, in the input order of Run.
type Result[T any] struct {
	Name    string
	Key     string
	Value   T
	Err     error
	Cached  bool          // the ledger holds this value: reused (from its file or the pool's memory), not executed
	Elapsed time.Duration // execution time (zero when Cached)
}

// Event describes a job state change delivered to Hooks.
type Event struct {
	// Seq is the 1-based count of jobs started, for Started events, or of
	// jobs finished or cached, for Finished and Cached events.
	Seq int
	// Total is the number of distinct jobs in this Run (after key dedup),
	// and 0 on a service pool.
	Total   int
	Name    string // Job.Name
	Key     string // Job.Key
	Elapsed time.Duration
	Err     error
}

// Hooks observe job progress. Invocations are serialized by the scheduler,
// so hooks may write to a shared sink without locking; they run on worker
// goroutines and should be fast. Any field may be nil.
type Hooks struct {
	Started  func(Event) // a job began executing
	Finished func(Event) // a job finished executing (Err set on failure)
	Cached   func(Event) // a job was skipped: the value its ledger entry holds was reused
}

// Options configure a Run or a Pool.
type Options struct {
	// Workers is the number of concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// Ledger, when non-nil, is consulted before executing a keyed job and
	// updated after a successful execution. A Pool also remembers a
	// bounded number of the values it read from or wrote to it, and
	// answers a repeated key from that memory.
	Ledger *Ledger
	// Hooks receive progress callbacks.
	Hooks Hooks
	// Logf, when non-nil, receives diagnostics the scheduler recovers
	// from rather than failing the run — ledger entries it had to
	// quarantine, panics it isolated. Nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Run executes jobs on a Pool and returns one Result per job, in input
// order regardless of completion order. Jobs sharing a key execute once;
// the later duplicates copy the first one's result. A job failure does
// not stop the others — callers decide by inspecting Result.Err (see
// FirstErr).
func Run[T any](jobs []Job[T], opt Options) []Result[T] {
	results := make([]Result[T], len(jobs))

	// Dedup by key: the first job with a key is the primary; later jobs
	// with the same key copy its result after the pool drains.
	primaries := make([]int, 0, len(jobs))
	dupOf := map[int]int{}
	firstByKey := map[string]int{}
	for i, j := range jobs {
		if j.Key != "" {
			if p, ok := firstByKey[j.Key]; ok {
				dupOf[i] = p
				continue
			}
			firstByKey[j.Key] = i
		}
		primaries = append(primaries, i)
	}
	if len(primaries) == 0 {
		return results
	}

	if opt.Workers <= 0 {
		opt.Workers = defaultWorkers()
	}
	opt.Workers = min(opt.Workers, len(primaries))
	pool := NewPool[T](opt, len(primaries))
	// Set before the first Submit: a worker reads it only after receiving
	// a job, which the queue orders after this write.
	pool.total = len(primaries)
	for _, i := range primaries {
		// The queue holds every job and the pool is still open, so
		// Submit cannot fail.
		if err := pool.Submit(context.Background(), jobs[i], func(r Result[T]) { results[i] = r }); err != nil {
			panic(err)
		}
	}
	// A context that never expires: Shutdown returns nil once every job
	// has resolved.
	_ = pool.Shutdown(context.Background())

	for i, p := range dupOf {
		results[i] = results[p]
		results[i].Name = jobs[i].Name
	}
	return results
}

// FirstErr returns the first failure in input order, wrapped with the
// failing job's name, or nil.
func FirstErr[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	return nil
}

// KeyOf derives a content-hash key from the given parts: each part is
// JSON-encoded (deterministically — Go sorts map keys) into a SHA-256 hash.
// Parts must be JSON-marshalable plain data; passing anything else is a
// programming error and panics.
func KeyOf(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(fmt.Sprintf("sched: unhashable key part %T: %v", p, err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ConsoleHooks returns hooks that print one progress line per job state
// change to w — the live progress display of the cmd/ front ends.
func ConsoleHooks(w io.Writer) Hooks {
	return Hooks{
		Started: func(ev Event) {
			fmt.Fprintf(w, "[%d/%d] run    %s\n", ev.Seq, ev.Total, ev.Name)
		},
		Finished: func(ev Event) {
			if ev.Err != nil {
				fmt.Fprintf(w, "[%d/%d] FAIL   %s: %v\n", ev.Seq, ev.Total, ev.Name, ev.Err)
				return
			}
			fmt.Fprintf(w, "[%d/%d] done   %s (%.2fs)\n", ev.Seq, ev.Total, ev.Name, ev.Elapsed.Seconds())
		},
		Cached: func(ev Event) {
			fmt.Fprintf(w, "[%d/%d] cached %s\n", ev.Seq, ev.Total, ev.Name)
		},
	}
}
