// Package obs is the observability layer of the COBRA control loop: a
// cycle-domain event tracer, a metrics registry, and a patch-decision log
// that together turn the sample → trigger → patch → judge → roll-back
// pipeline from a black box of nine counters into inspectable artifacts.
//
// Three design rules govern every type here:
//
//  1. Cycle domain. Simulated machine cycles are the clock, never host
//     wall time: two runs of the same configuration produce byte-identical
//     traces and metric snapshots, so observability artifacts can be
//     diffed across PRs exactly like the results/ tables.
//  2. Nil safety. A nil *Observer (and nil *Tracer, *Registry,
//     *DecisionLog) is the disabled state; every method is safe to call
//     on a nil receiver and does nothing. Instrumented code guards
//     argument construction behind a single pointer check, so a disabled
//     observer adds zero allocations to the simulator's hot path (pinned
//     by AllocsPerRun tests in internal/machine).
//  3. One observer per instance. The simulator is single-goroutine per
//     machine, and so is its observer. Concurrent experiment cells each
//     get their own Observer (see the sched artifact hooks); none of the
//     artifact types here lock. The one exception is the EventBus — the
//     live telemetry plane — whose subscribers drain from other
//     goroutines; it locks internally and its publishers never block.
//
// The control loop writes no surface itself. internal/cobra and
// internal/perfmon report each fact once, through one nil-safe Observer
// method (fact.go), and the observer projects it into every enabled
// surface: tracer, registry, decision log and bus, in that order.
package obs

import "fmt"

// Config selects which observability surfaces an Observer enables.
type Config struct {
	// Trace enables the cycle-domain event tracer.
	Trace bool
	// SampleEvents additionally records one instant event per captured
	// perfmon sample — dense; useful for inspecting sampling behaviour,
	// too noisy for routine patch-lifecycle traces.
	SampleEvents bool
	// Metrics enables the metrics registry (window snapshots, histograms).
	Metrics bool
	// Decisions enables the patch-decision audit log.
	Decisions bool
	// Events enables the live event bus: each window snapshot and each
	// decision transition is published to subscribers during the run
	// instead of only materializing as an artifact at the end. The
	// stream carries the metrics and decisions surfaces' records, so
	// Events implies Metrics and Decisions.
	Events bool
	// EventSubscribers bounds concurrent bus subscriptions
	// (0 = DefaultBusSubscribers).
	EventSubscribers int
}

// Observer bundles the three observability surfaces. A nil *Observer is
// fully disabled; each accessor returns nil for a disabled surface.
type Observer struct {
	trace        *Tracer
	sampleEvents bool
	metrics      *Registry
	decisions    *DecisionLog
	bus          *EventBus
}

// New builds an observer with the configured surfaces enabled. A config
// enabling nothing returns a non-nil observer whose accessors all return
// nil — equivalent to a nil observer, occasionally convenient for tests.
func New(cfg Config) *Observer {
	o := &Observer{sampleEvents: cfg.SampleEvents}
	if cfg.Events {
		o.bus = NewEventBus(DefaultBusHistory, cfg.EventSubscribers)
		cfg.Metrics, cfg.Decisions = true, true
	}
	if cfg.Trace {
		o.trace = NewTracer(DefaultTraceCap)
	}
	if cfg.Metrics {
		o.metrics = NewRegistry()
	}
	if cfg.Decisions {
		o.decisions = NewDecisionLog()
	}
	return o
}

// Trace returns the event tracer, or nil when tracing is disabled.
func (o *Observer) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.trace
}

// Metrics returns the metrics registry, or nil when disabled.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Decisions returns the patch-decision log, or nil when disabled.
func (o *Observer) Decisions() *DecisionLog {
	if o == nil {
		return nil
	}
	return o.decisions
}

// Bus returns the live event bus, or nil when disabled.
func (o *Observer) Bus() *EventBus {
	if o == nil {
		return nil
	}
	return o.bus
}

// LabelTracks names the standard tracks of a machine trace: one row per
// CPU plus the synthetic regions/optimizer/patch tracks. No-op when the
// observer has no tracer.
func (o *Observer) LabelTracks(numCPUs int) {
	t := o.Trace()
	if t == nil {
		return
	}
	for i := 0; i < numCPUs; i++ {
		t.ThreadName(i, fmt.Sprintf("cpu%d", i))
	}
	t.ThreadName(TIDRegions, "openmp regions")
	t.ThreadName(TIDOptimizer, "cobra optimizer")
	t.ThreadName(TIDPatch, "patch lifecycle")
}

// Track (thread) ids of the trace. CPUs use their id directly; the
// synthetic tracks sit far above any plausible CPU count so Perfetto
// groups them below the per-CPU rows.
const (
	// PID is the single trace process id (one simulated machine).
	PID = 1
	// TIDRegions carries the OpenMP fork-join region spans.
	TIDRegions = 900
	// TIDOptimizer carries the COBRA optimization thread: window spans,
	// USB drains, trigger evaluations.
	TIDOptimizer = 1000
	// TIDPatch carries the patch lifecycle: candidate, deployed, judged,
	// kept / rolled back / blocked.
	TIDPatch = 1001
)
