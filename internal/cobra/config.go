// Package cobra implements COBRA (Continuous Binary Re-Adaptation), the
// paper's runtime binary optimization framework for multithreaded
// applications, on top of the simulated Itanium 2 machine:
//
//   - one monitoring thread per working thread copies perfmon samples
//     (counters, BTB, DEAR) into a per-thread User Sampling Buffer;
//   - a single optimization thread periodically aggregates the per-thread
//     profiles into a system-wide view, detects intensive coherent memory
//     traffic from the BUS_* events, pinpoints the delinquent loads with
//     two-level DEAR latency filtering (§4), rediscovers the loops
//     containing them from BTB branch pairs, and locates the lfetch
//     instructions inside those loops by walking the binary;
//   - the optimizer rewrites the selected prefetches — to NOPs
//     (noprefetch) or to lfetch.excl (exclusive-hint prefetch) — either by
//     patching the binary in place or by emitting an optimized trace into
//     a code cache and redirecting the original entry to it;
//   - in adaptive mode the controller keeps watching the patched loops and
//     rolls a patch back when the observed memory behaviour regresses,
//     re-adapting as program phases change.
package cobra

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/perfmon"
)

// Strategy selects the optimization the runtime applies when it detects
// coherent-miss pressure.
type Strategy uint8

const (
	// StrategyOff monitors only (profiling overhead, no patches).
	StrategyOff Strategy = iota
	// StrategyNoprefetch rewrites selected prefetches to NOPs, removing
	// the unnecessary coherent misses aggressive prefetching causes.
	StrategyNoprefetch
	// StrategyExcl rewrites selected prefetches to lfetch.excl so lines
	// that will be written arrive in Exclusive state.
	StrategyExcl
	// StrategyAdaptive lets the controller choose per loop and roll back
	// on regression: noprefetch first, escalating to lfetch.excl if
	// noprefetch regresses.
	StrategyAdaptive
	// StrategyBias rewrites delinquent integer loads themselves to
	// ld8.bias, acquiring the line exclusively when a store follows — the
	// §4 optimization the paper describes but leaves unimplemented
	// because of the hint's narrow applicability (an extension here).
	StrategyBias
	// StrategyMultiVersion keeps every applicable rewrite of a hot region
	// resident and switches between them on phase changes (Meng et al.).
	StrategyMultiVersion
	// StrategyCausal ranks candidate rewrites by a Coz-style what-if
	// prediction of whole-program IPC before deploying (Curtsinger and
	// Berger).
	StrategyCausal
	// StrategyLayout reorders a hot region's basic blocks hot-path-first
	// from the BTB edge profile (BOLT, Panchenko et al.).
	StrategyLayout
)

func (s Strategy) String() string {
	switch s {
	case StrategyOff:
		return "off"
	case StrategyNoprefetch:
		return "noprefetch"
	case StrategyExcl:
		return "prefetch.excl"
	case StrategyAdaptive:
		return "adaptive"
	case StrategyBias:
		return "ld.bias"
	case StrategyMultiVersion:
		return "multiversion"
	case StrategyCausal:
		return "causal"
	case StrategyLayout:
		return "layout"
	}
	return "?"
}

// Config tunes the runtime.
type Config struct {
	Strategy Strategy

	// Sampling configures the perfmon driver (period, DEAR filter,
	// per-sample overhead).
	Sampling perfmon.Config

	// OptimizeInterval is the simulated-cycle period of the optimization
	// thread's aggregation/decision pass.
	OptimizeInterval int64

	// CoherentShareThreshold gates optimization: coherent snoop events
	// must be a significant share of all cache misses, so prefetches
	// hiding plain capacity misses are left alone (§5.2.1's filtering
	// heuristic).
	CoherentShareThreshold float64

	// MinCoherentEvents is the absolute number of dirty-snoop events a
	// window must contain before the trigger may fire, so a handful of
	// events in an otherwise quiet window (a barrier, a phase boundary)
	// cannot masquerade as high coherent pressure.
	MinCoherentEvents int64

	// CoherentLatency is the second-level DEAR filter (§4): loads slower
	// than this are classified coherent misses. It must sit above the
	// machine's slowest memory load; ConfigFor chooses it per machine.
	CoherentLatency int64

	// MinLoopSamples is the number of BTB observations required before a
	// backward branch is accepted as a hot loop.
	MinLoopSamples int64

	// MinDelinquentSamples is the number of DEAR captures required before
	// a load is considered delinquent.
	MinDelinquentSamples int64

	// UseTraceCache deploys optimizations as redirected traces in a code
	// cache (the paper's design); false patches prefetches in place.
	UseTraceCache bool

	// RollbackTolerance: a patch is rolled back when IPC over the
	// patched loop's active windows falls more than this fraction below
	// the pre-patch baseline.
	RollbackTolerance float64

	// Obs, when non-nil, receives the runtime's trace events, metrics and
	// patch decisions. Excluded from JSON so scheduler content hashes of a
	// configuration are identical with and without observability attached.
	Obs *obs.Observer `json:"-"`
}

// DefaultConfig returns the runtime configuration on the paper's 4-way
// SMP, whose memory loads take 120–150 cycles: its second-level DEAR
// filter sits at 180. ConfigFor returns the configuration for a given
// machine.
func DefaultConfig(strategy Strategy) Config {
	return Config{
		Strategy:               strategy,
		Sampling:               perfmon.DefaultConfig(),
		OptimizeInterval:       50_000,
		CoherentShareThreshold: 0.15,
		MinCoherentEvents:      24,
		CoherentLatency:        180,
		MinLoopSamples:         4,
		MinDelinquentSamples:   2,
		UseTraceCache:          true,
		RollbackTolerance:      0.03,
	}
}

// ConfigFor returns the runtime configuration of strategy on the machine
// whose memory system is mc: DefaultConfig, with the second-level DEAR
// filter above that machine's slowest memory load, so that only loads
// served from another CPU's cache count as coherent misses (§4). Remote
// memory loads on the Altix reach ~385 cycles, so a NUMA machine filters
// at 420; the SMP keeps 180.
func ConfigFor(strategy Strategy, mc mem.Config) Config {
	c := DefaultConfig(strategy)
	if mc.NUMA {
		c.CoherentLatency = 420
	}
	return c
}
