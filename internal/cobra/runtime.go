package cobra

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/perfmon"
)

// Stats summarizes the runtime's activity for reports and tests.
type Stats struct {
	SamplesSeen       int64
	OptimizerPasses   int64
	Triggers          int64
	PatchesApplied    int64
	PatchesRolledBack int64
	PrefetchesNopped  int64
	PrefetchesExcl    int64
	LoadsBiased       int64
	TracesEmitted     int64
	VariantSwitches   int64
}

// counts names the Stats counters as a window fact carries them, so a
// run with metrics enabled exports them under "cobra.*" alongside the
// window gauges. An array keeps a pass without an observer from
// allocating.
func (s Stats) counts() [10]obs.Count {
	return [...]obs.Count{
		{Name: "cobra.samples_seen", Value: s.SamplesSeen},
		{Name: "cobra.optimizer_passes", Value: s.OptimizerPasses},
		{Name: "cobra.triggers", Value: s.Triggers},
		{Name: "cobra.patches_applied", Value: s.PatchesApplied},
		{Name: "cobra.patches_rolled_back", Value: s.PatchesRolledBack},
		{Name: "cobra.prefetches_nopped", Value: s.PrefetchesNopped},
		{Name: "cobra.prefetches_excl", Value: s.PrefetchesExcl},
		{Name: "cobra.loads_biased", Value: s.LoadsBiased},
		{Name: "cobra.traces_emitted", Value: s.TracesEmitted},
		{Name: "cobra.variant_switches", Value: s.VariantSwitches},
	}
}

// RegionState tracks one optimized (or previously optimized) loop for
// the adaptive controller: its deployment and the evidence the lifecycle
// judges it by. Engine-specific state (predictions, edge profiles) lives
// in the engines themselves, keyed by LoopKey.
type RegionState struct {
	// Deployment is the region's version table: live while a variant is
	// dispatched, resident at the original code after a rollback (an
	// engine may re-engage it), nil before the first deployment.
	Deployment *VariantSet
	Rewrite    Rewrite // the live (or last live) variant's rewrite
	Baseline   float64 // pre-patch IPC (loop-active windows)
	// ActiveWindows counts post-patch windows in which the patched loop
	// actually executed; ActiveAgg accumulates their profile. Judging only
	// loop-active windows keeps the before/after comparison phase-fair in
	// programs that alternate kernels. GlobalAgg accumulates every
	// post-patch window, catching patches that speed up their own loop
	// while slowing a downstream phase (e.g. removed prefetches that had
	// been warming the next kernel's data).
	ActiveWindows int
	ActiveAgg     Window
	GlobalAgg     Window
	GlobalBase    float64 // pre-patch whole-program IPC
	// PreIPC is an exponential moving average of whole-window IPC over
	// the windows in which this loop ran, maintained while the loop is
	// unpatched. It is the unbiased baseline a deployed patch is judged
	// against — the trigger windows themselves are the program's worst
	// moments and would flatter any patch.
	PreIPC    float64
	Judged    bool // at least one post-deployment judgement happened
	TriedNop  bool
	TriedExcl bool
	Blocked   bool // lifecycle ended: never re-patch
	Cooldown  int
	// DeployedAt is the cycle the live variant was dispatched — the start
	// of the patch-active span in the trace.
	DeployedAt int64
}

// Live reports whether a variant of the region is dispatched.
func (st *RegionState) Live() bool { return st.Deployment != nil && st.Deployment.Active() >= 0 }

// Runtime is one COBRA instance attached to a running machine: the
// optimization thread (a simulated-time timer), the per-working-thread
// monitoring threads (perfmon handlers feeding USBs), and the optimizer
// state.
type Runtime struct {
	cfg      Config
	m        *machine.Machine
	driver   *perfmon.Driver
	usbs     []*USB
	prof     *Profiler
	analyzer *Analyzer
	patcher  *Patcher

	// engine is the strategy engine driving judgement and deployment.
	engine Engine

	regions   map[LoopKey]*RegionState
	horizon   []Window
	globalEMA float64 // smoothed whole-program IPC
	stats     Stats

	// obs is the machine's observer (nil-safe: a zero Runtime records
	// nothing). windows is the ordinal of the next profiling window and
	// lastPass the cycle of the previous optimizer pass — together they
	// anchor window spans and metric snapshots in the cycle domain.
	obs      *obs.Observer
	windows  int
	lastPass int64
}

// emaAlpha is the smoothing factor of the pre-patch IPC baselines.
const emaAlpha = 0.3

// triggerHorizon is the number of optimizer windows aggregated for the
// trigger decision.
const triggerHorizon = 3

// New attaches COBRA to a machine. The instance starts monitoring as
// working threads fork (call MonitorThread from the OpenMP runtime's
// OnFork hook) and optimizes on its own simulated-time schedule. It
// records into the observer the machine has when New runs.
func New(m *machine.Machine, cfg Config) *Runtime {
	if cfg.OptimizeInterval <= 0 {
		cfg.OptimizeInterval = DefaultConfig(cfg.Strategy).OptimizeInterval
	}
	r := &Runtime{
		cfg:      cfg,
		m:        m,
		driver:   perfmon.NewDriver(cfg.Sampling, m),
		usbs:     make([]*USB, m.NumCPUs()),
		prof:     NewProfiler(cfg.CoherentLatency),
		analyzer: NewAnalyzer(m.Image(), m.Memory()),
		patcher:  NewPatcher(m.Image(), cfg.UseTraceCache),
		regions:  map[LoopKey]*RegionState{},
		obs:      m.Observer(),
		engine:   newEngine(cfg),
	}
	m.AddTimer(&machine.Timer{
		NextAt: cfg.OptimizeInterval,
		Fn: func(now int64) int64 {
			r.optimizePass(now)
			return now + r.cfg.OptimizeInterval
		},
	})
	return r
}

// Config returns the runtime configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Driver exposes the sampling driver (for tests and tools).
func (r *Runtime) Driver() *perfmon.Driver { return r.driver }

// USB returns the user sampling buffer attached to cpu, nil before the
// working thread on that CPU forked. Fault-injection harnesses use it to
// interpose on the monitor path: re-Attach a perfmon handler that drops or
// corrupts samples before forwarding into the real buffer.
func (r *Runtime) USB(cpu int) *USB { return r.usbs[cpu] }

// Stats returns a snapshot of the runtime's activity counters.
func (r *Runtime) Stats() Stats { return r.stats }

// ActiveDeployments returns the deployments with a dispatched variant,
// in region order.
func (r *Runtime) ActiveDeployments() []*VariantSet {
	var out []*VariantSet
	for _, st := range r.regions {
		if st.Live() {
			out = append(out, st.Deployment)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Region.Start != out[j].Region.Start {
			return out[i].Region.Start < out[j].Region.Start
		}
		return out[i].Region.End < out[j].Region.End
	})
	return out
}

// sortLoopKeys orders loop keys by full (Head, BranchPC) identity. Two
// distinct keys can share a Head (one loop entry, two backward branches),
// and sort.Slice is not stable, so a Head-only comparison would let map
// iteration order leak into trace/decision emission.
func sortLoopKeys(keys []LoopKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Head != keys[j].Head {
			return keys[i].Head < keys[j].Head
		}
		return keys[i].BranchPC < keys[j].BranchPC
	})
}

// MonitorThread creates the monitoring thread for a working thread: a USB
// plus a perfmon handler copying samples into it. Wire it to
// openmp.Runtime.OnFork — "a monitoring thread is created when a working
// thread is forked" (§3).
func (r *Runtime) MonitorThread(tid, cpu int) {
	if r.usbs[cpu] != nil {
		return
	}
	u := &USB{CPU: cpu}
	r.usbs[cpu] = u
	r.driver.Attach(cpu, u.Push)
}

// optimizePass is the optimization thread's periodic body: drain USBs,
// aggregate the system-wide profile, evaluate outstanding patches, and
// deploy new optimizations when coherent pressure warrants.
func (r *Runtime) optimizePass(now int64) {
	r.stats.OptimizerPasses++

	// Age region cooldowns at the top of the pass, before this pass's
	// evaluation can start a new one. Decrementing after the judgement
	// consumed one window of a fresh cooldown in the very pass that set it,
	// so a region rolled back with evaluateWindows=N could redeploy after
	// N-1 intervals while the decision log's CooldownUntil evidence claimed
	// the full N — the earliest redeploy pass now lands exactly on
	// CooldownUntil.
	for _, st := range r.regions {
		if st.Cooldown > 0 {
			st.Cooldown--
		}
	}

	for _, u := range r.usbs {
		if u == nil {
			continue
		}
		drained := u.Drain()
		for _, s := range drained {
			r.prof.Add(s)
		}
		r.stats.SamplesSeen += int64(len(drained))
		r.obs.USBDrained(now, u.CPU, len(drained))
	}
	win := r.prof.Window()

	// Both the trigger and patch evaluation are judged over a rolling
	// horizon of windows rather than a single window: coherent misses
	// cluster at phase boundaries (barriers, chunk edges), and a cluster
	// caught in one quiet window must not masquerade as sustained
	// coherent pressure — nor hide a sustained regression.
	r.horizon = append(r.horizon, win)
	if len(r.horizon) > triggerHorizon {
		r.horizon = r.horizon[1:]
	}
	var agg Window
	for _, hw := range r.horizon {
		agg.Samples += hw.Samples
		agg.Cycles += hw.Cycles
		agg.Instr += hw.Instr
		agg.L2Misses += hw.L2Misses
		agg.BusHitm += hw.BusHitm
	}
	// Maintain the unbiased pre-patch baselines: whole-program IPC, and
	// per hot loop the IPC of windows it ran in.
	if win.Cycles > 0 {
		if r.globalEMA == 0 {
			r.globalEMA = win.IPC()
		} else {
			r.globalEMA = (1-emaAlpha)*r.globalEMA + emaAlpha*win.IPC()
		}
	}
	for _, ls := range r.prof.HotLoops(r.cfg.MinLoopSamples) {
		st := r.regions[ls.Key]
		if st == nil {
			st = &RegionState{}
			r.regions[ls.Key] = st
		}
		if !st.Live() && win.Cycles > 0 {
			if st.PreIPC == 0 {
				st.PreIPC = win.IPC()
			} else {
				st.PreIPC = (1-emaAlpha)*st.PreIPC + emaAlpha*win.IPC()
			}
		}
	}

	// Continuous re-adaptation: every live deployment is periodically
	// re-judged against its pre-patch baseline metric, whichever engine
	// deployed it. What a regression does next is the engine's policy:
	// the default prefetch engine blocks a rolled-back region under fixed
	// strategies and escalates to the other rewrite in adaptive mode.
	r.judge(win, now)

	evaluated := len(r.horizon) == triggerHorizon && agg.Samples > 0
	fired := evaluated &&
		agg.BusHitm >= r.cfg.MinCoherentEvents &&
		agg.CoherentShare() >= r.cfg.CoherentShareThreshold
	if evaluated {
		r.obs.TriggerEvaluated(now, agg.CoherentShare(), agg.BusHitm, fired)
	}
	if fired {
		r.stats.Triggers++
		if r.cfg.Strategy != StrategyOff {
			r.propose(agg, now)
		}
	}

	counts := r.stats.counts()
	r.obs.WindowClosed(obs.WindowFact{
		Index: r.windows, Start: r.lastPass, End: now,
		Samples: win.Samples, IPC: win.IPC(), CoherentShare: win.CoherentShare(),
		L2Misses: win.L2Misses, BusHitm: win.BusHitm,
		GlobalIPCEMA: r.globalEMA, Counts: counts[:],
	})
	r.windows++
	r.lastPass = now
	r.prof.ResetWindow()
}

// chooseRewrite picks the rewrite for a region under the configured
// strategy. Adaptive mode tries noprefetch first and escalates to
// lfetch.excl after a rollback.
func (r *Runtime) chooseRewrite(st *RegionState) (Rewrite, bool) {
	if st.Blocked {
		return 0, false
	}
	switch r.cfg.Strategy {
	case StrategyNoprefetch:
		return RewriteNop, true
	case StrategyExcl:
		return RewriteExcl, true
	case StrategyAdaptive:
		if !st.TriedNop {
			return RewriteNop, true
		}
		if !st.TriedExcl {
			return RewriteExcl, true
		}
		return 0, false
	case StrategyBias:
		return RewriteBias, true
	}
	return 0, false
}

// selectPrefetches applies the association filters of §4: only prefetches
// streaming over the data structures whose loads miss coherently are
// touched, and lfetch.excl additionally requires the loop to store into
// that structure ("if a store operation soon follows the load ... it will
// not trigger an invalidation"). When binary analysis cannot resolve a
// target, the paper's coarser loop-boundary heuristic is used: every
// prefetch in the region.
func (r *Runtime) selectPrefetches(region Region, loads []Delinquent, rw Rewrite) []int {
	// The bias rewrite targets the delinquent loads themselves (their PCs
	// come straight from the DEAR), restricted to loads of data the loop
	// also stores — "if a store operation soon follows the load" (§4). It
	// needs no prefetches in the loop at all.
	if rw == RewriteBias {
		stored := r.analyzer.StoredSegments(region)
		var out []int
		for _, d := range loads {
			if !region.Contains(d.PC) {
				continue
			}
			if seg, ok := r.analyzer.SegmentOfAddr(d.LastAddr); !ok || !stored[seg.Name] {
				continue
			}
			out = append(out, d.PC)
		}
		return out
	}

	targets := r.analyzer.PrefetchTargets(region)
	all := r.analyzer.Prefetches(region)
	if len(all) == 0 {
		return nil
	}

	delinqSegs := map[string]bool{}
	for _, d := range loads {
		if seg, ok := r.analyzer.SegmentOfAddr(d.LastAddr); ok {
			delinqSegs[seg.Name] = true
		}
	}

	var want func(seg mem.Segment, known bool) bool
	switch rw {
	case RewriteNop:
		want = func(seg mem.Segment, known bool) bool {
			return !known || len(delinqSegs) == 0 || delinqSegs[seg.Name]
		}
	case RewriteExcl:
		stored := r.analyzer.StoredSegments(region)
		want = func(seg mem.Segment, known bool) bool {
			if !known {
				return false
			}
			if len(stored) > 0 && !stored[seg.Name] {
				return false
			}
			return len(delinqSegs) == 0 || delinqSegs[seg.Name]
		}
	}

	var out []int
	for _, pc := range all {
		seg, known := targets[pc]
		if want(seg, known) {
			out = append(out, pc)
		}
	}
	if len(out) == 0 && rw == RewriteNop {
		out = all // loop-boundary fallback
	}
	return out
}

// String describes the runtime configuration.
func (r *Runtime) String() string {
	return fmt.Sprintf("cobra{strategy=%s interval=%d trace=%v}",
		r.cfg.Strategy, r.cfg.OptimizeInterval, r.cfg.UseTraceCache)
}
