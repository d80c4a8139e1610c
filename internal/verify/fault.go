package verify

import (
	"fmt"

	"repro/internal/cobra"
	"repro/internal/hpm"
	"repro/internal/obs"
	"repro/internal/perfmon"
)

// FaultKind is one way of perturbing COBRA's control loop. Faults attack
// the sample path between the PMU and the User Sampling Buffer — the
// channel every control decision flows through — and the harness demands
// the runtime degrade to not patching (or to patching semantics-neutral
// rewrites) rather than crash or corrupt the program.
type FaultKind int

const (
	// FaultNone leaves the sample path healthy — the control run that
	// proves the loop genuinely patches generated programs, so the
	// no-patch assertions of the starved faults are falsifiable rather
	// than vacuous.
	FaultNone FaultKind = iota
	// FaultDropDrains kills the monitoring thread's copy into the USB:
	// every sample is stolen before Push, so the optimizer drains empty
	// buffers forever. No evidence must mean no patches.
	FaultDropDrains
	// FaultZeroWindows delivers samples whose counters, BTB and DEAR are
	// all zeroed — windows full of samples that carry no signal. Zero
	// evidence must mean no patches.
	FaultZeroWindows
	// FaultCorruptSamples delivers samples with garbage PCs, BTB pairs
	// and DEAR records (half of them pointing outside the binary) and
	// inflated counters. The analyzer's structural guards must reject the
	// garbage or produce only semantics-neutral patches; the program's
	// architectural result must be unaffected either way.
	FaultCorruptSamples
)

// AllFaults returns every fault kind (including the healthy-path
// control), in deterministic order.
func AllFaults() []FaultKind {
	return []FaultKind{FaultNone, FaultDropDrains, FaultZeroWindows, FaultCorruptSamples}
}

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDropDrains:
		return "drop-drains"
	case FaultZeroWindows:
		return "zero-windows"
	case FaultCorruptSamples:
		return "corrupt-samples"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// wantNoPatches reports whether the fault starves the control loop of
// evidence, in which case deploying anything is a mis-judgment.
func (k FaultKind) wantNoPatches() bool {
	return k == FaultDropDrains || k == FaultZeroWindows
}

// FaultResult is the verdict of one fault-injection run.
type FaultResult struct {
	Kind          string // control/fault, e.g. "layout/trace/corrupt-samples"
	Cycles        int64
	Patches       int64 // deploys the perturbed controller performed
	WantNoPatches bool

	LifecycleViolations []string // illegal decision-log transitions
	InvariantViolations []string // online MESI checks
	Mismatches          []string // architectural state vs unmonitored baseline
	Err                 string   // run error or recovered panic
}

// Failed reports whether the run degraded ungracefully.
func (f *FaultResult) Failed() bool {
	return f.Err != "" || len(f.LifecycleViolations) > 0 ||
		len(f.InvariantViolations) > 0 || len(f.Mismatches) > 0 ||
		(f.WantNoPatches && f.Patches > 0)
}

// Problems renders the failures as one line each.
func (f *FaultResult) Problems() []string {
	var out []string
	pre := "fault " + f.Kind + ": "
	if f.Err != "" {
		out = append(out, pre+"run error: "+f.Err)
	}
	if f.WantNoPatches && f.Patches > 0 {
		out = append(out, fmt.Sprintf("%sdeployed %d patches with no sample evidence", pre, f.Patches))
	}
	for _, v := range f.LifecycleViolations {
		out = append(out, pre+"lifecycle: "+v)
	}
	for _, v := range f.InvariantViolations {
		out = append(out, pre+"invariant: "+v)
	}
	for _, v := range f.Mismatches {
		out = append(out, pre+"state: "+v)
	}
	return out
}

// FaultControl is one control-loop configuration the battery perturbs:
// a strategy and the patcher mode it deploys through.
type FaultControl struct {
	Strategy cobra.Strategy
	Trace    bool
}

// String names the control by its engine: adaptive runs the prefetch
// engine.
func (c FaultControl) String() string {
	name := c.Strategy.String()
	if c.Strategy == cobra.StrategyAdaptive {
		name = "prefetch"
	}
	if c.Trace {
		return name + "/trace"
	}
	return name + "/inplace"
}

// FaultControls returns the configurations the battery runs under: the
// in-place prefetch engine (the paper's ablation arm), then every engine
// in trace mode, in name order.
func FaultControls() []FaultControl {
	return []FaultControl{
		{Strategy: cobra.StrategyAdaptive},
		{Strategy: cobra.StrategyCausal, Trace: true},
		{Strategy: cobra.StrategyLayout, Trace: true},
		{Strategy: cobra.StrategyMultiVersion, Trace: true},
		{Strategy: cobra.StrategyAdaptive, Trace: true},
	}
}

// faultControlConfig is the COBRA configuration fault runs drive: the
// controller under ctl, with thresholds floored so that on a
// healthy sample path a short generated program is enough to trigger
// patching — which is what makes the no-patch assertion under starved
// faults meaningful.
func faultControlConfig(ctl FaultControl) cobra.Config {
	cfg := cobra.DefaultConfig(ctl.Strategy)
	cfg.UseTraceCache = ctl.Trace
	cfg.OptimizeInterval = 1_000
	cfg.MinCoherentEvents = 1
	cfg.CoherentShareThreshold = 0.01
	cfg.CoherentLatency = 100
	cfg.MinLoopSamples = 1
	cfg.MinDelinquentSamples = 1
	cfg.Sampling.CyclePeriod = 400
	cfg.Sampling.DEARMinLatency = 50
	cfg.Obs = obs.New(obs.Config{Decisions: true})
	return cfg
}

// mix64 is a splitmix-style finalizer: the deterministic garbage source
// for corrupt-sample faults. Deriving garbage from the sample's own
// coordinates keeps fault runs reproducible without shared PRNG state.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// faultHandler wraps the genuine USB push with the fault's perturbation.
// imgLen scales garbage PCs so roughly half land inside the binary (where
// the analyzer must bound-check regions) and half outside (where FuncAt
// must reject them).
func faultHandler(kind FaultKind, cpu int, imgLen int, push perfmon.Handler) perfmon.Handler {
	switch kind {
	case FaultDropDrains:
		return func(perfmon.Sample) {}
	case FaultZeroWindows:
		return func(s perfmon.Sample) {
			for i := range s.Counters {
				s.Counters[i].Value = 0
			}
			s.BTB = nil
			s.DEAR = hpm.DEARSample{}
			push(s)
		}
	case FaultCorruptSamples:
		return func(s perfmon.Sample) {
			h := uint64(s.Cycle)*0x9e3779b97f4a7c15 + uint64(cpu+1)
			next := func() uint64 { h = mix64(h + 0x632be59bd9b4e019); return h }
			pcSpace := uint64(2 * imgLen)
			s.PC = int(next() % pcSpace)
			btb := make([]hpm.BranchPair, hpm.BTBEntries)
			for i := range btb {
				btb[i] = hpm.BranchPair{
					BranchPC: int(next() % pcSpace),
					TargetPC: int(next() % pcSpace),
				}
			}
			s.BTB = btb
			for i := range s.Counters {
				s.Counters[i].Value = int64(next() % 100_000)
			}
			s.DEAR = hpm.DEARSample{
				PC:      int(next() % pcSpace),
				Addr:    next() % (1 << 24),
				Latency: int64(next() % 5_000),
				Valid:   next()%2 == 0,
			}
			push(s)
		}
	}
	return push
}

// RunFault executes p under a full COBRA control loop (configured by
// ctl) whose sample path is perturbed by kind, and asserts graceful
// degradation: the run
// terminates, the decision log replays legally, MESI invariants hold,
// starved controllers deploy nothing, and the architectural result is
// bit-identical to baseline (COBRA's rewrites are all semantics-neutral,
// so even garbage-driven patches must not change values). baseline is the
// unmonitored reference state from the differential oracle.
func RunFault(p *Program, baseline *archState, kind FaultKind, ctl FaultControl) (res FaultResult) {
	res = FaultResult{Kind: ctl.String() + "/" + kind.String(), WantNoPatches: kind.wantNoPatches()}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()

	env, err := setupRun(p, nil)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	cb := cobra.New(env.m, faultControlConfig(ctl))
	env.rt.OnFork = func(tid, cpu int) {
		cb.MonitorThread(tid, cpu)
		// Interpose on the monitor path: replace the genuine handler with
		// the perturbed one, forwarding (or not) into the real USB.
		u := cb.USB(cpu)
		cb.Driver().Attach(cpu, faultHandler(kind, cpu, env.img.Len(), u.Push))
	}
	if err := env.run(p); err != nil {
		res.Err = err.Error()
		return res
	}

	res.Cycles = env.m.GlobalCycle()
	res.Patches = cb.Stats().PatchesApplied
	res.LifecycleViolations = cb.Observer().Decisions().Violations()
	res.InvariantViolations = env.m.Domain().InvariantViolations()
	if baseline != nil {
		res.Mismatches = diffStates(baseline, snapshotState(env.m), diffLimit)
	}
	return res
}
