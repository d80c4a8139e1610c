package obs

import "fmt"

// WindowFact is one optimizer pass: the profiling window it closed,
// from the previous pass (Start) to this one (End), and COBRA's counts.
type WindowFact struct {
	Index                            int // window ordinal, from 0
	Start, End                       int64
	Samples, L2Misses, BusHitm       int64
	IPC, CoherentShare, GlobalIPCEMA float64
	Counts                           []Count // cumulative
}

// Count is one named cumulative counter.
type Count struct {
	Name  string
	Value int64
}

// WindowClosed projects one pass: the window's span on the optimizer
// track; its gauges and histograms, the counts and a snapshot in the
// registry; and that snapshot, with its counter deltas, as the pass's one
// KindWindow bus event.
func (o *Observer) WindowClosed(f WindowFact) {
	if o == nil {
		return
	}
	if o.trace != nil {
		o.trace.Span("window", fmt.Sprintf("window %d", f.Index), TIDOptimizer, f.Start, f.End, map[string]any{
			"samples": f.Samples, "ipc": f.IPC, "coherent_share": f.CoherentShare,
			"l2_misses": f.L2Misses, "bus_hitm": f.BusHitm,
		})
	}
	reg := o.metrics
	if reg == nil {
		return
	}
	reg.Gauge("cobra.window_ipc").Set(f.IPC)
	reg.Gauge("cobra.window_coherent_share").Set(f.CoherentShare)
	reg.Gauge("cobra.global_ipc_ema").Set(f.GlobalIPCEMA)
	reg.Histogram("cobra.window_samples").Observe(float64(f.Samples))
	reg.Histogram("cobra.pass_cycles").Observe(float64(f.End - f.Start))
	for _, c := range f.Counts {
		n := reg.Counter(c.Name)
		n.Add(c.Value - n.Value())
	}
	reg.Snapshot(f.Index, f.End)
	if o.bus != nil {
		o.bus.Publish(KindWindow, f.End, reg.windowEvent())
	}
}

// USBDrained projects one drain of cpu's user sampling buffer: an instant
// on the optimizer track, if the buffer held samples.
func (o *Observer) USBDrained(cycle int64, cpu, samples int) {
	if o != nil && o.trace != nil && samples > 0 {
		o.trace.Instant("monitor", "usb drain", TIDOptimizer, cycle, map[string]any{"cpu": cpu, "samples": samples})
	}
}

// TriggerEvaluated projects one evaluation of the coherent-miss trigger
// over its horizon: an instant on the optimizer track.
func (o *Observer) TriggerEvaluated(cycle int64, coherentShare float64, busHitm int64, fired bool) {
	if o != nil && o.trace != nil {
		o.trace.Instant("trigger", "trigger eval", TIDOptimizer, cycle, map[string]any{
			"coherent_share": coherentShare, "bus_hitm": busHitm, "fired": fired,
		})
	}
}

// Sampled projects one perfmon capture on cpu: perfmon.samples counts it,
// perfmon.dropped too if no monitoring thread took it (both exist from
// the first capture on), and with sample events on it is an instant on
// the CPU's track.
func (o *Observer) Sampled(cpu int, cycle int64, pc, thread int, delivered bool) {
	if o == nil {
		return
	}
	o.metrics.Counter("perfmon.samples").Inc()
	dropped := o.metrics.Counter("perfmon.dropped")
	if !delivered {
		dropped.Inc()
	}
	if o.sampleEvents && o.trace != nil {
		o.trace.Instant("perfmon", "sample", cpu, cycle, map[string]any{"pc": pc, "thread": thread})
	}
}

// DecisionFact is one patch-lifecycle transition of the region whose loop
// head is Region, in window Window. A deployment also carries its
// dispatched variant: the slots it wrote, the instructions it rewrote and
// whether it runs from a trace-cache copy. ActiveSince is the dispatch
// cycle of the live variant the transition ends (a judgement's switch or
// rollback), 0 if it ends none.
type DecisionFact struct {
	Cycle            int64
	Region           uint64
	Window           int
	To               PatchState
	Reason           string
	Evidence         Evidence
	Slots, Rewritten int
	Trace            bool
	ActiveSince      int64
}

// Decided projects one transition: the ended variant's "active" span and
// the transition's instant on the patch track, one decision-log record,
// and that record as a KindDecision bus event.
func (o *Observer) Decided(f DecisionFact) {
	if o == nil {
		return
	}
	if o.trace != nil {
		o.traceDecision(f)
	}
	if o.decisions != nil {
		d := o.decisions.Record(f.Cycle, f.Region, f.Window, f.To, f.Reason, f.Evidence)
		if o.bus != nil {
			o.bus.Publish(KindDecision, f.Cycle, d)
		}
	}
}

func (o *Observer) traceDecision(f DecisionFact) {
	ev := f.Evidence
	if f.ActiveSince > 0 {
		o.trace.Span("patch", fmt.Sprintf("active %s @%#x", ev.Rewrite, f.Region),
			TIDPatch, f.ActiveSince, f.Cycle, map[string]any{"region": f.Region})
	}
	name := string(f.To)
	args := map[string]any{"region": f.Region}
	switch f.To {
	case StateCandidate:
		name = "candidate " + ev.Rewrite
		args["coherent_share"] = ev.CoherentShare
	case StateDeployed:
		name = "deployed " + ev.Rewrite
		args["slots"], args["rewritten"], args["trace"] = f.Slots, f.Rewritten, f.Trace
		args["baseline_ipc"] = ev.BaselineIPC
	case StateBlocked:
		args["reason"] = f.Reason
	case StateSwitched:
		name = "switched " + ev.Variant
		args["variant"] = ev.Variant
		fallthrough
	default: // kept, rolled back, switched: the judgement's numbers
		if f.To == StateRolledBack {
			name = "rolled back"
		}
		args["baseline_ipc"] = ev.BaselineIPC
		args["patched_ipc"] = ev.PatchedIPC
	}
	o.trace.Instant("patch", fmt.Sprintf("%s @%#x", name, f.Region), TIDPatch, f.Cycle, args)
}
