package cobra

import (
	"sort"

	"repro/internal/hpm"
	"repro/internal/perfmon"
)

// USB is a User Sampling Buffer: the per-monitoring-thread store a
// monitoring thread copies kernel samples into (paper §3.1). The
// optimization thread drains USBs on each pass.
type USB struct {
	CPU     int
	samples []perfmon.Sample
}

// Push appends a sample (called by the monitoring thread).
func (u *USB) Push(s perfmon.Sample) {
	u.samples = append(u.samples, s)
}

// Drain returns and clears buffered samples.
func (u *USB) Drain() []perfmon.Sample {
	out := u.samples
	u.samples = nil
	return out
}

// LoopKey identifies a loop discovered from BTB profiles: the backward
// taken branch and its target.
type LoopKey struct {
	Head     int // branch target (loop body entry)
	BranchPC int // backward branch address
}

// LoopStat is the observation count of one loop.
type LoopStat struct {
	Key   LoopKey
	Count int64
}

// BranchEdge is one taken control transfer observed through the BTB:
// branch slot → target slot, in image addresses. Unlike LoopKey it keeps
// forward branches too — the raw material of basic-block layout.
type BranchEdge struct {
	From int
	To   int
}

// EdgeStat is the observation count of one taken edge.
type EdgeStat struct {
	Edge  BranchEdge
	Count int64
}

// Delinquent aggregates DEAR captures of one load instruction that passed
// the coherent-latency filter.
type Delinquent struct {
	PC       int
	Count    int64
	TotalLat int64
	LastAddr uint64
}

// AvgLatency returns the mean observed latency.
func (d Delinquent) AvgLatency() int64 {
	if d.Count == 0 {
		return 0
	}
	return d.TotalLat / d.Count
}

// Window is one aggregation window's system-wide profile: counter deltas
// summed over all threads plus the loop and delinquent-load histograms.
type Window struct {
	Cycles   int64
	Instr    int64
	L2Misses int64
	BusHitm  int64
	Samples  int64
}

// IPC is retired instructions per cycle — the progress metric the
// re-adaptation controller compares before and after a patch. Unlike
// miss-per-cycle ratios it cannot be "improved" by simply running slower.
func (w Window) IPC() float64 {
	if w.Cycles == 0 {
		return 0
	}
	return float64(w.Instr) / float64(w.Cycles)
}

// CoherentShare returns the fraction of cache misses that are coherent
// (dirty-snoop) events. The paper's noprefetch filter requires coherent
// misses to dominate before removing prefetches — removing prefetches that
// hide plain capacity misses would regress (§5.2.1's filtering heuristic).
func (w Window) CoherentShare() float64 {
	if w.L2Misses == 0 {
		return 0
	}
	return float64(w.BusHitm) / float64(w.L2Misses)
}

// Profiler aggregates samples from all monitoring threads into system-wide
// loop and delinquent-load histograms (the paper's system-wide profile
// analysis: "optimization decisions are based on profiles collected from
// multiple threads").
type Profiler struct {
	coherentLatency int64

	prev map[int][hpm.NumCounters]hpm.Counter // last counter snapshot per CPU

	window     Window
	loops      map[LoopKey]int64
	edges      map[BranchEdge]int64
	delinquent map[int]*Delinquent
}

// NewProfiler creates a profiler with the given DEAR coherent-latency
// threshold (second-level filter).
func NewProfiler(coherentLatency int64) *Profiler {
	return &Profiler{
		coherentLatency: coherentLatency,
		prev:            map[int][hpm.NumCounters]hpm.Counter{},
		loops:           map[LoopKey]int64{},
		edges:           map[BranchEdge]int64{},
		delinquent:      map[int]*Delinquent{},
	}
}

// Add folds one sample into the current window.
func (p *Profiler) Add(s perfmon.Sample) {
	p.window.Samples++

	// Counter deltas vs the previous sample from the same CPU.
	if prev, ok := p.prev[s.CPU]; ok {
		for i := 0; i < hpm.NumCounters; i++ {
			d := s.Counters[i].Value - prev[i].Value
			if d < 0 {
				d = 0
			}
			switch s.Counters[i].Event {
			case hpm.EvCPUCycles:
				p.window.Cycles += d
			case hpm.EvL2Misses:
				p.window.L2Misses += d
			case hpm.EvInstRetired:
				p.window.Instr += d
			case hpm.EvBusCoherent:
				p.window.BusHitm += d
			}
		}
	}
	p.prev[s.CPU] = s.Counters

	// BTB: backward taken branches are loop latches; every taken pair
	// (forward skips included) also feeds the edge profile block layout
	// consumes.
	for _, b := range s.BTB {
		if b.TargetPC <= b.BranchPC {
			p.loops[LoopKey{Head: b.TargetPC, BranchPC: b.BranchPC}]++
		}
		p.edges[BranchEdge{From: b.BranchPC, To: b.TargetPC}]++
	}

	// DEAR: second-level latency filter isolates coherent misses.
	if s.DEAR.Valid && s.DEAR.Latency >= p.coherentLatency {
		d := p.delinquent[s.DEAR.PC]
		if d == nil {
			d = &Delinquent{PC: s.DEAR.PC}
			p.delinquent[s.DEAR.PC] = d
		}
		d.Count++
		d.TotalLat += s.DEAR.Latency
		d.LastAddr = s.DEAR.Addr
	}
}

// Window returns the current window totals.
func (p *Profiler) Window() Window { return p.window }

// LoopActivity returns the observation count of one loop in the current
// window (0 if unseen).
func (p *Profiler) LoopActivity(k LoopKey) int64 { return p.loops[k] }

// HotLoops returns loops observed at least minSamples times, hottest
// first.
func (p *Profiler) HotLoops(minSamples int64) []LoopStat {
	var out []LoopStat
	for k, c := range p.loops {
		if c >= minSamples {
			out = append(out, LoopStat{Key: k, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Key.Head != out[j].Key.Head {
			return out[i].Key.Head < out[j].Key.Head
		}
		return out[i].Key.BranchPC < out[j].Key.BranchPC
	})
	return out
}

// TakenEdges returns every taken branch edge observed in the current
// window with its count, ordered by (From, To) so engines can fold the
// window profile into their own accumulators without map iteration order
// leaking into decisions.
func (p *Profiler) TakenEdges() []EdgeStat {
	out := make([]EdgeStat, 0, len(p.edges))
	for e, c := range p.edges {
		out = append(out, EdgeStat{Edge: e, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Edge.From != out[j].Edge.From {
			return out[i].Edge.From < out[j].Edge.From
		}
		return out[i].Edge.To < out[j].Edge.To
	})
	return out
}

// DelinquentLoads returns loads with at least minSamples coherent-latency
// captures, most frequent first.
func (p *Profiler) DelinquentLoads(minSamples int64) []Delinquent {
	var out []Delinquent
	for _, d := range p.delinquent {
		if d.Count >= minSamples {
			out = append(out, *d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// ResetWindow clears window totals and histograms but keeps per-CPU
// counter baselines so the next window's deltas stay correct.
func (p *Profiler) ResetWindow() {
	p.window = Window{}
	p.loops = map[LoopKey]int64{}
	p.edges = map[BranchEdge]int64{}
	p.delinquent = map[int]*Delinquent{}
}
