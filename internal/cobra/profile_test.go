package cobra

import (
	"testing"

	"repro/internal/hpm"
	"repro/internal/perfmon"
)

func mkSample(cpu int, cycles, l2m, instr, hitm int64) perfmon.Sample {
	var s perfmon.Sample
	s.CPU = cpu
	s.Counters[0] = hpm.Counter{Event: hpm.EvCPUCycles, Value: cycles}
	s.Counters[1] = hpm.Counter{Event: hpm.EvL2Misses, Value: l2m}
	s.Counters[2] = hpm.Counter{Event: hpm.EvInstRetired, Value: instr}
	s.Counters[3] = hpm.Counter{Event: hpm.EvBusCoherent, Value: hitm}
	return s
}

func TestProfilerCounterDeltas(t *testing.T) {
	p := NewProfiler(180)
	p.Add(mkSample(0, 1000, 10, 20, 2))
	p.Add(mkSample(0, 3000, 30, 60, 12))
	w := p.Window()
	if w.Cycles != 2000 || w.L2Misses != 20 || w.Instr != 40 || w.BusHitm != 10 {
		t.Fatalf("window = %+v", w)
	}
	if got := w.IPC(); got != 0.02 {
		t.Fatalf("IPC = %v, want 0.02", got)
	}
}

func TestProfilerPerCPUBaselines(t *testing.T) {
	p := NewProfiler(180)
	p.Add(mkSample(0, 1000, 0, 10, 0))
	p.Add(mkSample(1, 5000, 0, 50, 0)) // first sample from CPU1: baseline only
	p.Add(mkSample(1, 6000, 0, 55, 0))
	w := p.Window()
	if w.Cycles != 1000 || w.Instr != 5 {
		t.Fatalf("window mixed baselines across CPUs: %+v", w)
	}
}

func TestProfilerResetKeepsBaselines(t *testing.T) {
	p := NewProfiler(180)
	p.Add(mkSample(0, 1000, 0, 10, 0))
	p.ResetWindow()
	p.Add(mkSample(0, 1500, 0, 12, 0))
	w := p.Window()
	if w.Cycles != 500 || w.Instr != 2 {
		t.Fatalf("deltas wrong after reset: %+v", w)
	}
}

func TestProfilerLoopDiscovery(t *testing.T) {
	p := NewProfiler(180)
	s := mkSample(0, 100, 0, 0, 0)
	s.BTB = []hpm.BranchPair{
		{BranchPC: 50, TargetPC: 40}, // backward: loop
		{BranchPC: 50, TargetPC: 40},
		{BranchPC: 10, TargetPC: 90}, // forward: not a loop
	}
	p.Add(s)
	loops := p.HotLoops(2)
	if len(loops) != 1 || loops[0].Key != (LoopKey{Head: 40, BranchPC: 50}) || loops[0].Count != 2 {
		t.Fatalf("loops = %+v", loops)
	}
	if got := p.HotLoops(3); len(got) != 0 {
		t.Fatalf("min-samples filter failed: %+v", got)
	}
}

func TestProfilerDelinquentFilter(t *testing.T) {
	p := NewProfiler(180)
	s := mkSample(0, 100, 0, 0, 0)
	s.DEAR = hpm.DEARSample{PC: 7, Addr: 0x4000, Latency: 150, Valid: true}
	p.Add(s) // below coherent threshold: filtered
	s.DEAR.Latency = 200
	p.Add(s)
	p.Add(s)
	dl := p.DelinquentLoads(2)
	if len(dl) != 1 || dl[0].PC != 7 || dl[0].Count != 2 || dl[0].AvgLatency() != 200 {
		t.Fatalf("delinquent = %+v", dl)
	}
}

func TestUSB(t *testing.T) {
	u := &USB{CPU: 3}
	u.Push(perfmon.Sample{Index: 1})
	u.Push(perfmon.Sample{Index: 2})
	got := u.Drain()
	if len(got) != 2 {
		t.Fatalf("drain = %v", got)
	}
	if len(u.Drain()) != 0 {
		t.Fatal("second drain non-empty")
	}
}

func TestWindowMetrics(t *testing.T) {
	w := Window{Cycles: 1000, Instr: 500, L2Misses: 5, BusHitm: 5}
	if got := w.IPC(); got != 0.5 {
		t.Fatalf("IPC = %v, want 0.5", got)
	}
	var empty Window
	if empty.IPC() != 0 {
		t.Fatal("empty window IPC")
	}
}
