package cobra

import (
	"testing"

	"repro/internal/hpm"
	"repro/internal/ia64"
	"repro/internal/obs"
	"repro/internal/perfmon"
)

// fakeContext satisfies perfmon.Context without a full machine, for
// runtime unit tests that never execute code.
type fakeContext struct {
	pmus []*hpm.PMU
}

func newFakeContext(n int) *fakeContext {
	c := &fakeContext{}
	for i := 0; i < n; i++ {
		c.pmus = append(c.pmus, hpm.NewPMU(i))
	}
	return c
}

func (c *fakeContext) NumCPUs() int                  { return len(c.pmus) }
func (c *fakeContext) PMU(cpu int) *hpm.PMU          { return c.pmus[cpu] }
func (c *fakeContext) SamplePC(cpu int) int          { return 0 }
func (c *fakeContext) SampleThreadID(cpu int) int    { return cpu }
func (c *fakeContext) SampleCycle(cpu int) int64     { return 0 }
func (c *fakeContext) ChargeCycles(cpu int, n int64) {}
func (c *fakeContext) Observer() *obs.Observer       { return nil }

func TestChooseRewriteEscalation(t *testing.T) {
	r := &Runtime{cfg: DefaultConfig(StrategyAdaptive)}
	st := &RegionState{}
	rw, ok := r.chooseRewrite(st)
	if !ok || rw != RewriteNop {
		t.Fatalf("first choice = %v,%v, want nop", rw, ok)
	}
	st.TriedNop = true
	rw, ok = r.chooseRewrite(st)
	if !ok || rw != RewriteExcl {
		t.Fatalf("second choice = %v,%v, want excl", rw, ok)
	}
	st.TriedExcl = true
	if _, ok := r.chooseRewrite(st); ok {
		t.Fatal("third choice should be exhausted")
	}
}

func TestChooseRewriteBlockedRegion(t *testing.T) {
	for _, s := range []Strategy{StrategyNoprefetch, StrategyExcl, StrategyAdaptive} {
		r := &Runtime{cfg: DefaultConfig(s)}
		st := &RegionState{Blocked: true}
		if _, ok := r.chooseRewrite(st); ok {
			t.Fatalf("strategy %v patched a blocked region", s)
		}
	}
}

func TestChooseRewriteFixedStrategies(t *testing.T) {
	rNop := &Runtime{cfg: DefaultConfig(StrategyNoprefetch)}
	if rw, ok := rNop.chooseRewrite(&RegionState{}); !ok || rw != RewriteNop {
		t.Fatal("noprefetch strategy must choose nop")
	}
	rExcl := &Runtime{cfg: DefaultConfig(StrategyExcl)}
	if rw, ok := rExcl.chooseRewrite(&RegionState{}); !ok || rw != RewriteExcl {
		t.Fatal("excl strategy must choose excl")
	}
	rOff := &Runtime{cfg: DefaultConfig(StrategyOff)}
	if _, ok := rOff.chooseRewrite(&RegionState{}); ok {
		t.Fatal("off strategy chose a rewrite")
	}
}

func TestRewriteApply(t *testing.T) {
	in := mustLfetch()
	nop := RewriteNop.apply(in)
	if nop.Op.String() != "nop" || nop.QP != in.QP {
		t.Fatalf("nop rewrite = %+v", nop)
	}
	excl := RewriteExcl.apply(in)
	if excl.Op != in.Op || excl.Hint.String() != ".excl" || excl.R2 != in.R2 {
		t.Fatalf("excl rewrite = %+v", excl)
	}
	if RewriteNop.String() != "nop" || RewriteExcl.String() != "excl" {
		t.Fatal("rewrite names")
	}
}

// TestTriggerHorizonSuppressesClusters replays the failure mode that
// motivated the horizon: windows alternating between quiet (few misses,
// clustered coherent events) and busy (streaming misses) must not trigger,
// while sustained coherent pressure must.
func TestTriggerHorizonSuppressesClusters(t *testing.T) {
	ctx := newFakeContext(1)
	// A Runtime without machine/timer: drive optimizePass by hand.
	r := &Runtime{
		cfg:     DefaultConfig(StrategyOff),
		driver:  perfmon.NewDriver(perfmon.DefaultConfig(), ctx),
		usbs:    make([]*USB, 1),
		prof:    NewProfiler(180),
		regions: map[LoopKey]*RegionState{},
		engine:  prefetchEngine{},
	}
	r.usbs[0] = &USB{CPU: 0}

	cum := struct{ cyc, l2m, instr, hitm int64 }{}
	push := func(cyc, l2m, hitm int64) {
		cum.cyc += cyc
		cum.l2m += l2m
		cum.instr += cyc / 2
		cum.hitm += hitm
		var s perfmon.Sample
		s.CPU = 0
		s.Counters[0] = hpm.Counter{Event: hpm.EvCPUCycles, Value: cum.cyc}
		s.Counters[1] = hpm.Counter{Event: hpm.EvL2Misses, Value: cum.l2m}
		s.Counters[2] = hpm.Counter{Event: hpm.EvInstRetired, Value: cum.instr}
		s.Counters[3] = hpm.Counter{Event: hpm.EvBusCoherent, Value: cum.hitm}
		r.usbs[0].Push(s)
	}
	push(1000, 0, 0) // baseline sample

	// Alternating quiet-cluster / busy-streaming windows: aggregate share
	// stays low, so no trigger.
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			push(100_000, 40, 36) // cluster: high share in isolation
		} else {
			push(100_000, 8000, 0) // streaming: dilutes the aggregate
		}
		r.optimizePass(int64(i+1) * 50_000)
	}
	if got := r.Stats().Triggers; got != 0 {
		t.Fatalf("clustered pattern triggered %d times", got)
	}

	// Sustained coherent pressure: every window coherent-heavy.
	for i := 0; i < 4; i++ {
		push(100_000, 120, 90)
		r.optimizePass(int64(i+100) * 50_000)
	}
	if r.Stats().Triggers == 0 {
		t.Fatal("sustained coherent pressure never triggered")
	}
}

func TestStatsSnapshot(t *testing.T) {
	r := &Runtime{}
	r.stats.PatchesApplied = 3
	s := r.Stats()
	s.PatchesApplied = 99
	if r.Stats().PatchesApplied != 3 {
		t.Fatal("Stats returned a live reference")
	}
}

func TestStrategyNames(t *testing.T) {
	want := map[Strategy]string{
		StrategyOff:        "off",
		StrategyNoprefetch: "noprefetch",
		StrategyExcl:       "prefetch.excl",
		StrategyAdaptive:   "adaptive",
	}
	for s, n := range want {
		if s.String() != n {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), n)
		}
	}
}

func TestDefaultConfigSanity(t *testing.T) {
	c := DefaultConfig(StrategyNoprefetch)
	if c.OptimizeInterval <= 0 || c.CoherentLatency <= 0 ||
		c.CoherentShareThreshold <= 0 {
		t.Fatalf("default config has zero knobs: %+v", c)
	}
	if c.CoherentLatency <= c.Sampling.DEARMinLatency {
		t.Fatal("second-level DEAR filter must exceed the first-level filter")
	}
}

// mustLfetch builds the canonical lfetch.nt1 instruction used by rewrite
// tests.
func mustLfetch() ia64.Instr {
	return ia64.Instr{Op: ia64.OpLfetch, R2: 43, Hint: ia64.HintNT1, QP: 16}
}
