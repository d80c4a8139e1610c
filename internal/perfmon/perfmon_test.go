package perfmon

import (
	"testing"

	"repro/internal/hpm"
	"repro/internal/ia64"
	"repro/internal/machine"
)

// loopImage builds a long counted loop with a load per iteration.
func loopImage(iters int64) (*ia64.Image, int) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "work")
	a.Emit(ia64.Instr{Op: ia64.OpMovToLCI, Imm: iters})
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpLd, R1: 9, R2: 8})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 8, R2: 8, Imm: 8})
	a.Br(ia64.BrCloop, 0, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		panic(err)
	}
	return img, entry
}

func testSetup(t *testing.T, iters int64, cfg Config) (*machine.Machine, *Driver, int) {
	t.Helper()
	img, entry := loopImage(iters)
	mcfg := machine.DefaultConfig(2)
	mcfg.Mem.MemBytes = 32 << 20
	m, err := machine.New(mcfg, img)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(cfg, m)
	return m, d, entry
}

func TestSamplesDelivered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclePeriod = 1000
	m, d, entry := testSetup(t, 5000, cfg)

	var got []Sample
	d.Attach(0, func(s Sample) { got = append(got, s) })

	base := m.Memory().MustAlloc("a", 8*8192, 128)
	m.StartThread(0, entry, 7, func(rf *ia64.RegFile) { rf.SetGR(8, int64(base)) })
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no samples delivered")
	}
	s := got[0]
	if s.CPU != 0 || s.ThreadID != 7 {
		t.Fatalf("sample ids = %+v", s)
	}
	if s.PC < entry || s.PC > entry+8 {
		t.Fatalf("sample PC %d outside loop [%d,%d]", s.PC, entry, entry+8)
	}
	if s.Counters[0].Event != hpm.EvCPUCycles {
		t.Fatalf("slot 0 event = %v", s.Counters[0].Event)
	}
	// Sample indices increase monotonically.
	for i := 1; i < len(got); i++ {
		if got[i].Index <= got[i-1].Index {
			t.Fatal("sample indices not monotonic")
		}
	}
	if d.Dropped() != 0 {
		t.Fatalf("monitored CPU dropped %d samples", d.Dropped())
	}
}

func TestSamplingChargesOverhead(t *testing.T) {
	run := func(overhead int64) int64 {
		cfg := DefaultConfig()
		cfg.CyclePeriod = 500
		cfg.SampleOverhead = overhead
		m, d, entry := testSetup(t, 20000, cfg)
		d.Attach(0, func(Sample) {})
		base := m.Memory().MustAlloc("a", 8*32768, 128)
		m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(base)) })
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return m.CPU(0).Cycle
	}
	free := run(0)
	costly := run(500)
	if costly <= free {
		t.Fatalf("sampling overhead invisible: %d vs %d cycles", costly, free)
	}
}

// TestUnattachedCPUSamplesCountAsDropped: a CPU sampled before any
// monitoring thread attached still captures (and pays for) every sample,
// and each one counts as dropped — exactly as many as a monitored run of
// the same program delivers.
func TestUnattachedCPUSamplesCountAsDropped(t *testing.T) {
	run := func(monitored bool) (delivered int, d *Driver) {
		cfg := DefaultConfig()
		cfg.CyclePeriod = 1000
		m, d, entry := testSetup(t, 3000, cfg)
		if monitored {
			d.Attach(0, func(Sample) { delivered++ })
		}
		base := m.Memory().MustAlloc("a", 8*8192, 128)
		m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(base)) })
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return delivered, d
	}
	delivered, d := run(true)
	if delivered == 0 || d.Dropped() != 0 {
		t.Fatalf("monitored run: %d delivered, %d dropped", delivered, d.Dropped())
	}
	if _, d := run(false); d.Dropped() != int64(delivered) {
		t.Fatalf("unattached CPU dropped %d samples, want %d", d.Dropped(), delivered)
	}
}

func TestBTBInSamples(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclePeriod = 2000
	m, d, entry := testSetup(t, 10000, cfg)
	var last Sample
	d.Attach(0, func(s Sample) { last = s })
	base := m.Memory().MustAlloc("a", 8*16384, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(base)) })
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(last.BTB) != hpm.BTBEntries {
		t.Fatalf("BTB entries in sample = %d, want %d", len(last.BTB), hpm.BTBEntries)
	}
	// All BTB entries point at the loop: backward branch to entry+1.
	for _, e := range last.BTB {
		if e.TargetPC != entry+1 {
			t.Fatalf("BTB target %d, want %d", e.TargetPC, entry+1)
		}
	}
}

func TestDriverString(t *testing.T) {
	_, d, _ := testSetup(t, 1, DefaultConfig())
	if d.String() == "" {
		t.Fatal("empty driver description")
	}
}
