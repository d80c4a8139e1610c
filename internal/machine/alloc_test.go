package machine

import (
	"testing"

	"repro/internal/ia64"
	"repro/internal/obs"
)

// The simulator's per-instruction path must not allocate: steady-state
// throughput on the figure sweeps is bounded by this loop, and a single
// allocation per simulated instruction shows up as hundreds of megabytes
// of garbage per sweep. These regression tests pin the load/store and
// prefetch paths at zero allocations per stepped bundle group.

// warmSteps runs the CPU long enough to take the one-time allocations:
// decode-cache fill, sparse-memory chunk materialization, and cache/MSHR
// warm-up.
func warmSteps(t *testing.T, c *CPU, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.stepBundle(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestZeroAllocsLoadStorePath(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "ldst")
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpLd, R1: 11, R2: 8})
	a.Emit(ia64.Instr{Op: ia64.OpSt, R2: 9, R3: 11})
	a.Emit(ia64.Instr{Op: ia64.OpAdd, R1: 12, R2: 12, R3: 11})
	a.Br(ia64.BrAlways, 0, "top")
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, img, 1)
	src := m.Memory().MustAlloc("src", 4096, 128)
	dst := m.Memory().MustAlloc("dst", 4096, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetGR(8, int64(src))
		rf.SetGR(9, int64(dst))
	})
	c := m.CPU(0)
	warmSteps(t, c, 64)

	avg := testing.AllocsPerRun(2000, func() {
		if _, err := c.stepBundle(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("load/store path allocates %.2f objects per bundle group, want 0", avg)
	}
}

func TestZeroAllocsPrefetchPath(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "pf")
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpLfetch, R2: 8, Hint: ia64.HintNT1})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 8, R2: 8, Imm: 128})
	a.Br(ia64.BrAlways, 0, "top")
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, img, 1)
	// Large enough that the advancing prefetch stream stays in range for
	// the whole measured run: every step issues real Domain prefetches
	// (L2/L3 misses, MSHR claims, bus transactions), not the non-faulting
	// drop path.
	buf := m.Memory().MustAlloc("buf", 4<<20, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(buf)) })
	c := m.CPU(0)
	warmSteps(t, c, 64)

	avg := testing.AllocsPerRun(2000, func() {
		if _, err := c.stepBundle(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("prefetch path allocates %.2f objects per bundle group, want 0", avg)
	}
}

// Observability must be free when idle: attaching an Observer whose
// surfaces are all disabled (the production default — cobra.New installs
// the machine's observer even when no -trace/-metrics flag was given) must
// not add a single allocation to the per-instruction path.
func TestZeroAllocsLoadStorePathWithObserver(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "ldst-obs")
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpLd, R1: 11, R2: 8})
	a.Emit(ia64.Instr{Op: ia64.OpSt, R2: 9, R3: 11})
	a.Emit(ia64.Instr{Op: ia64.OpAdd, R1: 12, R2: 12, R3: 11})
	a.Br(ia64.BrAlways, 0, "top")
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, img, 1)
	m.SetObserver(obs.New(obs.Config{}))
	src := m.Memory().MustAlloc("src", 4096, 128)
	dst := m.Memory().MustAlloc("dst", 4096, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetGR(8, int64(src))
		rf.SetGR(9, int64(dst))
	})
	c := m.CPU(0)
	warmSteps(t, c, 64)

	avg := testing.AllocsPerRun(2000, func() {
		if _, err := c.stepBundle(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("load/store path with observer allocates %.2f objects per bundle group, want 0", avg)
	}
}
