package openmp

import (
	"testing"

	"repro/internal/ia64"
	"repro/internal/machine"
)

// scaleRegion builds an outlined region: for i in [r8,r9): a[i] *= 2.
// The array base is passed in r11 by the binder.
func scaleRegion(img *ia64.Image) ia64.Func {
	a := ia64.NewAsm(img, "scale")
	a.Emit(ia64.Instr{Op: ia64.OpSub, R1: 12, R2: RegHi, R3: RegLo}) // trip
	a.Emit(ia64.Instr{Op: ia64.OpCmpI, Rel: ia64.CmpLE, P1: 2, P2: 0, R2: 12, Imm: 0})
	a.Br(ia64.BrCond, 2, "done")
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 12, R2: 12, Imm: -1})
	a.Emit(ia64.Instr{Op: ia64.OpMovToLC, R2: 12})
	// cursor r13 = base + 8*lo
	a.Emit(ia64.Instr{Op: ia64.OpShlI, R1: 13, R2: RegLo, Imm: 3})
	a.Emit(ia64.Instr{Op: ia64.OpAdd, R1: 13, R2: 13, R3: 11})
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpLdf, R1: 7, R2: 13})
	a.Emit(ia64.Instr{Op: ia64.OpFAdd, R1: 7, R2: 7, R3: 7})
	a.Emit(ia64.Instr{Op: ia64.OpStf, R2: 13, R3: 7})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 13, R2: 13, Imm: 8})
	a.Br(ia64.BrCloop, 0, "top")
	a.Label("done")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	if _, err := a.Close(); err != nil {
		panic(err)
	}
	fn, _ := img.LookupFunc("scale")
	return fn
}

func setup(t *testing.T, ncpu int) (*machine.Machine, *ia64.Image) {
	t.Helper()
	img := ia64.NewImage()
	cfg := machine.DefaultConfig(ncpu)
	cfg.Mem.MemBytes = 32 << 20
	m, err := machine.New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	return m, img
}

func TestParallelForCoversIterationSpace(t *testing.T) {
	m, img := setup(t, 4)
	fn := scaleRegion(img)
	rt, err := NewRuntime(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1003 // deliberately not divisible by 4
	base := m.Memory().MustAlloc("a", 8*n, 128)
	for i := 0; i < n; i++ {
		m.Memory().WriteF64(base+uint64(8*i), float64(i))
	}
	err = rt.ParallelFor(fn, n, func(tid int, rf *ia64.RegFile) {
		rf.SetGR(11, int64(base))
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.Memory().ReadF64(base + uint64(8*i)); got != 2*float64(i) {
			t.Fatalf("a[%d] = %v, want %v", i, got, 2*float64(i))
		}
	}
}

func TestStaticPartitioningBoundsThreads(t *testing.T) {
	m, img := setup(t, 4)
	fn := scaleRegion(img)
	rt, _ := NewRuntime(m, 4)
	var bounds [][2]int64
	const n = 100
	base := m.Memory().MustAlloc("a", 8*n, 128)
	err := rt.ParallelFor(fn, n, func(tid int, rf *ia64.RegFile) {
		rf.SetGR(11, int64(base))
		bounds = append(bounds, [2]int64{rf.GR(RegLo), rf.GR(RegHi)})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{0, 25}, {25, 50}, {50, 75}, {75, 100}}
	if len(bounds) != 4 {
		t.Fatalf("bounds = %v", bounds)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("thread %d bounds = %v, want %v", i, bounds[i], want[i])
		}
	}
}

func TestFewerIterationsThanThreads(t *testing.T) {
	m, img := setup(t, 4)
	fn := scaleRegion(img)
	rt, _ := NewRuntime(m, 4)
	base := m.Memory().MustAlloc("a", 8*2, 128)
	m.Memory().WriteF64(base, 5)
	m.Memory().WriteF64(base+8, 6)
	if err := rt.ParallelFor(fn, 2, func(tid int, rf *ia64.RegFile) {
		rf.SetGR(11, int64(base))
	}); err != nil {
		t.Fatal(err)
	}
	if m.Memory().ReadF64(base) != 10 || m.Memory().ReadF64(base+8) != 12 {
		t.Fatal("short iteration space mishandled")
	}
	st := rt.Stats()
	if len(st) != 1 || st[0].Threads >= 4 {
		t.Fatalf("stats = %+v: idle threads counted as active", st)
	}
}

func TestJoinBarrierSynchronizesClocks(t *testing.T) {
	m, img := setup(t, 4)
	fn := scaleRegion(img)
	rt, _ := NewRuntime(m, 4)
	const n = 4096
	base := m.Memory().MustAlloc("a", 8*n, 128)
	if err := rt.ParallelFor(fn, n, func(tid int, rf *ia64.RegFile) {
		rf.SetGR(11, int64(base))
	}); err != nil {
		t.Fatal(err)
	}
	g := m.GlobalCycle()
	for c := 0; c < 4; c++ {
		if m.CPU(c).Cycle != g {
			t.Fatalf("CPU %d at %d, barrier at %d", c, m.CPU(c).Cycle, g)
		}
	}
}

func TestOnForkFiresOncePerThread(t *testing.T) {
	m, img := setup(t, 2)
	fn := scaleRegion(img)
	rt, _ := NewRuntime(m, 2)
	forks := map[int]int{}
	rt.OnFork = func(tid, cpu int) { forks[tid]++ }
	base := m.Memory().MustAlloc("a", 8*64, 128)
	for rep := 0; rep < 3; rep++ {
		if err := rt.ParallelFor(fn, 64, func(tid int, rf *ia64.RegFile) {
			rf.SetGR(11, int64(base))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(forks) != 2 || forks[0] != 1 || forks[1] != 1 {
		t.Fatalf("forks = %v, want one per thread", forks)
	}
}

func TestSerialRunsOnMaster(t *testing.T) {
	m, img := setup(t, 4)
	fn := scaleRegion(img)
	rt, _ := NewRuntime(m, 4)
	base := m.Memory().MustAlloc("a", 8*8, 128)
	m.Memory().WriteF64(base, 1)
	err := rt.Serial(fn, func(tid int, rf *ia64.RegFile) {
		rf.SetGR(RegLo, 0)
		rf.SetGR(RegHi, 8)
		rf.SetGR(11, int64(base))
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Memory().ReadF64(base) != 2 {
		t.Fatal("serial region did not run")
	}
	st := rt.Stats()
	if len(st) != 1 || st[0].Parallel {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTooManyThreadsRejected(t *testing.T) {
	m, _ := setup(t, 2)
	if _, err := NewRuntime(m, 3); err == nil {
		t.Fatal("accepted more threads than CPUs")
	}
}

func TestTotalCyclesAccumulates(t *testing.T) {
	m, img := setup(t, 2)
	fn := scaleRegion(img)
	rt, _ := NewRuntime(m, 2)
	base := m.Memory().MustAlloc("a", 8*256, 128)
	for i := 0; i < 2; i++ {
		if err := rt.ParallelFor(fn, 256, func(tid int, rf *ia64.RegFile) {
			rf.SetGR(11, int64(base))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if rt.TotalCycles() <= 0 {
		t.Fatal("no cycles recorded")
	}
}
