package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/hpm"
	"repro/internal/ia64"
	"repro/internal/mem"
)

func testMachine(t *testing.T, img *ia64.Image, ncpu int) *Machine {
	t.Helper()
	cfg := DefaultConfig(ncpu)
	cfg.Mem.MemBytes = 32 << 20
	m, err := New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// asmSumLoop builds: sum ints mem[base .. base+8*n) into r9 via a cloop.
func asmSumLoop(img *ia64.Image) int {
	a := ia64.NewAsm(img, "sum")
	// r8 = base (set by caller), r10 = n-1 for LC
	a.Emit(ia64.Instr{Op: ia64.OpMovToLC, R2: 10})
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 9, Imm: 0})
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpLd, R1: 11, R2: 8})
	a.Emit(ia64.Instr{Op: ia64.OpAdd, R1: 9, R2: 9, R3: 11})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 8, R2: 8, Imm: 8})
	a.Br(ia64.BrCloop, 0, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		panic(err)
	}
	return entry
}

func TestCountedLoopSum(t *testing.T) {
	img := ia64.NewImage()
	entry := asmSumLoop(img)
	m := testMachine(t, img, 1)

	base := m.Memory().MustAlloc("a", 8*10, 128)
	want := int64(0)
	for i := 0; i < 10; i++ {
		m.Memory().WriteI64(base+uint64(8*i), int64(i*3))
		want += int64(i * 3)
	}
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetGR(8, int64(base))
		rf.SetGR(10, 9) // LC = n-1
	})
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU(0).RF.GR(9); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// asmDaxpyCtop builds a software-pipelined y[i] += a*x[i] with rotating FP
// registers, structurally mirroring the paper's Figure 2.
func asmDaxpyCtop(img *ia64.Image) int {
	a := ia64.NewAsm(img, "daxpy_swp")
	// Inputs: r8=&x, r9=&y, r10=n, f6=a. Two pipeline stages: load(p16),
	// compute+store(p17). f32 rotates: value loaded under p16 is read as
	// f33 one rotation later.
	a.Emit(ia64.Instr{Op: ia64.OpClrrrb})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 10, R2: 10, Imm: -1})
	a.Emit(ia64.Instr{Op: ia64.OpMovToLC, R2: 10})
	a.Emit(ia64.Instr{Op: ia64.OpMovToECI, Imm: 2})
	// Prime the first stage predicate (p16 = true) before entering the
	// kernel, as "mov pr.rot = 1<<16" does in real SWP prologues.
	a.Emit(ia64.Instr{Op: ia64.OpCmpI, Rel: ia64.CmpEQ, P1: 16, P2: 0, R2: 0, Imm: 0})
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 11, Imm: 0}) // store cursor lags
	a.Label("top")
	// Stage 1 (p16): load x[i], y[i]
	a.Emit(ia64.Instr{Op: ia64.OpLdf, R1: 32, R2: 8, QP: 16}) // f32 = x[i]
	a.Emit(ia64.Instr{Op: ia64.OpLdf, R1: 40, R2: 9, QP: 16}) // f40 = y[i]
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 8, R2: 8, Imm: 8, QP: 16})
	// Stage 2 (p17): y' = a*x + y, store (addresses lag one element)
	a.Emit(ia64.Instr{Op: ia64.OpFma, R1: 48, R2: 6, R3: 33, Imm: 41, QP: 17}) // f48 = a*f33+f41
	a.Emit(ia64.Instr{Op: ia64.OpStf, R2: 12, R3: 48, QP: 17})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 12, R2: 12, Imm: 8, QP: 17})
	// y cursor for loads advances under p16; store cursor r12 initialized
	// to &y and advances under p17.
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 9, R2: 9, Imm: 8, QP: 16})
	a.Br(ia64.BrCtop, 0, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		panic(err)
	}
	return entry
}

func TestSoftwarePipelinedDaxpy(t *testing.T) {
	img := ia64.NewImage()
	entry := asmDaxpyCtop(img)
	m := testMachine(t, img, 1)

	const n = 37
	x := m.Memory().MustAlloc("x", 8*n, 128)
	y := m.Memory().MustAlloc("y", 8*n, 128)
	for i := 0; i < n; i++ {
		m.Memory().WriteF64(x+uint64(8*i), float64(i))
		m.Memory().WriteF64(y+uint64(8*i), float64(2*i))
	}
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetGR(8, int64(x))
		rf.SetGR(9, int64(y))
		rf.SetGR(10, n)
		rf.SetGR(12, int64(y))
		rf.SetFR(6, 3.0)
	})
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 3.0*float64(i) + float64(2*i)
		if got := m.Memory().ReadF64(y + uint64(8*i)); got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestPredicationSkipsInstructions(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "pred")
	a.Emit(ia64.Instr{Op: ia64.OpCmpI, Rel: ia64.CmpLT, P1: 2, P2: 3, R2: 8, Imm: 10}) // r8<10 ?
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 20, Imm: 111, QP: 2})
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 21, Imm: 222, QP: 3})
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, img, 1)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, 5) })
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	rf := &m.CPU(0).RF
	if rf.GR(20) != 111 || rf.GR(21) != 0 {
		t.Fatalf("r20=%d r21=%d, want 111, 0", rf.GR(20), rf.GR(21))
	}
}

func TestBranchCondAndBTB(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "br")
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 8, Imm: 0})
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 8, R2: 8, Imm: 1})
	a.Emit(ia64.Instr{Op: ia64.OpCmpI, Rel: ia64.CmpLT, P1: 2, P2: 0, R2: 8, Imm: 3})
	a.Br(ia64.BrCond, 2, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, img, 1)
	m.StartThread(0, entry, 1, nil)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU(0).RF.GR(8); got != 3 {
		t.Fatalf("r8 = %d, want 3", got)
	}
	btb := m.PMU(0).ReadBTB()
	if len(btb) != 2 {
		t.Fatalf("BTB entries = %d, want 2 taken branches", len(btb))
	}
	for _, e := range btb {
		if e.TargetPC != entry+1 {
			t.Fatalf("BTB target = %d, want %d", e.TargetPC, entry+1)
		}
		if e.BranchPC <= e.TargetPC {
			t.Fatal("loop branch must be backward")
		}
	}
}

func TestMemoryStallsAdvanceClock(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "ld")
	a.Emit(ia64.Instr{Op: ia64.OpLdf, R1: 32, R2: 8})
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	addr := m.Memory().MustAlloc("a", 128, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(addr)) })
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if c := m.CPU(0).Cycle; c < m.Config().Mem.Lat.Memory {
		t.Fatalf("cycle %d below memory latency %d: cold miss did not stall", c, m.Config().Mem.Lat.Memory)
	}
}

func TestPrefetchDoesNotStall(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "pf")
	a.Emit(ia64.Instr{Op: ia64.OpLfetch, R2: 8, Hint: ia64.HintNT1})
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	addr := m.Memory().MustAlloc("a", 128, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(addr)) })
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if c := m.CPU(0).Cycle; c >= m.Config().Mem.Lat.Memory {
		t.Fatalf("cycle %d: prefetch stalled the CPU", c)
	}
	// But the line was installed.
	if s := m.Domain().Probe(0, addr); s == mem.Invalid {
		t.Fatal("prefetched line not installed")
	}
}

func TestLfetchOutOfRangeIsNonFaulting(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "pfbad")
	a.Emit(ia64.Instr{Op: ia64.OpLfetch, R2: 8, Hint: ia64.HintNT1})
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, 1<<40) })
	if _, err := m.Run(0); err != nil {
		t.Fatalf("lfetch to wild address faulted: %v", err)
	}
}

func TestPatchTakesEffectMidRun(t *testing.T) {
	// Rewrite the loop body's lfetch to NOP via a timer while the loop is
	// running — the core COBRA deployment mechanism.
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "looppf")
	a.Emit(ia64.Instr{Op: ia64.OpMovToLCI, Imm: 999})
	a.Label("top")
	pfSlot := a.Emit(ia64.Instr{Op: ia64.OpLfetch, R2: 8, Hint: ia64.HintNT1})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 8, R2: 8, Imm: 128})
	a.Br(ia64.BrCloop, 0, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	addr := m.Memory().MustAlloc("a", 1<<20, 128)

	patched := false
	m.AddTimer(&Timer{NextAt: 500, Fn: func(now int64) int64 {
		if _, err := img.Patch(entry+pfSlot, ia64.Instr{Op: ia64.OpNop}); err != nil {
			t.Errorf("patch: %v", err)
		}
		patched = true
		return 0 // one-shot
	}})

	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(addr)) })
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !patched {
		t.Fatal("timer never fired")
	}
	// Prefetch count must be well below the 1000 iterations.
	st := m.Domain().Stats(0)
	if st.Prefetches >= 1000 {
		t.Fatalf("prefetches = %d: patch had no effect", st.Prefetches)
	}
	if st.Prefetches == 0 {
		t.Fatal("prefetches = 0: patch applied before any execution?")
	}
}

// TestCPUsExecuteCurrentCode: two CPUs run a one-bundle counted loop,
// one iteration per issue group, while timers edit the image three ways
// in turn: patch the loop's increment in place; append a block and
// redirect the loop into it, which moves the slots to a new array; and
// cut that block off to append a different one of the same length. Each
// iteration adds its code version's weight to r9 and one to r8, so the
// final sums prove that every CPU executed the edited code from its
// first issue group after each edit on, and the old code before it.
func TestCPUsExecuteCurrentCode(t *testing.T) {
	const n = 1500
	addWeight := func(w int64) ia64.Instr { return ia64.Instr{Op: ia64.OpAddI, R1: 9, R2: 9, Imm: w} }
	count := ia64.Instr{Op: ia64.OpAddI, R1: 8, R2: 8, Imm: 1}

	img := ia64.NewImage()
	a := ia64.NewAsm(img, "loop")
	a.Emit(ia64.Instr{Op: ia64.OpMovToLC, R2: 10})
	a.PadToBundle()
	a.Label("top")
	top := a.Emit(addWeight(1))
	a.Emit(count)
	a.Br(ia64.BrCloop, 0, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	top += entry

	// block is the loop body of weight w at slot start, padded with halts
	// to several times the image's length so appending it must move the
	// slots to a new array.
	block := func(w int64, start int) []ia64.Instr {
		b := []ia64.Instr{addWeight(w), count, {Op: ia64.OpBr, Br: ia64.BrCloop, Imm: int64(start)}}
		for len(b) < 64 {
			b = append(b, ia64.Instr{Op: ia64.OpHalt})
		}
		return b
	}

	m := testMachine(t, img, 2)
	var marks [][2]int64 // r8 of each CPU when each edit lands
	mark := func() { marks = append(marks, [2]int64{m.CPU(0).RF.GR(8), m.CPU(1).RF.GR(8)}) }
	blockAt := img.Len()
	edits := []func(){
		func() {
			if _, err := img.Patch(top, addWeight(2)); err != nil {
				t.Error(err)
			}
		},
		func() {
			before, _ := img.Code()
			if got, err := img.Append(block(4, blockAt)...); err != nil || got != blockAt {
				t.Errorf("block appended at %d (%v), want %d", got, err, blockAt)
			}
			if after, _ := img.Code(); &after[0] == &before[0] {
				t.Error("the append left the slots in place; the test lost its point")
			}
			if _, err := img.Patch(top, ia64.Instr{Op: ia64.OpBr, Br: ia64.BrAlways, Imm: int64(blockAt)}); err != nil {
				t.Error(err)
			}
		},
		func() {
			img.RemoveTail(blockAt)
			img.Append(block(8, blockAt)...)
		},
	}
	for i, edit := range edits {
		m.AddTimer(&Timer{NextAt: int64(400 * (i + 1)), Fn: func(now int64) int64 {
			mark()
			edit()
			return 0
		}})
	}
	for cpu := 0; cpu < 2; cpu++ {
		m.StartThread(cpu, entry, cpu+1, func(rf *ia64.RegFile) { rf.SetGR(10, n-1) })
	}
	if _, err := m.RunAll([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if len(marks) != len(edits) {
		t.Fatalf("%d of %d edits landed", len(marks), len(edits))
	}

	weights := []int64{1, 2, 4, 8}
	for cpu := 0; cpu < 2; cpu++ {
		var want, prev int64
		for p, w := range weights {
			end := int64(n)
			if p < len(marks) {
				end = marks[p][cpu]
			}
			if end <= prev {
				t.Fatalf("CPU %d ran no iteration of code version %d", cpu, p)
			}
			want += w * (end - prev)
			prev = end
		}
		rf := &m.CPU(cpu).RF
		if rf.GR(8) != n || rf.GR(9) != want {
			t.Fatalf("CPU %d: %d iterations summing %d, want %d summing %d (edits at %v)",
				cpu, rf.GR(8), rf.GR(9), n, want, marks)
		}
	}
}

func TestTimersFireInRegistrationOrderAtEqualCycles(t *testing.T) {
	// Three timers: two due at the same cycle (must fire in registration
	// order) and one due earlier (must fire first). The dispatch contract is
	// what keeps COBRA runs reproducible when several optimizer threads
	// share a deadline.
	img := ia64.NewImage()
	entry := asmSumLoop(img)
	m := testMachine(t, img, 1)
	base := m.Memory().MustAlloc("a", 8*512, 128)

	var order []string
	m.AddTimer(&Timer{NextAt: 700, Fn: func(now int64) int64 {
		order = append(order, "A@700")
		return 0
	}})
	m.AddTimer(&Timer{NextAt: 700, Fn: func(now int64) int64 {
		order = append(order, "B@700")
		return 0
	}})
	m.AddTimer(&Timer{NextAt: 200, Fn: func(now int64) int64 {
		order = append(order, "C@200")
		return 0
	}})

	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetGR(8, int64(base))
		rf.SetGR(10, 511)
	})
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	want := "C@200,A@700,B@700"
	got := strings.Join(order, ",")
	if got != want {
		t.Fatalf("timer firing order = %s, want %s", got, want)
	}
}

func TestTimerRegisteredByTimerFnIsNotLost(t *testing.T) {
	// A timer Fn that registers a new timer mid-dispatch (as the COBRA
	// runtime does when it spins up a phase-specific optimizer) must not be
	// dropped by the dispatch pass's compaction.
	img := ia64.NewImage()
	entry := asmSumLoop(img)
	m := testMachine(t, img, 1)
	base := m.Memory().MustAlloc("a", 8*512, 128)

	childFired := false
	m.AddTimer(&Timer{NextAt: 200, Fn: func(now int64) int64 {
		m.AddTimer(&Timer{NextAt: now + 100, Fn: func(now int64) int64 {
			childFired = true
			return 0
		}})
		return 0
	}})
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetGR(8, int64(base))
		rf.SetGR(10, 511)
	})
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !childFired {
		t.Fatal("timer registered from within a timer Fn never fired")
	}
}

func TestRunAllHaltedCPUsWithPendingTimerIsError(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "halt")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	m.AddTimer(&Timer{NextAt: 1000, Fn: func(now int64) int64 { return now + 1000 }})

	// All CPUs halted (no StartThread) + a pending timer: the timer can
	// never fire, so RunAll must refuse instead of silently succeeding.
	if _, err := m.RunAll([]int{0}); err == nil {
		t.Fatal("RunAll succeeded with all CPUs halted and a timer pending")
	}

	// After starting a thread the same call must succeed, even though the
	// timer is still pending when the CPU halts at the end of the run.
	m.StartThread(0, entry, 1, nil)
	if _, err := m.RunAll([]int{0}); err != nil {
		t.Fatalf("RunAll with a runnable CPU: %v", err)
	}

	// An empty active set is a no-op, never an error.
	if n, err := m.RunAll(nil); err != nil || n != 0 {
		t.Fatalf("RunAll(nil) = %d, %v", n, err)
	}
}

func TestRunAllDeterministic(t *testing.T) {
	run := func() int64 {
		img := ia64.NewImage()
		entry := asmSumLoop(img)
		m := testMachine(t, img, 2)
		base0 := m.Memory().MustAlloc("a0", 8*64, 128)
		base1 := m.Memory().MustAlloc("a1", 8*64, 128)
		m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
			rf.SetGR(8, int64(base0))
			rf.SetGR(10, 63)
		})
		m.StartThread(1, entry, 2, func(rf *ia64.RegFile) {
			rf.SetGR(8, int64(base1))
			rf.SetGR(10, 63)
		})
		if _, err := m.RunAll([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
		return m.GlobalCycle()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %d vs %d cycles", a, b)
	}
}

// TestOutOfImageFetchFaults: CPU 1 runs a short loop and falls off the end
// of the image while CPU 0 is still summing. RunAll stops with the fetch
// error, and the causal engine leaves CPU 0 at the issue-group boundary it
// had reached: mid-loop at the loop top, its partial sum consistent with
// its cursor, its clock no earlier than the faulting CPU's. The faulting
// group's instructions are counted nowhere.
func TestOutOfImageFetchFaults(t *testing.T) {
	img := ia64.NewImage()
	entry := asmSumLoop(img)
	fall := asmFallOff(t, img)

	m := testMachine(t, img, 2)
	const n = 4096
	base := m.Memory().MustAlloc("a", 8*n, 128)
	for i := 0; i < n; i++ {
		m.Memory().WriteI64(base+uint64(8*i), int64(i))
	}
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetGR(8, int64(base))
		rf.SetGR(10, 4000)
	})
	m.StartThread(1, fall, 2, nil)

	retired, err := m.RunAll([]int{0, 1})
	want := fmt.Sprintf("machine: CPU 1 fetched out-of-image PC %d", img.Len())
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	c0, c1 := m.CPU(0), m.CPU(1)
	if c0.Halted || c1.Halted {
		t.Fatalf("halted = %v/%v, want both CPUs left running", c0.Halted, c1.Halted)
	}
	if c1.PC != img.Len() || c1.RF.GR(11) != 701 {
		t.Fatalf("cpu1 pc/r11 = %d/%d, want %d/701", c1.PC, c1.RF.GR(11), img.Len())
	}
	if c1.Cycle > c0.Cycle {
		t.Fatalf("faulting cpu1 at cycle %d ran ahead of cpu0 at %d", c1.Cycle, c0.Cycle)
	}
	done := (c0.RF.GR(8) - int64(base)) / 8
	if c0.PC != entry+2 || c0.RF.GR(9) != done*(done-1)/2 {
		t.Fatalf("cpu0 pc=%d r9=%d after %d iterations, want pc %d and sum %d",
			c0.PC, c0.RF.GR(9), done, entry+2, done*(done-1)/2)
	}
	if retired != c0.InstRetired+c1.InstRetired {
		t.Fatalf("RunAll retired %d, CPUs retired %d+%d", retired, c0.InstRetired, c1.InstRetired)
	}
	// The exact serial outcome: 65 cold-missing iterations on cpu0 by the
	// time cpu1's 701 loop iterations run out.
	if done != 65 || c0.Cycle != 825 || c0.InstRetired != 262 ||
		c1.Cycle != 701 || c1.InstRetired != 1401 {
		t.Fatalf("iterations/cycles/retired = %d/%d,%d/%d,%d, want 65/825,701/262,1401",
			done, c0.Cycle, c1.Cycle, c0.InstRetired, c1.InstRetired)
	}
}

// asmFallOff builds a 701-iteration loop counting in r11 that runs off
// the end of the image when it exits.
func asmFallOff(t *testing.T, img *ia64.Image) int {
	t.Helper()
	a := ia64.NewAsm(img, "fall")
	a.Emit(ia64.Instr{Op: ia64.OpMovToLCI, Imm: 700})
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 11, R2: 11, Imm: 1})
	a.Br(ia64.BrCloop, 0, "top")
	fall, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	return fall
}

// TestOutOfImageFetchFaultsOneCPU: the fall-off loop alone on a one-CPU
// machine. The faulting group is counted nowhere here either: RunAll
// reports the 1401 instructions the CPU retired, not the 1403 it issued.
func TestOutOfImageFetchFaultsOneCPU(t *testing.T) {
	img := ia64.NewImage()
	fall := asmFallOff(t, img)
	m := testMachine(t, img, 1)
	m.StartThread(0, fall, 1, nil)
	retired, err := m.RunAll([]int{0})
	want := fmt.Sprintf("machine: CPU 0 fetched out-of-image PC %d", img.Len())
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	c := m.CPU(0)
	if retired != c.InstRetired || c.InstRetired != 1401 || c.Cycle != 701 || c.RF.GR(11) != 701 {
		t.Fatalf("retired %d, CPU retired %d at cycle %d with r11 %d, want 1401, 1401, 701, 701",
			retired, c.InstRetired, c.Cycle, c.RF.GR(11))
	}
}

// TestAccessOutsideMemoryFaults: a load or store whose 8 bytes leave
// simulated memory stops RunAll with an AccessFault naming the CPU, the
// PC and the address, on the SMP and on the Altix under every placement
// policy, where it used to panic inside the memory system. The access
// reaches no cache and the faulting group is counted nowhere. The last
// in-range word still loads and stores.
func TestAccessOutsideMemoryFaults(t *testing.T) {
	altix := func(p mem.PlacementPolicy) Config {
		cfg := Config{Mem: mem.AltixNUMA(2)}
		cfg.Mem.MemBytes = 32 << 20
		cfg.Mem.Placement = p
		return cfg
	}
	smp := DefaultConfig(2)
	smp.Mem.MemBytes = 32 << 20
	machines := []struct {
		name string
		cfg  Config
	}{
		{"smp", smp},
		{"altix-first-touch", altix(mem.PlaceFirstTouch)},
		{"altix-interleave", altix(mem.PlaceInterleave)},
		{"altix-bind", altix(mem.PlaceBind)},
	}
	const word = 0x0102030405060708
	for _, mc := range machines {
		for _, op := range []ia64.Instr{
			{Op: ia64.OpLd, R1: 11, R2: 8},
			{Op: ia64.OpLdf, R1: 10, R2: 8},
			{Op: ia64.OpSt, R2: 8, R3: 11},
			{Op: ia64.OpStf, R2: 8, R3: 10},
		} {
			t.Run(fmt.Sprintf("%s/%v", mc.name, op.Op), func(t *testing.T) {
				img := ia64.NewImage()
				a := ia64.NewAsm(img, "access")
				a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 12, R2: 12, Imm: 1})
				a.Emit(op)
				a.Emit(ia64.Instr{Op: ia64.OpHalt})
				entry, err := a.Close()
				if err != nil {
					t.Fatal(err)
				}
				m, err := New(mc.cfg, img)
				if err != nil {
					t.Fatal(err)
				}
				size := m.Memory().Size()
				run := func(addr uint64) (int64, error) {
					m.StartThread(1, entry, 1, func(rf *ia64.RegFile) {
						rf.SetGR(8, int64(addr))
						rf.SetGR(11, 7)
						rf.SetFR(10, 2.5)
					})
					return m.RunAll([]int{1})
				}
				// Past the end, straddling it, wrapping past 2^64, and the
				// unmapped first page.
				for _, addr := range []uint64{size + 4096, size - 4, ^uint64(7), 8} {
					retired, err := run(addr)
					var f *AccessFault
					if !errors.As(err, &f) || *f != (AccessFault{CPU: 1, PC: entry + 1, Addr: addr}) {
						t.Fatalf("addr %#x: err = %v, want an AccessFault of CPU 1 at PC %d", addr, err, entry+1)
					}
					want := fmt.Sprintf("machine: CPU 1 at PC %d accessed %#x outside simulated memory", entry+1, addr)
					if err.Error() != want {
						t.Fatalf("addr %#x: error %q, want %q", addr, err, want)
					}
					if c := m.CPU(1); retired != 0 || c.InstRetired != 0 {
						t.Fatalf("addr %#x: faulting group counted: RunAll %d, CPU %d", addr, retired, c.InstRetired)
					}
				}
				if st := m.Domain().Stats(1); st.Loads+st.Stores != 0 {
					t.Fatalf("faulting accesses reached the caches: %d loads, %d stores", st.Loads, st.Stores)
				}

				last := size - 8
				m.Memory().WriteI64(last, word)
				if _, err := run(last); err != nil {
					t.Fatalf("last word %#x: %v", last, err)
				}
				rf := &m.CPU(1).RF
				var got, want uint64
				switch op.Op {
				case ia64.OpLd:
					got, want = uint64(rf.GR(11)), word
				case ia64.OpLdf:
					got, want = math.Float64bits(rf.FR(10)), word
				case ia64.OpSt:
					got, want = uint64(m.Memory().ReadI64(last)), 7
				case ia64.OpStf:
					got, want = uint64(m.Memory().ReadI64(last)), math.Float64bits(2.5)
				}
				if got != want {
					t.Fatalf("last word: %#x, want %#x", got, want)
				}
			})
		}
	}
}

// TestUnalignedLoadsSum: loads at addresses that straddle 8-byte words —
// and once a backing-store chunk boundary — read the little-endian bytes
// they cover, so a sum over misaligned words equals the sum the host
// computes from the same bytes. CPU 0 sums the aligned words beside it.
func TestUnalignedLoadsSum(t *testing.T) {
	img := ia64.NewImage()
	entry := asmSumLoop(img)
	m := testMachine(t, img, 2)

	const words = 512
	region := m.Memory().MustAlloc("a", 2<<20, 1<<20)
	start := region + 1<<20 - 8*words/2 // the array spans a chunk boundary
	buf := make([]byte, 8*words+8)
	for i := 0; i < words+1; i++ {
		v := int64(i)*0x0102030405 + 7
		m.Memory().WriteI64(start+uint64(8*i), v)
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
	}
	var aligned, unaligned int64
	for i := 0; i < words; i++ {
		aligned += int64(binary.LittleEndian.Uint64(buf[8*i:]))
		unaligned += int64(binary.LittleEndian.Uint64(buf[8*i+4:]))
	}

	for id, base := range []uint64{start, start + 4} {
		m.StartThread(id, entry, id+1, func(rf *ia64.RegFile) {
			rf.SetGR(8, int64(base))
			rf.SetGR(10, words-1)
		})
	}
	if _, err := m.RunAll([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU(0).RF.GR(9); got != aligned {
		t.Fatalf("aligned sum = %d, want %d", got, aligned)
	}
	if got := m.CPU(1).RF.GR(9); got != unaligned {
		t.Fatalf("unaligned sum = %d, want %d", got, unaligned)
	}
}

func TestRunawayLoopDetected(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "spin")
	a.Label("top")
	a.Br(ia64.BrAlways, 0, "top")
	entry, _ := a.Close()
	// One CPU takes RunAll's single-runnable fast path, two the causal pick.
	for _, active := range [][]int{{0}, {0, 1}} {
		cfg := DefaultConfig(len(active))
		cfg.Mem.MemBytes = 1 << 20
		cfg.MaxInstrPerRun = 10000
		m, err := New(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range active {
			m.StartThread(id, entry, id+1, nil)
		}
		if _, err := m.RunAll(active); err == nil || !strings.Contains(err.Error(), "instruction budget 10000 exceeded") {
			t.Fatalf("%d CPUs: runaway loop not detected: %v", len(active), err)
		}
	}
}

func TestSyncClocksBarrier(t *testing.T) {
	img := ia64.NewImage()
	img.Append(ia64.Instr{Op: ia64.OpHalt})
	m := testMachine(t, img, 4)
	m.CPU(2).Cycle = 1000
	m.SyncClocks(m.GlobalCycle())
	for i := 0; i < 4; i++ {
		if m.CPU(i).Cycle != 1000 {
			t.Fatalf("CPU %d cycle = %d after barrier", i, m.CPU(i).Cycle)
		}
	}
}

func TestInstRetiredCounted(t *testing.T) {
	img := ia64.NewImage()
	entry := asmSumLoop(img)
	m := testMachine(t, img, 1)
	base := m.Memory().MustAlloc("a", 8*4, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetGR(8, int64(base))
		rf.SetGR(10, 3)
	})
	n, err := m.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != m.CPU(0).InstRetired {
		t.Fatalf("retired = %d vs CPU count %d", n, m.CPU(0).InstRetired)
	}
	if v := m.PMU(0).ReadAll()[0].Value; v != 0 {
		// Counter 0 unprogrammed: reading must be 0.
		t.Fatalf("unprogrammed counter = %d", v)
	}
}

func TestPMUSeesMemoryEvents(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "mems")
	a.Emit(ia64.Instr{Op: ia64.OpLdf, R1: 32, R2: 8})
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	m.PMU(0).Program(0, hpm.EvL3Misses, 0)
	m.PMU(0).Program(1, hpm.EvBusMemory, 0)
	addr := m.Memory().MustAlloc("a", 128, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(addr)) })
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if v := m.PMU(0).ReadAll()[0].Value; v != 1 {
		t.Fatalf("L3 miss counter = %d, want 1", v)
	}
	if v := m.PMU(0).ReadAll()[1].Value; v != 1 {
		t.Fatalf("bus counter = %d, want 1", v)
	}
}

func TestDEARCapturesDelinquentLoad(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "dear")
	ldSlot := a.Emit(ia64.Instr{Op: ia64.OpLdf, R1: 32, R2: 8})
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	m.PMU(0).SetDEARFilter(100) // memory-latency loads only
	addr := m.Memory().MustAlloc("a", 128, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(addr)) })
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	s := m.PMU(0).ReadDEAR()
	if !s.Valid || s.PC != entry+ldSlot || s.Addr != addr {
		t.Fatalf("DEAR = %+v, want capture of load at %d addr %#x", s, entry+ldSlot, addr)
	}
}

// TestInterruptAbortsRun: an installed interrupt poll that starts
// returning an error stops RunAll mid-loop with that error wrapped — the
// mechanism a service uses to cancel a session without waiting for the
// program to halt.
func TestInterruptAbortsRun(t *testing.T) {
	img := ia64.NewImage()
	entry := asmSumLoop(img)
	m := testMachine(t, img, 1)

	const n = 1 << 16 // long enough to cross several poll intervals
	base := m.Memory().MustAlloc("a", 8*n, 128)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetGR(8, int64(base))
		rf.SetGR(10, n-1)
	})
	stop := errors.New("cancelled by host")
	polls := 0
	m.SetInterrupt(func() error {
		polls++
		if polls >= 2 {
			return stop
		}
		return nil
	}, 10_000)
	_, err := m.Run(0)
	if !errors.Is(err, stop) {
		t.Fatalf("interrupted run: err = %v, want wrapped %v", err, stop)
	}
	if polls != 2 {
		t.Fatalf("poll count = %d, want 2 (every ~10k instructions)", polls)
	}
	if !strings.Contains(err.Error(), "run interrupted") {
		t.Fatalf("error does not say the run was interrupted: %v", err)
	}
}

// TestInterruptQuietDoesNotPerturbSimulation: a poll that never fires an
// error must leave the simulated outcome (cycles, registers) bit-identical
// to an uninstrumented run — cancellation support must be free when unused.
func TestInterruptQuietDoesNotPerturbSimulation(t *testing.T) {
	run := func(withPoll bool) (int64, int64) {
		img := ia64.NewImage()
		entry := asmSumLoop(img)
		m := testMachine(t, img, 1)
		const n = 4096
		base := m.Memory().MustAlloc("a", 8*n, 128)
		for i := 0; i < n; i++ {
			m.Memory().WriteI64(base+uint64(8*i), int64(i))
		}
		m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
			rf.SetGR(8, int64(base))
			rf.SetGR(10, n-1)
		})
		if withPoll {
			m.SetInterrupt(func() error { return nil }, 1000)
		}
		if _, err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return m.GlobalCycle(), m.CPU(0).RF.GR(9)
	}
	c0, s0 := run(false)
	c1, s1 := run(true)
	if c0 != c1 || s0 != s1 {
		t.Fatalf("quiet interrupt perturbed the run: cycles %d vs %d, sum %d vs %d", c0, c1, s0, s1)
	}
}
