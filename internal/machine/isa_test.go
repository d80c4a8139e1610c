package machine

import (
	"math"
	"testing"

	"repro/internal/ia64"
	"repro/internal/mem"
)

// runSnippet executes instructions on a 1-CPU machine with the given
// register setup and returns the CPU for inspection.
func runSnippet(t *testing.T, setup func(rf *ia64.RegFile), instrs ...ia64.Instr) *CPU {
	t.Helper()
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "snippet")
	for _, in := range instrs {
		a.Emit(in)
	}
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, img, 1)
	m.StartThread(0, entry, 1, setup)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	return m.CPU(0)
}

func TestIntegerALUSemantics(t *testing.T) {
	c := runSnippet(t, func(rf *ia64.RegFile) {
		rf.SetGR(4, 100)
		rf.SetGR(5, 7)
	},
		ia64.Instr{Op: ia64.OpAdd, R1: 10, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpSub, R1: 11, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpMul, R1: 12, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpAnd, R1: 13, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpOr, R1: 14, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpXor, R1: 15, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpShlI, R1: 16, R2: 5, Imm: 3},
		ia64.Instr{Op: ia64.OpShrI, R1: 17, R2: 4, Imm: 2},
		ia64.Instr{Op: ia64.OpAddI, R1: 18, R2: 4, Imm: -30},
	)
	rf := &c.RF
	for _, tc := range []struct {
		reg  uint8
		want int64
	}{
		{10, 107}, {11, 93}, {12, 700}, {13, 100 & 7}, {14, 100 | 7},
		{15, 100 ^ 7}, {16, 56}, {17, 25}, {18, 70},
	} {
		if got := rf.GR(tc.reg); got != tc.want {
			t.Errorf("r%d = %d, want %d", tc.reg, got, tc.want)
		}
	}
}

func TestFloatSemantics(t *testing.T) {
	c := runSnippet(t, func(rf *ia64.RegFile) {
		rf.SetFR(4, 6.0)
		rf.SetFR(5, 1.5)
		rf.SetGR(4, -9)
	},
		ia64.Instr{Op: ia64.OpFAdd, R1: 10, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpFSub, R1: 11, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpFMul, R1: 12, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpFDiv, R1: 13, R2: 4, R3: 5},
		ia64.Instr{Op: ia64.OpFNeg, R1: 14, R2: 5},
		ia64.Instr{Op: ia64.OpFMov, R1: 15, R2: 4},
		ia64.Instr{Op: ia64.OpFCvt, R1: 16, R2: 4},                // float(r4) = -9
		ia64.Instr{Op: ia64.OpFInt, R1: 20, R2: 5},                // int(f5) = 1
		ia64.Instr{Op: ia64.OpFma, R1: 17, R2: 4, R3: 5, Imm: 10}, // 6*1.5+7.5
		ia64.Instr{Op: ia64.OpFMovI, R1: 18, Imm: int64(math.Float64bits(2.25))},
	)
	rf := &c.RF
	for _, tc := range []struct {
		reg  uint8
		want float64
	}{
		{10, 7.5}, {11, 4.5}, {12, 9}, {13, 4}, {14, -1.5}, {15, 6},
		{16, -9}, {17, math.FMA(6, 1.5, 7.5)}, {18, 2.25},
	} {
		if got := rf.FR(tc.reg); got != tc.want {
			t.Errorf("f%d = %v, want %v", tc.reg, got, tc.want)
		}
	}
	if got := rf.GR(20); got != 1 {
		t.Errorf("fint = %d, want 1", got)
	}
}

func TestCompareRelations(t *testing.T) {
	rels := []struct {
		rel  ia64.CmpRel
		a, b int64
		want bool
	}{
		{ia64.CmpEQ, 5, 5, true}, {ia64.CmpEQ, 5, 6, false},
		{ia64.CmpNE, 5, 6, true}, {ia64.CmpNE, 5, 5, false},
		{ia64.CmpLT, 4, 5, true}, {ia64.CmpLT, 5, 5, false},
		{ia64.CmpLE, 5, 5, true}, {ia64.CmpLE, 6, 5, false},
		{ia64.CmpGT, 6, 5, true}, {ia64.CmpGT, 5, 5, false},
		{ia64.CmpGE, 5, 5, true}, {ia64.CmpGE, 4, 5, false},
	}
	for _, tc := range rels {
		c := runSnippet(t, func(rf *ia64.RegFile) {
			rf.SetGR(4, tc.a)
			rf.SetGR(5, tc.b)
		}, ia64.Instr{Op: ia64.OpCmp, Rel: tc.rel, P1: 6, P2: 7, R2: 4, R3: 5})
		if got := c.RF.PR(6); got != tc.want {
			t.Errorf("cmp.%v(%d,%d) = %v, want %v", tc.rel, tc.a, tc.b, got, tc.want)
		}
		if got := c.RF.PR(7); got == tc.want {
			t.Errorf("cmp.%v complementary predicate not inverted", tc.rel)
		}
	}
}

func TestFCmpAndPredicatedStore(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "fcmp")
	a.Emit(ia64.Instr{Op: ia64.OpFCmp, Rel: ia64.CmpLT, P1: 6, P2: 7, R2: 4, R3: 5})
	// Only the true predicate's store lands.
	a.Emit(ia64.Instr{Op: ia64.OpSt, R2: 8, R3: 10, QP: 6})
	a.Emit(ia64.Instr{Op: ia64.OpSt, R2: 9, R3: 10, QP: 7})
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	addrT := m.Memory().MustAlloc("t", 64, 64)
	addrF := m.Memory().MustAlloc("f", 64, 64)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) {
		rf.SetFR(4, 1.0)
		rf.SetFR(5, 2.0) // 1 < 2: p6 true
		rf.SetGR(8, int64(addrT))
		rf.SetGR(9, int64(addrF))
		rf.SetGR(10, 777)
	})
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.Memory().ReadI64(addrT); got != 777 {
		t.Fatalf("true-predicated store missing: %d", got)
	}
	if got := m.Memory().ReadI64(addrF); got != 0 {
		t.Fatalf("false-predicated store landed: %d", got)
	}
}

func TestLdBiasAcquiresOwnership(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "bias")
	a.Emit(ia64.Instr{Op: ia64.OpLd, R1: 10, R2: 8, Hint: ia64.HintBias})
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 2)
	addr := m.Memory().MustAlloc("b", 128, 128)
	m.Memory().WriteI64(addr, 31337)
	// CPU1 holds the line first.
	var res mem.AccessResult
	m.Domain().Access(1, addr, mem.LoadFP, 0, &res)
	m.StartThread(0, entry, 1, func(rf *ia64.RegFile) { rf.SetGR(8, int64(addr)) })
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU(0).RF.GR(10); got != 31337 {
		t.Fatalf("ld.bias loaded %d", got)
	}
	if st := m.Domain().Stats(0); st.CoherentMisses == 0 {
		t.Fatal("ld.bias did not invalidate the remote copy")
	}
}

func TestMovLCAndECForms(t *testing.T) {
	c := runSnippet(t, func(rf *ia64.RegFile) {
		rf.SetGR(4, 42)
	},
		ia64.Instr{Op: ia64.OpMovToLC, R2: 4},
		ia64.Instr{Op: ia64.OpMovFromLC, R1: 5},
		ia64.Instr{Op: ia64.OpMovToLCI, Imm: 9},
		ia64.Instr{Op: ia64.OpMovToECI, Imm: 3},
	)
	if got := c.RF.GR(5); got != 42 {
		t.Fatalf("mov from lc = %d", got)
	}
	if c.RF.LC != 9 || c.RF.EC != 3 {
		t.Fatalf("LC=%d EC=%d", c.RF.LC, c.RF.EC)
	}
}

func TestBrAlwaysAndBrRet(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "br")
	a.Br(ia64.BrAlways, 0, "over")
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 4, Imm: 666}) // skipped
	a.Label("over")
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 5, Imm: 1})
	a.Emit(ia64.Instr{Op: ia64.OpBr, Br: ia64.BrRet})
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 6, Imm: 2}) // after ret: skipped
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	m.StartThread(0, entry, 1, nil)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	rf := &m.CPU(0).RF
	if rf.GR(4) != 0 || rf.GR(5) != 1 || rf.GR(6) != 0 {
		t.Fatalf("r4=%d r5=%d r6=%d", rf.GR(4), rf.GR(5), rf.GR(6))
	}
	if !m.CPU(0).Halted {
		t.Fatal("br.ret did not halt the thread")
	}
}

func TestOutOfImagePCErrors(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "fall")
	a.Nop() // falls off the end of the image
	a.Nop()
	a.Nop()
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	m.StartThread(0, entry, 1, nil)
	if _, err := m.Run(0); err == nil {
		t.Fatal("running off the image end did not error")
	}
}

func TestDualBundleIssueTiming(t *testing.T) {
	// Six independent ALU instructions = two bundles = one cycle.
	var alu []ia64.Instr
	for i := 0; i < 6; i++ {
		alu = append(alu, ia64.Instr{Op: ia64.OpAddI, R1: uint8(10 + i), R2: 4, Imm: int64(i)})
	}
	c := runSnippet(t, func(rf *ia64.RegFile) { rf.SetGR(4, 1) }, alu...)
	// 1 cycle for the 6 ALU ops + 1 for the halt bundle (padded).
	if c.Cycle > 3 {
		t.Fatalf("6 ALU ops took %d cycles, want <= 3 (dual bundle issue)", c.Cycle)
	}
}

func TestPMUFrozenDuringNothing(t *testing.T) {
	// Freeze/unfreeze semantics across a run: freezing before the run
	// suppresses all counting.
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "f")
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 4, R2: 4, Imm: 1})
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, _ := a.Close()
	m := testMachine(t, img, 1)
	m.PMU(0).Program(0, 2 /* EvInstRetired */, 0)
	m.PMU(0).Freeze()
	m.StartThread(0, entry, 1, nil)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, v := m.PMU(0).Read(0); v != 0 {
		t.Fatalf("frozen PMU counted %d", v)
	}
}
