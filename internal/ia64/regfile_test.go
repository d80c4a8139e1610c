package ia64

import (
	"testing"
	"testing/quick"
)

func TestGRZeroRegister(t *testing.T) {
	var rf RegFile
	rf.SetGR(0, 42)
	if got := rf.GR(0); got != 0 {
		t.Fatalf("r0 = %d, want 0", got)
	}
}

func TestFRConstantRegisters(t *testing.T) {
	var rf RegFile
	rf.SetFR(0, 3.14)
	rf.SetFR(1, 3.14)
	if rf.FR(0) != 0 {
		t.Fatalf("f0 = %v, want 0", rf.FR(0))
	}
	if rf.FR(1) != 1 {
		t.Fatalf("f1 = %v, want 1", rf.FR(1))
	}
}

func TestPRZeroPredicate(t *testing.T) {
	var rf RegFile
	rf.SetPR(0, false)
	if !rf.PR(0) {
		t.Fatal("p0 must always read true")
	}
}

func TestStaticRegistersDoNotRotate(t *testing.T) {
	var rf RegFile
	rf.SetGR(5, 55)
	rf.SetFR(6, 6.5)
	rf.SetPR(7, true)
	for i := 0; i < 10; i++ {
		rf.Rotate()
	}
	if rf.GR(5) != 55 || rf.FR(6) != 6.5 || !rf.PR(7) {
		t.Fatal("static (non-rotating) registers changed under rotation")
	}
}

func TestRotationRenamesByOne(t *testing.T) {
	// After one rotation, the value written to rN is visible at rN+1:
	// rotation renames registers so the previous iteration's r32 becomes
	// this iteration's r33 — the software pipelining contract.
	var rf RegFile
	rf.SetGR(32, 100)
	rf.SetFR(40, 2.5)
	rf.SetPR(20, true)
	rf.Rotate()
	if got := rf.GR(33); got != 100 {
		t.Fatalf("after rotation r33 = %d, want 100", got)
	}
	if got := rf.FR(41); got != 2.5 {
		t.Fatalf("after rotation f41 = %v, want 2.5", got)
	}
	if !rf.PR(21) {
		t.Fatal("after rotation p21 should hold the value written to p20")
	}
}

func TestRotationFullCycle(t *testing.T) {
	var rf RegFile
	rf.SetGR(32, 7)
	for i := 0; i < rotGRSize; i++ {
		rf.Rotate()
	}
	if got := rf.GR(32); got != 7 {
		t.Fatalf("after %d rotations r32 = %d, want 7 (full cycle)", rotGRSize, got)
	}
}

func TestClrrrbRestoresNames(t *testing.T) {
	var rf RegFile
	rf.SetGR(32, 1)
	rf.Rotate()
	rf.ClearRRB()
	if got := rf.GR(32); got != 1 {
		t.Fatalf("after clrrrb r32 = %d, want 1", got)
	}
}

func TestCtopCountedLoop(t *testing.T) {
	// LC=4, EC=3 models a 5-iteration pipelined loop with 3 stages: the
	// branch is taken LC + EC - 1 = 6 times then falls through.
	var rf RegFile
	rf.LC, rf.EC = 4, 3
	taken := 0
	for {
		out := rf.ExecCtop()
		if !out.Rotated {
			t.Fatal("ctop must rotate")
		}
		if !out.Taken {
			break
		}
		taken++
		if taken > 100 {
			t.Fatal("ctop never fell through")
		}
	}
	if taken != 6 {
		t.Fatalf("ctop taken %d times, want 6", taken)
	}
	if rf.LC != 0 || rf.EC != 0 {
		t.Fatalf("after loop LC=%d EC=%d, want 0,0", rf.LC, rf.EC)
	}
}

func TestCtopStagePredicates(t *testing.T) {
	// While LC > 0 the new p16 is true (a new iteration enters the
	// pipeline); during epilog drain p16 is false.
	var rf RegFile
	rf.LC, rf.EC = 2, 2
	rf.ExecCtop() // iteration 1: LC 2->1
	if !rf.PR(16) {
		t.Fatal("p16 should be true while LC > 0")
	}
	rf.ExecCtop() // iteration 2: LC 1->0
	if !rf.PR(16) {
		t.Fatal("p16 should be true on the final LC decrement")
	}
	rf.ExecCtop() // epilog: EC 2->1
	if rf.PR(16) {
		t.Fatal("p16 should be false during epilog")
	}
}

func TestCloopSemantics(t *testing.T) {
	var rf RegFile
	rf.LC = 3
	taken := 0
	for rf.ExecCloop().Taken {
		taken++
	}
	if taken != 3 {
		t.Fatalf("cloop taken %d times, want 3", taken)
	}
}

func TestCloopDoesNotRotate(t *testing.T) {
	var rf RegFile
	rf.LC = 1
	rf.SetGR(32, 9)
	rf.ExecCloop()
	if got := rf.GR(32); got != 9 {
		t.Fatalf("cloop rotated registers: r32 = %d, want 9", got)
	}
}

func TestWtopDrainsEpilog(t *testing.T) {
	var rf RegFile
	rf.EC = 3
	// Predicate true twice, then false: 2 kernel iterations + 2 epilog
	// takens (EC 3->2->1), then fall through.
	takens := 0
	for _, qp := range []bool{true, true, false, false, false} {
		out := rf.ExecWtop(qp)
		if out.Taken {
			takens++
		} else {
			break
		}
	}
	if takens != 4 {
		t.Fatalf("wtop taken %d times, want 4", takens)
	}
}

func TestRotationPropertyValuePreserved(t *testing.T) {
	// Property: for any rotating register r and rotation count k, a value
	// written to r before k rotations is read back at the logical register
	// r+k (mod rotating region), and is never lost.
	prop := func(rSeed uint8, kSeed uint8, v int64) bool {
		r := RotGRBase + int(rSeed)%rotGRSize
		k := int(kSeed) % rotGRSize
		var rf RegFile
		rf.SetGR(uint8(r), v)
		for i := 0; i < k; i++ {
			rf.Rotate()
		}
		logical := RotGRBase + ((r-RotGRBase)+k)%rotGRSize
		return rf.GR(uint8(logical)) == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsEverything(t *testing.T) {
	var rf RegFile
	rf.SetGR(33, 1)
	rf.SetFR(33, 1)
	rf.SetPR(17, true)
	rf.LC, rf.EC = 5, 5
	rf.Rotate()
	rf.Reset()
	if rf.GR(33) != 0 || rf.FR(33) != 0 || rf.PR(17) || rf.LC != 0 || rf.EC != 0 {
		t.Fatal("Reset left state behind")
	}
	if rf.rrbGR != 0 || rf.rrbFR != 0 || rf.rrbPR != 0 {
		t.Fatal("Reset left rename bases behind")
	}
}

// TestRenameMatchesModulo: the conditional-subtract rename lands every
// register number an instruction word can carry, at every rename base,
// where base + (logical-base+rrb) mod size does.
func TestRenameMatchesModulo(t *testing.T) {
	for rrb := 0; rrb < rotGRSize; rrb++ {
		rf := RegFile{rrbGR: rrb, rrbFR: rrb, rrbPR: rrb % rotPRSize}
		for r := 0; r < 256; r++ {
			if r >= RotGRBase {
				if got, want := rf.physGR(uint8(r)), RotGRBase+(r-RotGRBase+rrb)%rotGRSize; got != want {
					t.Fatalf("r%d at rrb %d renames to %d, want %d", r, rrb, got, want)
				}
				if got, want := rf.physFR(uint8(r)), RotFRBase+(r-RotFRBase+rrb)%rotFRSize; got != want {
					t.Fatalf("f%d at rrb %d renames to %d, want %d", r, rrb, got, want)
				}
			}
			if r >= RotPRBase {
				if got, want := rf.physPR(uint8(r)), RotPRBase+(r-RotPRBase+rf.rrbPR)%rotPRSize; got != want {
					t.Fatalf("p%d at rrb %d renames to %d, want %d", r, rf.rrbPR, got, want)
				}
			}
		}
	}
}
