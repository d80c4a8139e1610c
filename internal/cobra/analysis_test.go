package cobra

import (
	"testing"

	"repro/internal/ia64"
	"repro/internal/mem"
)

// buildLoopImage assembles a function shaped like compiler output:
//
//	entry:  cursor init (movi base; add), prologue lfetch
//	head:   ldf, lfetch (cursor+dist via temp), cursor advance, br.cloop head
func buildLoopImage(t *testing.T) (*ia64.Image, *mem.Memory, Region, []int) {
	t.Helper()
	memory := mem.NewMemory(1<<20, 16<<10)
	xBase := memory.MustAlloc("prog.x", 4096, 128)
	yBase := memory.MustAlloc("prog.y", 4096, 128)

	img := ia64.NewImage()
	a := ia64.NewAsm(img, "f")
	a.Emit(ia64.Instr{Op: ia64.OpMovToLCI, Imm: 31})
	// x cursor r12 = xBase + (r8 << 3)
	a.Emit(ia64.Instr{Op: ia64.OpShlI, R1: 24, R2: 8, Imm: 3})
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 25, Imm: int64(xBase)})
	a.Emit(ia64.Instr{Op: ia64.OpAdd, R1: 12, R2: 24, R3: 25})
	// y cursor r13 = yBase + (r8 << 3)
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 25, Imm: int64(yBase)})
	a.Emit(ia64.Instr{Op: ia64.OpAdd, R1: 13, R2: 24, R3: 25})
	// prologue prefetch for y
	proSlot := a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 24, R2: 13, Imm: 0})
	proPF := a.Emit(ia64.Instr{Op: ia64.OpLfetch, R2: 24, Hint: ia64.HintNT1})
	_ = proSlot
	a.Label("head")
	ld := a.Emit(ia64.Instr{Op: ia64.OpLdf, R1: 32, R2: 13})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 24, R2: 12, Imm: 1152})
	pfX := a.Emit(ia64.Instr{Op: ia64.OpLfetch, R2: 24, Hint: ia64.HintNT1})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 24, R2: 13, Imm: 1152})
	pfY := a.Emit(ia64.Instr{Op: ia64.OpLfetch, R2: 24, Hint: ia64.HintNT1})
	a.Emit(ia64.Instr{Op: ia64.OpStf, R2: 13, R3: 40})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 12, R2: 12, Imm: 8})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 13, R2: 13, Imm: 8})
	br := a.Br(ia64.BrCloop, 0, "head")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	_ = ld
	key := LoopKey{Head: entry + 8, BranchPC: entry + br}
	return img, memory, Region{Key: key, Start: entry, End: entry + br, FuncName: "f"},
		[]int{entry + proPF, entry + pfX, entry + pfY}
}

func TestRegionWideningIncludesPrologue(t *testing.T) {
	img, memory, want, _ := buildLoopImage(t)
	an := NewAnalyzer(img, memory)
	r := an.RegionFor(want.Key)
	if r.Start != want.Start {
		t.Fatalf("region start = %d, want %d (function entry: straight-line preheader)", r.Start, want.Start)
	}
	if r.End != want.End {
		t.Fatalf("region end = %d, want %d", r.End, want.End)
	}
}

func TestPrefetchDiscovery(t *testing.T) {
	img, memory, region, pfs := buildLoopImage(t)
	an := NewAnalyzer(img, memory)
	got := an.Prefetches(region)
	if len(got) != 3 {
		t.Fatalf("prefetches = %v, want 3 (%v)", got, pfs)
	}
	for i, pc := range pfs {
		if got[i] != pc {
			t.Fatalf("prefetch[%d] = %d, want %d", i, got[i], pc)
		}
	}
}

func TestResolvePrefetchTargets(t *testing.T) {
	img, memory, region, pfs := buildLoopImage(t)
	an := NewAnalyzer(img, memory)
	targets := an.PrefetchTargets(region)
	if len(targets) != 3 {
		t.Fatalf("resolved %d targets, want 3: %v", len(targets), targets)
	}
	if targets[pfs[0]].Name != "prog.y" { // prologue prefetch streams y
		t.Fatalf("prologue target = %v", targets[pfs[0]])
	}
	if targets[pfs[1]].Name != "prog.x" {
		t.Fatalf("x steady target = %v", targets[pfs[1]])
	}
	if targets[pfs[2]].Name != "prog.y" {
		t.Fatalf("y steady target = %v", targets[pfs[2]])
	}
}

func TestStoredSegments(t *testing.T) {
	img, memory, region, _ := buildLoopImage(t)
	an := NewAnalyzer(img, memory)
	stored := an.StoredSegments(region)
	if !stored["prog.y"] || stored["prog.x"] {
		t.Fatalf("stored = %v, want y only", stored)
	}
}

func TestPatcherInPlaceAndRollback(t *testing.T) {
	img, memory, region, pfs := buildLoopImage(t)
	_ = memory
	p := NewPatcher(img, false)
	patch, err := deployOne(p, region, pfs, RewriteNop)
	if err != nil {
		t.Fatal(err)
	}
	if patch.Variants[0].RewrittenPrefetches != 3 || patch.Variants[0].TraceEntry != -1 {
		t.Fatalf("patch = %+v", patch)
	}
	for _, pc := range pfs {
		if in := img.Fetch(pc); in.Op != ia64.OpNop {
			t.Fatalf("slot %d = %v, want nop", pc, in.Op)
		}
	}
	if err := p.Switch(patch, -1); err != nil {
		t.Fatal(err)
	}
	for _, pc := range pfs {
		if in := img.Fetch(pc); in.Op != ia64.OpLfetch {
			t.Fatalf("slot %d not restored: %v", pc, in.Op)
		}
	}
}

func TestPatcherExclRewriteKeepsOperands(t *testing.T) {
	img, _, region, pfs := buildLoopImage(t)
	p := NewPatcher(img, false)
	before := img.Fetch(pfs[1])
	if _, err := deployOne(p, region, pfs[1:2], RewriteExcl); err != nil {
		t.Fatal(err)
	}
	after := img.Fetch(pfs[1])
	if after.Hint != ia64.HintExcl || after.R2 != before.R2 || after.Op != ia64.OpLfetch {
		t.Fatalf("excl rewrite mangled instruction: %+v", after)
	}
}

func TestPatcherTraceDeploy(t *testing.T) {
	img, _, region, pfs := buildLoopImage(t)
	lenBefore := img.Len()
	p := NewPatcher(img, true)
	patch, err := deployOne(p, region, pfs, RewriteNop)
	if err != nil {
		t.Fatal(err)
	}
	if patch.Variants[0].TraceEntry < lenBefore {
		t.Fatalf("trace entry %d not in code cache (image was %d slots)", patch.Variants[0].TraceEntry, lenBefore)
	}
	// Entry slot redirected to the trace.
	if in := img.Fetch(region.Start); in.Op != ia64.OpBr || in.Br != ia64.BrAlways || int(in.Imm) != patch.Variants[0].TraceEntry {
		t.Fatalf("entry not redirected: %+v", in)
	}
	// Original body otherwise untouched (prefetches still there).
	for _, pc := range pfs {
		if img.Fetch(pc).Op != ia64.OpLfetch {
			t.Fatal("trace deploy modified original body")
		}
	}
	// Trace: backward branch relocated to trace-local head; prefetches
	// rewritten; ends with a branch back after the region.
	traceFn, ok := img.FuncAt(patch.Variants[0].TraceEntry)
	if !ok {
		t.Fatal("trace not registered in function table")
	}
	nops, lfetches := 0, 0
	var loopBr, exitBr ia64.Instr
	for pc := traceFn.Entry; pc < traceFn.End; pc++ {
		in := img.Fetch(pc)
		switch {
		case in.Op == ia64.OpNop:
			nops++
		case in.Op == ia64.OpLfetch:
			lfetches++
		case in.Op == ia64.OpBr && in.Br == ia64.BrCloop:
			loopBr = in
		case in.Op == ia64.OpBr && in.Br == ia64.BrAlways:
			exitBr = in
		}
	}
	if lfetches != 0 || nops < 3 {
		t.Fatalf("trace rewrite incomplete: %d lfetch, %d nop", lfetches, nops)
	}
	if int(loopBr.Imm) < traceFn.Entry || int(loopBr.Imm) >= traceFn.End {
		t.Fatalf("trace loop branch targets %d outside trace [%d,%d)", loopBr.Imm, traceFn.Entry, traceFn.End)
	}
	if int(exitBr.Imm) != region.End+1 {
		t.Fatalf("trace exit targets %d, want %d", exitBr.Imm, region.End+1)
	}
	// Rollback restores the entry word.
	if err := p.Switch(patch, -1); err != nil {
		t.Fatal(err)
	}
	if in := img.Fetch(region.Start); in.IsBranch() {
		t.Fatal("rollback did not restore entry")
	}
}

func TestDeployRejectsEmptySelection(t *testing.T) {
	img, _, region, _ := buildLoopImage(t)
	p := NewPatcher(img, false)
	if _, err := deployOne(p, region, nil, RewriteNop); err == nil {
		t.Fatal("deploy with no slots succeeded")
	}
}

func TestDeploySkipsAlreadyPatchedSlots(t *testing.T) {
	img, _, region, pfs := buildLoopImage(t)
	p := NewPatcher(img, false)
	if _, err := deployOne(p, region, pfs, RewriteNop); err != nil {
		t.Fatal(err)
	}
	// All lfetches already gone: second deploy must fail cleanly.
	if _, err := deployOne(p, region, pfs, RewriteExcl); err == nil {
		t.Fatal("second deploy over nopped slots succeeded")
	}
}
