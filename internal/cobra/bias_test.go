package cobra

import (
	"testing"

	"repro/internal/ia64"
	"repro/internal/mem"
)

// buildIntRMWImage assembles a loop doing an integer read-modify-write:
// ld8 r10=[r13]; add; st8 [r13]=r10 — the load-then-store-to-same-line
// pattern ld8.bias targets.
func buildIntRMWImage(t *testing.T) (*ia64.Image, *mem.Memory, Region, int) {
	t.Helper()
	memory := mem.NewMemory(1<<20, 16<<10)
	base := memory.MustAlloc("prog.cnt", 4096, 128)

	img := ia64.NewImage()
	a := ia64.NewAsm(img, "rmw")
	a.Emit(ia64.Instr{Op: ia64.OpMovToLCI, Imm: 31})
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 13, Imm: int64(base)})
	a.Label("head")
	ld := a.Emit(ia64.Instr{Op: ia64.OpLd, R1: 10, R2: 13})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 10, R2: 10, Imm: 1})
	a.Emit(ia64.Instr{Op: ia64.OpSt, R2: 13, R3: 10})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 13, R2: 13, Imm: 8})
	br := a.Br(ia64.BrCloop, 0, "head")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	key := LoopKey{Head: entry + 2, BranchPC: entry + br}
	region := Region{Key: key, Start: entry, End: entry + br, FuncName: "rmw"}
	return img, memory, region, entry + ld
}

func TestRewriteBiasApplicability(t *testing.T) {
	ld := ia64.Instr{Op: ia64.OpLd, R1: 10, R2: 13}
	if !RewriteBias.applicable(ld) {
		t.Fatal("bias rejects a plain ld8")
	}
	biased := RewriteBias.apply(ld)
	if biased.Hint != ia64.HintBias || biased.Op != ia64.OpLd || biased.R1 != ld.R1 {
		t.Fatalf("bias rewrite = %+v", biased)
	}
	// Not applicable twice, nor to other instructions.
	if RewriteBias.applicable(biased) {
		t.Fatal("bias reapplied to an already-biased load")
	}
	if RewriteBias.applicable(ia64.Instr{Op: ia64.OpLdf}) {
		t.Fatal("bias applied to an FP load (unsupported on IA-64)")
	}
	if RewriteBias.applicable(ia64.Instr{Op: ia64.OpLfetch}) {
		t.Fatal("bias applied to a prefetch")
	}
	if RewriteNop.applicable(ld) || RewriteExcl.applicable(ld) {
		t.Fatal("prefetch rewrites applied to a demand load")
	}
}

func TestPatcherDeploysBiasInPlace(t *testing.T) {
	img, _, region, ldPC := buildIntRMWImage(t)
	p := NewPatcher(img, false)
	patch, err := deployOne(p, region, []int{ldPC}, RewriteBias)
	if err != nil {
		t.Fatal(err)
	}
	if patch.Variants[0].RewrittenPrefetches != 1 {
		t.Fatalf("rewritten = %d", patch.Variants[0].RewrittenPrefetches)
	}
	if in := img.Fetch(ldPC); in.Hint != ia64.HintBias {
		t.Fatalf("load hint = %v, want .bias", in.Hint)
	}
	if err := p.Switch(patch, -1); err != nil {
		t.Fatal(err)
	}
	if in := img.Fetch(ldPC); in.Hint != ia64.HintNone {
		t.Fatal("rollback did not restore the load")
	}
}

func TestPatcherDeploysBiasTrace(t *testing.T) {
	img, _, region, ldPC := buildIntRMWImage(t)
	p := NewPatcher(img, true)
	patch, err := deployOne(p, region, []int{ldPC}, RewriteBias)
	if err != nil {
		t.Fatal(err)
	}
	// Original untouched beyond the redirect; trace carries the .bias.
	if in := img.Fetch(ldPC); in.Hint != ia64.HintNone {
		t.Fatal("trace deploy modified the original load")
	}
	fn, ok := img.FuncAt(patch.Variants[0].TraceEntry)
	if !ok {
		t.Fatal("trace not registered")
	}
	found := false
	for pc := fn.Entry; pc < fn.End; pc++ {
		if in := img.Fetch(pc); in.Op == ia64.OpLd && in.Hint == ia64.HintBias {
			found = true
		}
	}
	if !found {
		t.Fatal("no biased load in the trace")
	}
	// ActiveKey relocation points into the trace.
	if patch.Variants[0].ActiveKey.Head < fn.Entry || patch.Variants[0].ActiveKey.BranchPC >= fn.End {
		t.Fatalf("ActiveKey %+v outside trace [%d,%d)", patch.Variants[0].ActiveKey, fn.Entry, fn.End)
	}
}

func TestStrategyBiasChoosesBias(t *testing.T) {
	r := &Runtime{cfg: DefaultConfig(StrategyBias)}
	rw, ok := r.chooseRewrite(&RegionState{})
	if !ok || rw != RewriteBias {
		t.Fatalf("choice = %v,%v", rw, ok)
	}
	if StrategyBias.String() != "ld.bias" {
		t.Fatalf("name = %q", StrategyBias.String())
	}
}
