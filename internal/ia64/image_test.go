package ia64

import (
	"strings"
	"testing"
)

func TestImageAppendFetch(t *testing.T) {
	img := NewImage()
	start := img.Append(
		Instr{Op: OpMovI, R1: 4, Imm: 10},
		Instr{Op: OpLfetch, R2: 4, Hint: HintNT1},
	)
	if start != 0 {
		t.Fatalf("first append start = %d, want 0", start)
	}
	if img.Len() != 2 {
		t.Fatalf("Len = %d, want 2", img.Len())
	}
	if got := img.Fetch(1); got.Op != OpLfetch || got.Hint != HintNT1 {
		t.Fatalf("Fetch(1) = %+v", got)
	}
}

func TestImagePatchRewritesWordsAndBumpsGeneration(t *testing.T) {
	img := NewImage()
	img.Append(Instr{Op: OpLfetch, R2: 43, Hint: HintNT1})
	gen0 := img.Generation()
	w0Before, _ := img.Words(0)

	old, err := img.Patch(0, Instr{Op: OpNop})
	if err != nil {
		t.Fatal(err)
	}
	if old.Op != OpLfetch {
		t.Fatalf("Patch returned old op %v, want lfetch", old.Op)
	}
	if img.Generation() != gen0+1 {
		t.Fatalf("generation = %d, want %d", img.Generation(), gen0+1)
	}
	w0After, _ := img.Words(0)
	if w0After == w0Before {
		t.Fatal("Patch did not rewrite the encoded word")
	}
	if got := img.Fetch(0); got.Op != OpNop {
		t.Fatalf("Fetch after patch = %v, want nop", got.Op)
	}
}

func TestImagePatchUndo(t *testing.T) {
	img := NewImage()
	img.Append(Instr{Op: OpLfetch, R2: 43, Hint: HintNT1, QP: 16})
	orig := img.Fetch(0)
	old, err := img.Patch(0, Instr{Op: OpNop})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := img.Patch(0, old); err != nil {
		t.Fatal(err)
	}
	if got := img.Fetch(0); got != orig {
		t.Fatalf("undo mismatch: %+v vs %+v", got, orig)
	}
}

func TestImageCloneIsIndependent(t *testing.T) {
	img := NewImage()
	img.Append(Instr{Op: OpLfetch, R2: 43, Hint: HintNT1})
	img.AddFunc("f", 0, 1)

	cp := img.Clone()
	if cp.Len() != img.Len() {
		t.Fatalf("clone Len = %d, want %d", cp.Len(), img.Len())
	}
	if got := cp.Fetch(0); got.Op != OpLfetch || got.Hint != HintNT1 {
		t.Fatalf("clone Fetch(0) = %+v", got)
	}
	if _, ok := cp.LookupFunc("f"); !ok {
		t.Fatal("clone lost the function table")
	}
	w0, w1 := img.Words(0)
	cw0, cw1 := cp.Words(0)
	if w0 != cw0 || w1 != cw1 {
		t.Fatal("clone words differ from original")
	}

	// Patching the clone must not touch the original, and vice versa.
	if _, err := cp.Patch(0, Instr{Op: OpNop}); err != nil {
		t.Fatal(err)
	}
	if got := img.Fetch(0); got.Op != OpLfetch {
		t.Fatalf("original mutated by clone patch: %+v", got)
	}
	if _, err := img.Patch(0, Instr{Op: OpLfetch, R2: 43, Hint: HintExcl}); err != nil {
		t.Fatal(err)
	}
	if got := cp.Fetch(0); got.Op != OpNop {
		t.Fatalf("clone mutated by original patch: %+v", got)
	}
	// Appending to the clone must not grow the original.
	cp.Append(Instr{Op: OpHalt})
	if img.Len() != 1 {
		t.Fatalf("original Len = %d after clone append, want 1", img.Len())
	}
}

func TestImagePatchOutOfRange(t *testing.T) {
	img := NewImage()
	img.Append(Instr{Op: OpNop})
	if _, err := img.Patch(5, Instr{Op: OpNop}); err == nil {
		t.Fatal("Patch out of range succeeded")
	}
	if _, err := img.Patch(-1, Instr{Op: OpNop}); err == nil {
		t.Fatal("Patch at -1 succeeded")
	}
}

func TestImagePatchWordsValidates(t *testing.T) {
	img := NewImage()
	img.Append(Instr{Op: OpNop})
	gen := img.Generation()
	if _, err := img.Patch(0, Instr{Op: 0xff}); err == nil {
		t.Fatal("Patch accepted an invalid opcode")
	}
	if img.Fetch(0).Op != OpNop || img.Generation() != gen {
		t.Fatal("a refused patch changed the image")
	}
	// A valid rewrite must apply.
	if _, err := img.Patch(0, Instr{Op: OpLfetch, R2: 10, Hint: HintExcl}); err != nil {
		t.Fatal(err)
	}
	if got := img.Fetch(0); got.Hint != HintExcl {
		t.Fatalf("hint = %v, want .excl", got.Hint)
	}
}

func TestImageFuncTable(t *testing.T) {
	img := NewImage()
	img.Append(Instr{Op: OpNop}, Instr{Op: OpNop}, Instr{Op: OpNop})
	img.AddFunc("a", 0, 3)
	img.Append(Instr{Op: OpHalt})
	img.AddFunc("b", 3, 4)

	if f, ok := img.LookupFunc("b"); !ok || f.Entry != 3 {
		t.Fatalf("LookupFunc(b) = %+v, %v", f, ok)
	}
	if f, ok := img.FuncAt(1); !ok || f.Name != "a" {
		t.Fatalf("FuncAt(1) = %+v, %v", f, ok)
	}
	if _, ok := img.FuncAt(99); ok {
		t.Fatal("FuncAt(99) found a function")
	}
	fs := img.Funcs()
	if len(fs) != 2 || fs[0].Name != "a" || fs[1].Name != "b" {
		t.Fatalf("Funcs() = %+v", fs)
	}
}

func TestAsmLabelsAndBranches(t *testing.T) {
	img := NewImage()
	// A preceding function shifts the base so fixups must be relocated.
	pre := NewAsm(img, "pre")
	pre.Nop()
	if _, err := pre.Close(); err != nil {
		t.Fatal(err)
	}

	a := NewAsm(img, "loop")
	a.Emit(Instr{Op: OpMovToLCI, Imm: 3})
	a.Label("top")
	a.Emit(Instr{Op: OpAddI, R1: 4, R2: 4, Imm: 1})
	a.Br(BrCloop, 0, "top")
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	if entry%BundleSlots != 0 {
		t.Fatalf("entry %d not bundle aligned", entry)
	}
	// The branch target must be the absolute slot of "top".
	var br Instr
	for pc := entry; pc < img.Len(); pc++ {
		if in := img.Fetch(pc); in.Op == OpBr {
			br = in
			break
		}
	}
	if br.Op != OpBr {
		t.Fatal("no branch emitted")
	}
	wantTarget := int64(entry + 1)
	if br.Imm != wantTarget {
		t.Fatalf("branch target = %d, want %d", br.Imm, wantTarget)
	}
}

func TestAsmUndefinedLabel(t *testing.T) {
	img := NewImage()
	a := NewAsm(img, "bad")
	a.Br(BrAlways, 0, "nowhere")
	if _, err := a.Close(); err == nil {
		t.Fatal("Close accepted undefined label")
	}
}

func TestAsmDuplicateLabel(t *testing.T) {
	img := NewImage()
	a := NewAsm(img, "dup")
	a.Label("x")
	a.Nop()
	a.Label("x")
	if _, err := a.Close(); err == nil {
		t.Fatal("Close accepted duplicate label")
	}
}

func TestAsmPadsToBundle(t *testing.T) {
	img := NewImage()
	a := NewAsm(img, "pad")
	a.Nop() // 1 slot -> must pad to 3
	if _, err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if img.Len()%BundleSlots != 0 {
		t.Fatalf("image length %d not bundle aligned after Close", img.Len())
	}
}

func TestDisasmCoversCommonForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpLfetch, R2: 43, Hint: HintNT1, QP: 16}, "(p16) lfetch.nt1 [r43]"},
		{Instr{Op: OpLfetch, R2: 43, Hint: HintExcl}, "lfetch.excl [r43]"},
		{Instr{Op: OpFma, R1: 44, R2: 6, R3: 37, Imm: 43}, "fma.d f44=f6,f37,f43"},
		{Instr{Op: OpBr, Br: BrCtop, Imm: 12}, "br.ctop 12"},
		{Instr{Op: OpNop}, "nop"},
		{Instr{Op: OpLd, R1: 3, R2: 9, Hint: HintBias}, "ld8.bias r3=[r9]"},
	}
	for _, c := range cases {
		if got := Disasm(c.in); got != c.want {
			t.Errorf("Disasm(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDumpFunc(t *testing.T) {
	img := NewImage()
	a := NewAsm(img, "f")
	a.Emit(Instr{Op: OpLfetch, R2: 10, Hint: HintNT1})
	a.Emit(Instr{Op: OpHalt})
	if _, err := a.Close(); err != nil {
		t.Fatal(err)
	}
	fn, _ := img.LookupFunc("f")
	var sb strings.Builder
	DumpFunc(&sb, img, fn)
	out := sb.String()
	for _, want := range []string{"f:", "lfetch.nt1 [r10]", "halt"} {
		if !strings.Contains(out, want) {
			t.Errorf("DumpFunc output missing %q:\n%s", want, out)
		}
	}
}
