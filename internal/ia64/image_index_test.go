package ia64

import "testing"

// distinct returns an instruction whose encoding is unique per i, so a
// stale slot can never coincidentally match fresh content.
func distinct(i int) Instr {
	return Instr{Op: OpMovI, R1: uint8(i % 32), Imm: int64(1000 + i)}
}

func sameStream(t *testing.T, step string, got []Instr, img *Image) {
	t.Helper()
	if len(got) != img.Len() {
		t.Fatalf("%s: code len %d, image len %d", step, len(got), img.Len())
	}
	for pc := range got {
		if got[pc] != img.Fetch(pc) {
			t.Fatalf("%s: slot %d stale: %+v vs %+v", step, pc, got[pc], img.Fetch(pc))
		}
	}
}

func TestFuncAtIndexOutOfOrderRegistration(t *testing.T) {
	img := NewImage()
	for i := 0; i < 40; i++ {
		img.Append(Instr{Op: OpNop})
	}
	// Register out of address order, as trace/layout emission does when
	// code-cache functions land after workload functions are re-sorted.
	img.AddFunc("c", 30, 40)
	img.AddFunc("a", 0, 10)
	img.AddFunc("b", 12, 20)

	cases := []struct {
		pc   int
		want string
		ok   bool
	}{
		{-1, "", false},
		{0, "a", true},
		{9, "a", true},
		{10, "", false}, // End is exclusive
		{11, "", false}, // gap between a and b
		{12, "b", true},
		{19, "b", true},
		{20, "", false},
		{29, "", false},
		{30, "c", true},
		{39, "c", true},
		{40, "", false},
		{1000, "", false},
	}
	check := func(im *Image, label string) {
		t.Helper()
		for _, c := range cases {
			f, ok := im.FuncAt(c.pc)
			if ok != c.ok || (ok && f.Name != c.want) {
				t.Fatalf("%s: FuncAt(%d) = (%q, %v), want (%q, %v)",
					label, c.pc, f.Name, ok, c.want, c.ok)
			}
		}
	}
	check(img, "original")
	check(img.Clone(), "clone") // Clone must carry the index, not just funcs
}

// TestFuncAtNestedRanges exercises the prefix-max-End walk-back: a pc
// inside an outer function but past an inner function's End must not stop
// at the inner entry (the rightmost Entry <= pc) and report a miss.
func TestFuncAtNestedRanges(t *testing.T) {
	img := NewImage()
	for i := 0; i < 100; i++ {
		img.Append(Instr{Op: OpNop})
	}
	img.AddFunc("outer", 0, 100)
	img.AddFunc("inner", 10, 20)

	f, ok := img.FuncAt(50)
	if !ok || f.Name != "outer" {
		t.Fatalf("FuncAt(50) = (%q, %v), want outer past inner's End", f.Name, ok)
	}
	f, ok = img.FuncAt(15)
	if !ok || 15 < f.Entry || 15 >= f.End {
		t.Fatalf("FuncAt(15) = (%+v, %v), want a containing function", f, ok)
	}
	f, ok = img.FuncAt(5)
	if !ok || f.Name != "outer" {
		t.Fatalf("FuncAt(5) = (%q, %v), want outer", f.Name, ok)
	}
}

// TestFuncAtMatchesLinearScan cross-checks the binary-search index against
// a brute-force scan over every pc around a gappy, out-of-order function
// table — the reference semantics FuncAt replaced.
func TestFuncAtMatchesLinearScan(t *testing.T) {
	img := NewImage()
	for i := 0; i < 64; i++ {
		img.Append(Instr{Op: OpNop})
	}
	// Non-overlapping, registered out of order, with gaps.
	img.AddFunc("f3", 40, 48)
	img.AddFunc("f0", 0, 7)
	img.AddFunc("f2", 20, 33)
	img.AddFunc("f1", 9, 14)
	img.AddFunc("f4", 50, 64)

	funcs := img.Funcs()
	for pc := -2; pc <= img.Len()+2; pc++ {
		var want Func
		wantOK := false
		for _, f := range funcs {
			if pc >= f.Entry && pc < f.End {
				want, wantOK = f, true
				break
			}
		}
		got, ok := img.FuncAt(pc)
		if ok != wantOK || got != want {
			t.Fatalf("FuncAt(%d) = (%+v, %v), linear scan says (%+v, %v)",
				pc, got, ok, want, wantOK)
		}
	}
}

// TestRemoveTailInvalidatesPreRemovalCaches pins the generation contract
// code-cache unwinding relies on: after a RemoveTail the freed slots can
// be reused with different content at a matching length, so a CPU still
// holding the pre-removal Code slice must see the generation move, and
// its re-read must return the new tail, never the removed one.
func TestRemoveTailInvalidatesPreRemovalCaches(t *testing.T) {
	img := NewImage()
	for i := 0; i < 16; i++ {
		img.Append(distinct(i))
	}
	img.AddFunc("head", 0, 8)
	img.AddFunc("tail", 8, 16)

	_, gen := img.Code()

	img.RemoveTail(8)
	if img.Generation() != gen+1 {
		t.Fatalf("RemoveTail moved the generation %d -> %d, want one step", gen, img.Generation())
	}
	code, g := img.Code()
	if len(code) != 8 || g != img.Generation() {
		t.Fatalf("Code after RemoveTail(8): len %d at gen %d, want 8 at %d", len(code), g, img.Generation())
	}
	if _, ok := img.FuncAt(12); ok {
		t.Fatal("FuncAt inside removed tail still resolves")
	}
	if f, ok := img.FuncAt(4); !ok || f.Name != "head" {
		t.Fatalf("FuncAt(4) = (%+v, %v), want head", f, ok)
	}
	if _, ok := img.LookupFunc("tail"); ok {
		t.Fatal("removed-tail function still registered")
	}

	// Reuse the freed slots with different content, restoring the exact
	// pre-removal length: only the generation tells the two tails apart.
	for i := 0; i < 8; i++ {
		img.Append(distinct(100 + i))
	}
	img.AddFunc("tail2", 8, 16)

	code, g = img.Code()
	if g <= gen+1 || g != img.Generation() {
		t.Fatalf("Code after re-append at gen %d, image at %d, pre-removal %d", g, img.Generation(), gen)
	}
	sameStream(t, "after remove+reappend", code, img)
	for pc := 8; pc < 16; pc++ {
		if code[pc] != distinct(100+pc-8) {
			t.Fatalf("slot %d = %+v, want the re-appended tail", pc, code[pc])
		}
	}
	if f, ok := img.FuncAt(12); !ok || f.Name != "tail2" {
		t.Fatalf("FuncAt(12) = (%+v, %v), want tail2", f, ok)
	}
}

func TestRemoveTailOutOfRangeIsNoop(t *testing.T) {
	img := NewImage()
	img.Append(distinct(0), distinct(1))
	gen := img.Generation()
	img.RemoveTail(-1)
	img.RemoveTail(2)
	img.RemoveTail(7)
	if img.Len() != 2 || img.Generation() != gen {
		t.Fatalf("no-op RemoveTail changed image: len=%d gen=%d", img.Len(), img.Generation())
	}
}
