package ia64

import "testing"

// TestImageRefusesUnencodableInstr: a field wider than its encoding is
// refused by Patch and Append, and the image keeps its slots and words.
func TestImageRefusesUnencodableInstr(t *testing.T) {
	img := NewImage()
	if _, err := img.Append(Instr{Op: OpLfetch, R2: 43, Hint: HintNT1}); err != nil {
		t.Fatal(err)
	}
	w0, w1 := img.Words(0)
	gen := img.Generation()
	if _, err := img.Patch(0, Instr{Op: OpNop, P1: 64}); err == nil {
		t.Error("Patch stored P1 64 in a 6-bit field")
	}
	if _, err := img.Append(Instr{Op: OpNop}, Instr{Op: OpNop, Hint: 17}); err == nil {
		t.Error("Append stored hint 17 in a 4-bit field")
	}
	if got := img.Fetch(0); got != (Instr{Op: OpLfetch, R2: 43, Hint: HintNT1}) || img.Len() != 1 {
		t.Errorf("a refused write changed the image: slot 0 %+v, %d slots", got, img.Len())
	}
	if g0, g1 := img.Words(0); g0 != w0 || g1 != w1 || img.Generation() != gen {
		t.Error("a refused write changed the words or the generation")
	}
}

// FuzzInstrWords checks both directions of the instruction encoding:
//   - any word pair either fails to decode or re-encodes to the same two
//     words, so every bit of word 0 belongs to a field;
//   - Append and Patch either store exactly the given instruction, in the
//     slot CPUs execute and in its words, or refuse it and leave the image
//     as it was; an instruction decoded from words is never refused.
func FuzzInstrWords(f *testing.F) {
	f.Fuzz(func(t *testing.T, w0, w1 uint64, op, qp, r1, r2, r3, p1, p2, hint, br, rel uint8, imm int64) {
		dec, err := Decode(Word(w0), Word(w1))
		if err == nil {
			if e0, e1 := Encode(dec); e0 != Word(w0) || e1 != Word(w1) {
				t.Fatalf("words (%#x, %#x) decode to %+v, which encodes to (%#x, %#x)", w0, w1, dec, e0, e1)
			}
			if _, err := NewImage().Append(dec); err != nil {
				t.Fatalf("Append refused decoded %+v: %v", dec, err)
			}
		}

		in := Instr{Op: Op(op), QP: qp, R1: r1, R2: r2, R3: r3, P1: p1, P2: p2,
			Hint: Hint(hint), Br: BrKind(br), Rel: CmpRel(rel), Imm: imm}
		stored := func(img *Image, pc int) {
			t.Helper()
			if got := img.Fetch(pc); got != in {
				t.Fatalf("slot %d holds %+v, want %+v", pc, got, in)
			}
			if got, err := Decode(img.Words(pc)); err != nil || got != in {
				t.Fatalf("words of slot %d decode to %+v (%v), want %+v", pc, got, err, in)
			}
		}

		img := NewImage()
		pc, appendErr := img.Append(in)
		switch {
		case appendErr == nil:
			stored(img, pc)
		case img.Len() != 0:
			t.Fatalf("Append refused %+v (%v) but stored %d slots", in, appendErr, img.Len())
		}

		nop := Instr{Op: OpNop}
		img = NewImage()
		if _, err := img.Append(nop); err != nil {
			t.Fatal(err)
		}
		n0, n1 := img.Words(0)
		_, patchErr := img.Patch(0, in)
		switch {
		case (patchErr == nil) != (appendErr == nil):
			t.Fatalf("Append (%v) and Patch (%v) disagree on %+v", appendErr, patchErr, in)
		case patchErr == nil:
			stored(img, 0)
		default:
			if g0, g1 := img.Words(0); img.Fetch(0) != nop || g0 != n0 || g1 != n1 {
				t.Fatalf("Patch refused %+v (%v) but changed the slot", in, patchErr)
			}
		}
	})
}
