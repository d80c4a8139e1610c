package ia64

import "fmt"

// Word is one half of an encoded instruction. Instructions encode into a
// fixed-width pair of words: word 0 packs the opcode and register/completer
// fields, word 1 holds the 64-bit immediate. The fixed width is what makes
// in-place binary patching safe — a rewritten instruction always fits the
// slot of the instruction it replaces, just as a 41-bit IA-64 syllable can
// be rewritten within its bundle.
type Word uint64

// Field layout of word 0 (LSB first):
//
//	bits  0..7   Op
//	bits  8..15  QP
//	bits 16..23  R1
//	bits 24..31  R2
//	bits 32..39  R3
//	bits 40..45  P1
//	bits 46..51  P2
//	bits 52..55  Hint
//	bits 56..59  Br
//	bits 60..63  Rel
const (
	shiftOp   = 0
	shiftQP   = 8
	shiftR1   = 16
	shiftR2   = 24
	shiftR3   = 32
	shiftP1   = 40
	shiftP2   = 46
	shiftHint = 52
	shiftBr   = 56
	shiftRel  = 60
)

// Encode packs an instruction into its two-word binary form.
func Encode(in Instr) (Word, Word) {
	var w Word
	w |= Word(in.Op) << shiftOp
	w |= Word(in.QP) << shiftQP
	w |= Word(in.R1) << shiftR1
	w |= Word(in.R2) << shiftR2
	w |= Word(in.R3) << shiftR3
	w |= Word(in.P1&0x3f) << shiftP1
	w |= Word(in.P2&0x3f) << shiftP2
	w |= Word(in.Hint&0xf) << shiftHint
	w |= Word(in.Br&0xf) << shiftBr
	w |= Word(in.Rel&0xf) << shiftRel
	return w, Word(uint64(in.Imm))
}

// Decode unpacks a two-word binary form into an instruction. It returns an
// error for opcodes outside the defined set so that a corrupted patch is
// detected rather than silently executed.
func Decode(w0, w1 Word) (Instr, error) {
	op := Op(w0 >> shiftOp & 0xff)
	if op >= opCount {
		return Instr{}, fmt.Errorf("ia64: invalid opcode %d in word %#x", op, uint64(w0))
	}
	in := Instr{
		Op:   op,
		QP:   uint8(w0 >> shiftQP),
		R1:   uint8(w0 >> shiftR1),
		R2:   uint8(w0 >> shiftR2),
		R3:   uint8(w0 >> shiftR3),
		P1:   uint8(w0 >> shiftP1 & 0x3f),
		P2:   uint8(w0 >> shiftP2 & 0x3f),
		Hint: Hint(w0 >> shiftHint & 0xf),
		Br:   BrKind(w0 >> shiftBr & 0xf),
		Rel:  CmpRel(w0 >> shiftRel & 0xf),
		Imm:  int64(w1),
	}
	if in.Hint > HintBias {
		return Instr{}, fmt.Errorf("ia64: invalid hint %d in word %#x", in.Hint, uint64(w0))
	}
	if in.Op == OpBr && in.Br > BrRet {
		return Instr{}, fmt.Errorf("ia64: invalid branch kind %d in word %#x", in.Br, uint64(w0))
	}
	return in, nil
}

// encodeExact encodes in and refuses it unless the words decode back to
// exactly in. Encode keeps only the low 6 bits of P1 and P2 and the low 4
// bits of Hint, Br and Rel, so a wider field would otherwise change
// silently, and the slot a CPU executes would disagree with its words.
func encodeExact(in Instr) (Word, Word, error) {
	w0, w1 := Encode(in)
	got, err := Decode(w0, w1)
	if err != nil {
		return 0, 0, err
	}
	if got != in {
		return 0, 0, fmt.Errorf("ia64: %+v does not fit its encoding (it decodes to %+v)", in, got)
	}
	return w0, w1, nil
}

// MustDecode decodes a word pair and panics on malformed encodings. It is
// used on paths where the words were produced by Encode.
func MustDecode(w0, w1 Word) Instr {
	in, err := Decode(w0, w1)
	if err != nil {
		panic(err)
	}
	return in
}
