// Package ia64 models an IA-64 (Itanium 2) like instruction set in enough
// detail to support runtime binary optimization: instructions carry the
// completers and hints COBRA rewrites (lfetch .nt1/.excl, ld .bias), loops
// use the three Itanium branch forms (br.ctop, br.cloop, br.wtop), and the
// register file implements register rotation for software-pipelined loops.
//
// Code is held in an Image of fixed-width encoded words. A runtime optimizer
// patches a program by rewriting words in the image, exactly the operation
// the COBRA paper performs on Itanium binaries.
package ia64

import "fmt"

// Op is an instruction opcode.
type Op uint8

// Opcodes. The set is a compact subset of IA-64 sufficient for the code the
// loop-nest compiler generates and the COBRA optimizer rewrites.
const (
	OpNop Op = iota // no operation (also the target of "noprefetch" rewrites)

	// Integer ALU.
	OpAdd  // R1 = R2 + R3
	OpSub  // R1 = R2 - R3
	OpAddI // R1 = R2 + Imm
	OpAnd  // R1 = R2 & R3
	OpOr   // R1 = R2 | R3
	OpXor  // R1 = R2 ^ R3
	OpShlI // R1 = R2 << Imm
	OpShrI // R1 = R2 >> Imm (arithmetic)
	OpMovI // R1 = Imm
	OpMul  // R1 = R2 * R3 (xma.l equivalent)

	// Compare: writes predicate pair (P1 = cond, P2 = !cond).
	OpCmp  // cmp.crel R2, R3
	OpCmpI // cmp.crel R2, Imm

	// Memory.
	OpLd     // integer load: R1 = [R2]; Hint may carry .bias
	OpSt     // integer store: [R2] = R3
	OpLdf    // FP load: F1 = [R2] (bypasses L1D, as on Itanium 2)
	OpStf    // FP store: [R2] = F3
	OpLfetch // data prefetch: [R2]; Hint carries .nt1/.excl; non-faulting

	// Floating point.
	OpFma   // F1 = F2*F3 + F4 (4-operand; F4 encoded in R3 field)
	OpFAdd  // F1 = F2 + F3
	OpFSub  // F1 = F2 - F3
	OpFMul  // F1 = F2 * F3
	OpFDiv  // F1 = F2 / F3
	OpFMovI // F1 = float64frombits(Imm) (fp constant materialization)
	OpFMov  // F1 = F2
	OpFNeg  // F1 = -F2
	OpFCmp  // predicate pair = F2 crel F3
	OpFCvt  // F1 = float64(R2) (setf + fcvt folded)
	OpFInt  // R1 = int64(F2) (fcvt.fx + getf folded)

	// Branches. Imm holds the absolute target slot index.
	OpBr // qualified branch; BrKind selects cond/ctop/cloop/wtop/always/ret

	// Application registers for loop control.
	OpMovToLC   // ar.lc = R2
	OpMovToLCI  // ar.lc = Imm
	OpMovToEC   // ar.ec = R2
	OpMovToECI  // ar.ec = Imm
	OpMovFromLC // R1 = ar.lc
	OpClrrrb    // clear register rename bases

	// Simulation support.
	OpHalt // terminate the executing thread context (outlined-region return)

	opCount // sentinel
)

// BrKind selects the branch form carried by OpBr.
type BrKind uint8

const (
	BrCond   BrKind = iota // branch if QP predicate is true
	BrAlways               // unconditional branch (br.sptk)
	BrCloop                // counted loop: if LC != 0 { LC--; taken }
	BrCtop                 // modulo-scheduled counted loop (rotates registers)
	BrWtop                 // modulo-scheduled while loop (rotates registers)
	BrRet                  // return/halt marker for outlined regions
)

// Hint carries the memory-hint completer of a load or lfetch.
type Hint uint8

const (
	HintNone Hint = iota
	HintNT1       // lfetch.nt1: temporal locality at L2 (icc's default)
	HintNT2       // lfetch.nt2
	HintNTA       // lfetch.nta
	HintExcl      // lfetch.excl: acquire the line in Exclusive state
	HintBias      // ld.bias: integer load biased to Exclusive state
)

// CmpRel is the compare relation of OpCmp/OpCmpI/OpFCmp.
type CmpRel uint8

const (
	CmpEQ CmpRel = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// Instr is one decoded instruction. Slot fields are interpreted per opcode;
// unused fields are zero. R fields address general registers for integer
// ops and floating registers for FP ops. P1/P2 are predicate targets of
// compares; QP is the qualifying predicate (0 = always true, as p0 on
// IA-64).
type Instr struct {
	Op   Op
	QP   uint8 // qualifying predicate register
	R1   uint8 // destination register
	R2   uint8 // source 1 / address register
	R3   uint8 // source 2 (or F4 addend for fma)
	P1   uint8 // predicate destination (cmp)
	P2   uint8 // complementary predicate destination (cmp)
	Hint Hint
	Br   BrKind
	Rel  CmpRel
	Imm  int64 // immediate / branch target slot index
}

// IsStore reports whether the instruction is a store.
func (in Instr) IsStore() bool { return in.Op == OpSt || in.Op == OpStf }

// IsBranch reports whether the instruction is a branch.
func (in Instr) IsBranch() bool { return in.Op == OpBr }

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

var opNames = [...]string{
	OpNop:       "nop",
	OpAdd:       "add",
	OpSub:       "sub",
	OpAddI:      "addi",
	OpAnd:       "and",
	OpOr:        "or",
	OpXor:       "xor",
	OpShlI:      "shli",
	OpShrI:      "shri",
	OpMovI:      "movi",
	OpMul:       "xma.l",
	OpCmp:       "cmp",
	OpCmpI:      "cmpi",
	OpLd:        "ld8",
	OpSt:        "st8",
	OpLdf:       "ldfd",
	OpStf:       "stfd",
	OpLfetch:    "lfetch",
	OpFma:       "fma.d",
	OpFAdd:      "fadd",
	OpFSub:      "fsub",
	OpFMul:      "fmul",
	OpFDiv:      "fdiv",
	OpFMovI:     "fmovi",
	OpFMov:      "fmov",
	OpFNeg:      "fneg",
	OpFCmp:      "fcmp",
	OpFCvt:      "fcvt",
	OpFInt:      "fint",
	OpBr:        "br",
	OpMovToLC:   "mov.lc",
	OpMovToLCI:  "movi.lc",
	OpMovToEC:   "mov.ec",
	OpMovToECI:  "movi.ec",
	OpMovFromLC: "mov.from.lc",
	OpClrrrb:    "clrrrb",
	OpHalt:      "halt",
}

func (b BrKind) String() string {
	switch b {
	case BrCond:
		return "cond"
	case BrAlways:
		return "sptk"
	case BrCloop:
		return "cloop"
	case BrCtop:
		return "ctop"
	case BrWtop:
		return "wtop"
	case BrRet:
		return "ret"
	}
	return fmt.Sprintf("br(%d)", uint8(b))
}

func (h Hint) String() string {
	switch h {
	case HintNone:
		return ""
	case HintNT1:
		return ".nt1"
	case HintNT2:
		return ".nt2"
	case HintNTA:
		return ".nta"
	case HintExcl:
		return ".excl"
	case HintBias:
		return ".bias"
	}
	return fmt.Sprintf(".h%d", uint8(h))
}

func (c CmpRel) String() string {
	switch c {
	case CmpEQ:
		return "eq"
	case CmpNE:
		return "ne"
	case CmpLT:
		return "lt"
	case CmpLE:
		return "le"
	case CmpGT:
		return "gt"
	case CmpGE:
		return "ge"
	}
	return fmt.Sprintf("rel(%d)", uint8(c))
}
