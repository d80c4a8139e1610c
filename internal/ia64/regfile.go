package ia64

// Register-file geometry, following Itanium:
//
//   - 128 general registers; r0 reads as zero; r32..r127 form the rotating
//     region used by software-pipelined loops.
//   - 128 floating-point registers; f0 reads 0.0 and f1 reads 1.0;
//     f32..f127 rotate.
//   - 64 predicate registers; p0 reads as true; p16..p63 rotate.
//   - Application registers LC (loop count) and EC (epilog count).
const (
	NumGR = 128
	NumFR = 128
	NumPR = 64

	RotGRBase = 32 // first rotating general register
	RotFRBase = 32 // first rotating floating register
	RotPRBase = 16 // first rotating predicate register

	rotGRSize = NumGR - RotGRBase
	rotFRSize = NumFR - RotFRBase
	rotPRSize = NumPR - RotPRBase
)

// RegFile is the architectural register state of one hardware thread
// context. Rotation is implemented with rename bases (rrb): a logical
// register in the rotating region maps to physical
// base + (logical-base+rrb) mod size. Executing br.ctop/br.wtop decrements
// the bases, which renames r32 to the physical register previously named
// r33 — the mechanism software pipelining relies on to shift loop stages.
//
// For a register of the file both logical-base and rrb lie in [0, size),
// so the mod is one conditional subtract. A number beyond the file (which
// Decode accepts but no assembler emits) takes one more subtract per wrap
// and lands where the mod would.
type RegFile struct {
	gr [NumGR]int64
	fr [NumFR]float64
	pr [NumPR]bool

	LC int64 // ar.lc: loop count
	EC int64 // ar.ec: epilog count

	rrbGR int // general-register rename base (0..rotGRSize-1)
	rrbFR int
	rrbPR int
}

// Reset clears all register state including rename bases.
func (rf *RegFile) Reset() {
	*rf = RegFile{}
}

func (rf *RegFile) physGR(r uint8) int {
	if r < RotGRBase {
		return int(r)
	}
	i := int(r) + rf.rrbGR
	for i >= NumGR {
		i -= rotGRSize
	}
	return i
}

func (rf *RegFile) physFR(r uint8) int {
	if r < RotFRBase {
		return int(r)
	}
	i := int(r) + rf.rrbFR
	for i >= NumFR {
		i -= rotFRSize
	}
	return i
}

func (rf *RegFile) physPR(p uint8) int {
	if p < RotPRBase {
		return int(p)
	}
	i := int(p) + rf.rrbPR
	for i >= NumPR {
		i -= rotPRSize
	}
	return i
}

// GR reads logical general register r. r0 always reads zero.
func (rf *RegFile) GR(r uint8) int64 {
	if r == 0 {
		return 0
	}
	return rf.gr[rf.physGR(r)]
}

// SetGR writes logical general register r. Writes to r0 are discarded.
func (rf *RegFile) SetGR(r uint8, v int64) {
	if r == 0 {
		return
	}
	rf.gr[rf.physGR(r)] = v
}

// FR reads logical floating register r. f0 reads 0.0, f1 reads 1.0.
func (rf *RegFile) FR(r uint8) float64 {
	switch r {
	case 0:
		return 0
	case 1:
		return 1
	}
	return rf.fr[rf.physFR(r)]
}

// SetFR writes logical floating register r. Writes to f0/f1 are discarded.
func (rf *RegFile) SetFR(r uint8, v float64) {
	if r <= 1 {
		return
	}
	rf.fr[rf.physFR(r)] = v
}

// PR reads logical predicate p. p0 always reads true.
func (rf *RegFile) PR(p uint8) bool {
	if p == 0 {
		return true
	}
	return rf.pr[rf.physPR(p)]
}

// SetPR writes logical predicate p. Writes to p0 are discarded.
func (rf *RegFile) SetPR(p uint8, v bool) {
	if p == 0 {
		return
	}
	rf.pr[rf.physPR(p)] = v
}

// Rotate decrements the rename bases by one, renaming rN to the physical
// register previously named rN+1 for every register in the rotating
// regions. It is invoked by br.ctop and br.wtop.
func (rf *RegFile) Rotate() {
	rf.rrbGR = (rf.rrbGR - 1 + rotGRSize) % rotGRSize
	rf.rrbFR = (rf.rrbFR - 1 + rotFRSize) % rotFRSize
	rf.rrbPR = (rf.rrbPR - 1 + rotPRSize) % rotPRSize
}

// ClearRRB resets all rename bases, as the clrrrb instruction does before
// entering a software-pipelined loop.
func (rf *RegFile) ClearRRB() {
	rf.rrbGR, rf.rrbFR, rf.rrbPR = 0, 0, 0
}

// BranchOutcome describes the architectural effect of executing a loop
// branch.
type BranchOutcome struct {
	Taken   bool
	Rotated bool
}

// ExecCtop applies br.ctop semantics: while LC is non-zero the branch is
// taken, LC decrements, registers rotate and the new p16 (the stage
// predicate feeding the pipeline) is set true. When LC reaches zero the
// epilog counter EC drains the pipeline with p16 false; the branch falls
// through on the final stage.
func (rf *RegFile) ExecCtop() BranchOutcome {
	var out BranchOutcome
	switch {
	case rf.LC > 0:
		rf.LC--
		out.Taken = true
		rf.Rotate()
		rf.SetPR(RotPRBase, true)
	case rf.EC > 1:
		rf.EC--
		out.Taken = true
		rf.Rotate()
		rf.SetPR(RotPRBase, false)
	default:
		if rf.EC > 0 {
			rf.EC--
		}
		rf.Rotate()
		rf.SetPR(RotPRBase, false)
	}
	out.Rotated = true
	return out
}

// ExecWtop applies (simplified) br.wtop semantics for pipelined while
// loops: the branch is taken while the qualifying predicate holds another
// iteration, then EC drains the epilog stages.
func (rf *RegFile) ExecWtop(qp bool) BranchOutcome {
	var out BranchOutcome
	switch {
	case qp:
		out.Taken = true
		rf.Rotate()
		rf.SetPR(RotPRBase, true)
	case rf.EC > 1:
		rf.EC--
		out.Taken = true
		rf.Rotate()
		rf.SetPR(RotPRBase, false)
	default:
		if rf.EC > 0 {
			rf.EC--
		}
		rf.Rotate()
		rf.SetPR(RotPRBase, false)
	}
	out.Rotated = true
	return out
}

// ExecCloop applies br.cloop semantics: taken while LC is non-zero, with no
// register rotation.
func (rf *RegFile) ExecCloop() BranchOutcome {
	if rf.LC > 0 {
		rf.LC--
		return BranchOutcome{Taken: true}
	}
	return BranchOutcome{}
}
