package cobra

import (
	"repro/internal/ia64"
	"repro/internal/mem"
)

// Region is a candidate optimization region: a loop body discovered from
// BTB profiles, widened to include its straight-line preheader so the
// prologue prefetch burst is covered too.
type Region struct {
	Key      LoopKey
	Start    int // widened region start (preheader)
	End      int // inclusive: the loop branch slot
	FuncName string
}

// Analyzer performs the binary analysis of §4: loop boundary construction,
// prefetch discovery inside loop bodies, and association of prefetches and
// stores with the data structures delinquent loads touch — all from the
// binary image and the process memory map, never from compiler metadata.
type Analyzer struct {
	img    *ia64.Image
	memory *mem.Memory
}

// NewAnalyzer builds an analyzer over the running process image.
func NewAnalyzer(img *ia64.Image, memory *mem.Memory) *Analyzer {
	return &Analyzer{img: img, memory: memory}
}

// ValidLoop checks a BTB-discovered backward branch pair for structural
// sanity before it is treated as a loop: the branch and its target must
// lie within the same function of the running binary. Without this check,
// a branch inside a code-cache trace that targets its original function
// (the trace's loop-exit path) would masquerade as a loop spanning
// arbitrary code.
func (a *Analyzer) ValidLoop(k LoopKey) bool {
	fn, ok := a.img.FuncAt(k.Head)
	if !ok {
		return false
	}
	return k.BranchPC >= fn.Entry && k.BranchPC < fn.End
}

// RegionFor widens a BTB-discovered loop [head, branch] backwards over its
// straight-line preheader: scanning from head toward the function entry
// until a branch (another control transfer) is found. The prologue
// prefetches icc emits before software-pipelined loops live there.
func (a *Analyzer) RegionFor(k LoopKey) Region {
	start := k.Head
	lo := 0
	fname := ""
	if fn, ok := a.img.FuncAt(k.Head); ok {
		lo = fn.Entry
		fname = fn.Name
	}
	for pc := k.Head - 1; pc >= lo; pc-- {
		in := a.img.Fetch(pc)
		if in.IsBranch() || in.Op == ia64.OpHalt {
			break
		}
		start = pc
	}
	return Region{Key: k, Start: start, End: k.BranchPC, FuncName: fname}
}

// Contains reports whether pc falls inside the region.
func (r Region) Contains(pc int) bool { return pc >= r.Start && pc <= r.End }

// Prefetches returns the slots of all lfetch instructions in the region
// (prologue burst + steady state).
func (a *Analyzer) Prefetches(r Region) []int {
	var out []int
	for pc := r.Start; pc <= r.End && pc < a.img.Len(); pc++ {
		if a.img.Fetch(pc).Op == ia64.OpLfetch {
			out = append(out, pc)
		}
	}
	return out
}

// writtenGR returns the general register written by in, or -1.
func writtenGR(in ia64.Instr) int {
	switch in.Op {
	case ia64.OpAdd, ia64.OpSub, ia64.OpAddI, ia64.OpAnd, ia64.OpOr, ia64.OpXor,
		ia64.OpShlI, ia64.OpShrI, ia64.OpMovI, ia64.OpMul, ia64.OpLd, ia64.OpFInt,
		ia64.OpMovFromLC:
		return int(in.R1)
	}
	return -1
}

// ResolveSegment walks reaching definitions of reg backwards from slot pc
// (exclusive) down to slot lo, following address arithmetic until it finds
// the immediate that materialized an array base, and returns the memory
// segment it points into. This is how the optimizer associates a prefetch
// or store instruction with a data structure: the same def-use walk a
// binary optimizer performs on real IA-64 code.
func (a *Analyzer) ResolveSegment(lo, pc int, reg uint8, depth int) (mem.Segment, bool) {
	if depth <= 0 {
		return mem.Segment{}, false
	}
	for i := pc - 1; i >= lo; i-- {
		in := a.img.Fetch(i)
		if writtenGR(in) != int(reg) {
			continue
		}
		switch in.Op {
		case ia64.OpMovI:
			return a.memory.SegmentFor(uint64(in.Imm))
		case ia64.OpAddI:
			if in.R2 == reg {
				continue // self-update (cursor advance): keep walking back
			}
			reg = in.R2
			return a.ResolveSegment(lo, i, reg, depth-1)
		case ia64.OpAdd:
			// Two operands: an address chain and an offset chain. Try both.
			if seg, ok := a.ResolveSegment(lo, i, in.R2, depth-1); ok {
				return seg, true
			}
			return a.ResolveSegment(lo, i, in.R3, depth-1)
		case ia64.OpShlI, ia64.OpShrI, ia64.OpMul, ia64.OpSub:
			// Index arithmetic, not a base pointer: follow the first source.
			if in.R2 == reg {
				continue
			}
			return a.ResolveSegment(lo, i, in.R2, depth-1)
		case ia64.OpLd:
			return mem.Segment{}, false // loaded pointer: give up
		default:
			return mem.Segment{}, false
		}
	}
	return mem.Segment{}, false
}

// PrefetchTargets maps each lfetch slot in the region to the memory
// segment (array) it streams over, where resolvable.
func (a *Analyzer) PrefetchTargets(r Region) map[int]mem.Segment {
	lo := 0
	if fn, ok := a.img.FuncAt(r.Start); ok {
		lo = fn.Entry
	}
	out := map[int]mem.Segment{}
	for _, pc := range a.Prefetches(r) {
		in := a.img.Fetch(pc)
		if seg, ok := a.ResolveSegment(lo, pc, in.R2, 12); ok {
			out[pc] = seg
		}
	}
	return out
}

// StoredSegments returns the segments written by store instructions inside
// the loop body — the "store soon follows the load" evidence that makes a
// prefetch worth converting to lfetch.excl.
func (a *Analyzer) StoredSegments(r Region) map[string]bool {
	lo := 0
	if fn, ok := a.img.FuncAt(r.Start); ok {
		lo = fn.Entry
	}
	out := map[string]bool{}
	for pc := r.Start; pc <= r.End && pc < a.img.Len(); pc++ {
		in := a.img.Fetch(pc)
		if !in.IsStore() {
			continue
		}
		if seg, ok := a.ResolveSegment(lo, pc, in.R2, 12); ok {
			out[seg.Name] = true
		}
	}
	return out
}

// SegmentOfAddr returns the segment containing a DEAR data address.
func (a *Analyzer) SegmentOfAddr(addr uint64) (mem.Segment, bool) {
	return a.memory.SegmentFor(addr)
}
