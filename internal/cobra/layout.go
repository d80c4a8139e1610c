package cobra

import (
	"fmt"
	"sort"

	"repro/internal/ia64"
)

// BOLT-style basic-block layout (Panchenko et al., arXiv:1807.06735)
// over the running binary: partition a hot region into basic blocks,
// order them hot-path-first from the BTB taken-edge profile with greedy
// extended-trace selection, and emit the reordered copy into the code
// cache — hot blocks contiguous from the trace entry, never-observed
// blocks spilled behind the hot traces, branch targets fixed up, and
// br.sptk connectors re-establishing every fall-through edge the
// reordering broke. The copy is deployed as a resident single-variant
// set, so dispatch, judgement and rollback ride the exact one-word
// entry-patch machinery multi-version patching uses.

// BasicBlock is one block of a region partition, an inclusive slot range
// in original image addresses.
type BasicBlock struct {
	Start, End int
}

// Len returns the block's slot count.
func (b BasicBlock) Len() int { return b.End - b.Start + 1 }

// PartitionBlocks splits region r into basic blocks. Leaders are the
// region start, every in-region branch target, and every slot following
// a branch or halt; each block runs from its leader to the slot before
// the next one. Every branch therefore terminates its block and every
// in-region branch target is some block's first slot — the invariant
// emitLayout's target relocation relies on.
func (a *Analyzer) PartitionBlocks(r Region) []BasicBlock {
	leaders := map[int]bool{r.Start: true}
	for pc := r.Start; pc <= r.End && pc < a.img.Len(); pc++ {
		in := a.img.Fetch(pc)
		switch {
		case in.IsBranch():
			if t := int(in.Imm); in.Br != ia64.BrRet && t >= r.Start && t <= r.End {
				leaders[t] = true
			}
			if pc+1 <= r.End {
				leaders[pc+1] = true
			}
		case in.Op == ia64.OpHalt:
			if pc+1 <= r.End {
				leaders[pc+1] = true
			}
		}
	}
	starts := make([]int, 0, len(leaders))
	for pc := range leaders {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	blocks := make([]BasicBlock, len(starts))
	for i, s := range starts {
		end := r.End
		if i+1 < len(starts) {
			end = starts[i+1] - 1
		}
		blocks[i] = BasicBlock{Start: s, End: end}
	}
	return blocks
}

// LayoutSpec is a computed placement of a region's basic blocks. Order
// is a permutation of block indices in their new physical order —
// Order[0] is always the entry block. The first Hot entries are the hot
// extended traces grown from observed edges; the rest are never-observed
// blocks spilled behind them in address order. Coverage is the share of
// observed in-region edge weight with both endpoints in the hot part.
type LayoutSpec struct {
	Blocks   []BasicBlock
	Order    []int
	Hot      int
	Coverage float64
}

// Identity reports whether the placement equals the original address
// order — deploying it would pay dispatch cost for nothing.
func (s LayoutSpec) Identity() bool {
	for i, b := range s.Order {
		if b != i {
			return false
		}
	}
	return true
}

// blockOf returns the index of the block containing pc, or -1.
func (s LayoutSpec) blockOf(pc int) int {
	for i, b := range s.Blocks {
		if pc >= b.Start && pc <= b.End {
			return i
		}
	}
	return -1
}

// PlacesBefore reports whether the block holding slot a comes no later
// than the block holding slot b in the computed order. Layout engines
// use it to guard the loop key: if the reordered copy placed the loop
// head after its latch, the latch's taken edge would turn forward and
// the profiler (which keys loops on backward pairs) could never observe
// the relocated loop again — the patch would be unjudgeable.
func (s LayoutSpec) PlacesBefore(a, b int) bool {
	ba, bb := s.blockOf(a), s.blockOf(b)
	if ba < 0 || bb < 0 {
		return false
	}
	pa, pb := -1, -1
	for pos, blk := range s.Order {
		if blk == ba {
			pa = pos
		}
		if blk == bb {
			pb = pos
		}
	}
	return pa >= 0 && pa <= pb
}

// layoutSuccs describes a block's possible intra-region successors.
type layoutSuccs struct {
	taken int // block index of the taken target, -1 if none in-region
	fall  int // block index of the fall-through, -1 if none
}

// successors computes the intra-region successor blocks of block i: the
// taken target of its terminating branch (if it lands in the region) and
// the fall-through block (unless the terminator is unconditional or a
// halt). leaderAt maps leader slots to block indices.
func (a *Analyzer) successors(blocks []BasicBlock, i int, leaderAt map[int]int) layoutSuccs {
	s := layoutSuccs{taken: -1, fall: -1}
	last := a.img.Fetch(blocks[i].End)
	if last.Op == ia64.OpHalt || (last.IsBranch() && last.Br == ia64.BrRet) {
		return s
	}
	if last.IsBranch() {
		if t, ok := leaderAt[int(last.Imm)]; ok {
			s.taken = t
		}
		if last.Br == ia64.BrAlways {
			return s
		}
	}
	if i+1 < len(blocks) {
		s.fall = i + 1
	}
	return s
}

// BuildLayout computes a hot-path-first block order for region r from a
// taken-edge profile (counts keyed by BranchEdge in original image
// addresses; edges with endpoints outside the region are ignored). The
// ordering is greedy extended-trace selection à la BOLT: start a trace
// at the entry block, repeatedly extend it with its hottest unplaced
// successor — fall-through edges weighted by the successor's block heat,
// taken edges by their observed count — seed the next trace at the
// hottest remaining observed block, and finally spill never-observed
// blocks behind the hot traces in address order. A block whose
// terminator simply falls through keeps its successor glued to it
// whenever possible, so reordering never inserts connectors the
// original code did not need.
func (a *Analyzer) BuildLayout(r Region, edges map[BranchEdge]int64) LayoutSpec {
	blocks := a.PartitionBlocks(r)
	spec := LayoutSpec{Blocks: blocks}
	n := len(blocks)
	if n == 0 {
		return spec
	}
	leaderAt := make(map[int]int, n)
	for i, b := range blocks {
		leaderAt[b.Start] = i
	}

	// Block heat: observed weight entering (taken edges to the leader)
	// plus leaving (taken edges from the block's branch). Sums over the
	// edge map are order-independent, so map iteration cannot leak into
	// the order.
	heat := make([]int64, n)
	var totalW int64
	inRegion := func(pc int) bool { return pc >= r.Start && pc <= r.End }
	for e, c := range edges {
		if !inRegion(e.From) || !inRegion(e.To) {
			continue
		}
		totalW += c
		if t, ok := leaderAt[e.To]; ok {
			heat[t] += c
		}
		if fb := spec.blockOf(e.From); fb >= 0 && blocks[fb].End == e.From {
			heat[fb] += c
		}
	}

	placed := make([]bool, n)
	order := make([]int, 0, n)
	order = append(order, 0) // the entry block anchors the first trace
	placed[0] = true
	cur := 0
	for {
		succ := a.successors(blocks, cur, leaderAt)
		next := -1
		var bestW int64 = -1
		mandatory := false
		// Fall-through first so ties keep the original adjacency (no
		// connector needed); a straight-line block's successor is
		// mandatory regardless of heat — separating them would only
		// insert a connector for nothing.
		if succ.fall >= 0 && !placed[succ.fall] {
			next, bestW = succ.fall, heat[succ.fall]
			mandatory = !a.img.Fetch(blocks[cur].End).IsBranch()
		}
		if !mandatory && succ.taken >= 0 && !placed[succ.taken] {
			if w := edges[BranchEdge{From: blocks[cur].End, To: blocks[succ.taken].Start}]; w > bestW {
				next, bestW = succ.taken, w
			}
		}
		if next < 0 || (!mandatory && bestW <= 0) {
			// Trace ended: cold successors stay out of the hot part.
			// Seed the next trace at the hottest unplaced observed block
			// (ties to the lowest index).
			next = -1
			bestW = 0
			for i := 0; i < n; i++ {
				if !placed[i] && heat[i] > bestW {
					next, bestW = i, heat[i]
				}
			}
			if next < 0 {
				break // only never-observed blocks remain
			}
		}
		order = append(order, next)
		placed[next] = true
		cur = next
	}
	spec.Hot = len(order)
	for i := 0; i < n; i++ {
		if !placed[i] {
			order = append(order, i)
		}
	}
	spec.Order = order

	if totalW > 0 {
		hotPos := make(map[int]bool, spec.Hot)
		for _, b := range order[:spec.Hot] {
			hotPos[b] = true
		}
		var hotW int64
		for e, c := range edges {
			if !inRegion(e.From) || !inRegion(e.To) {
				continue
			}
			fb, tb := spec.blockOf(e.From), spec.blockOf(e.To)
			if fb >= 0 && tb >= 0 && hotPos[fb] && hotPos[tb] {
				hotW += c
			}
		}
		spec.Coverage = float64(hotW) / float64(totalW)
	}
	return spec
}

// emitLayout appends a reordered copy of region r to the code cache per
// spec and returns its variant descriptor. Block-terminating branches
// keep their instructions with in-region targets remapped to the
// relocated blocks; wherever a block's fall-through successor is not the
// physically next block of the new placement — including the region exit
// after the final block, since the copy lives at the end of the image —
// a br.sptk connector re-establishes the original control flow. The
// region entry is not redirected: Switch owns dispatch.
func (p *Patcher) emitLayout(r Region, spec LayoutSpec) (Variant, error) {
	n := len(spec.Blocks)
	if n == 0 || len(spec.Order) != n {
		return Variant{}, fmt.Errorf("cobra: layout of region [%d,%d]: empty or incomplete block order", r.Start, r.End)
	}
	if spec.Blocks[0].Start != r.Start || spec.Order[0] != 0 {
		return Variant{}, fmt.Errorf("cobra: layout of region [%d,%d]: entry block must lead the order", r.Start, r.End)
	}
	entry := p.img.Len()

	// Pass 1: placement offsets and connector decisions. A block needs a
	// connector when control can fall off its end but the block that
	// originally followed it is not the next one emitted.
	off := make([]int, n)
	conn := make([]bool, n)
	cursor := 0
	for pos, b := range spec.Order {
		off[b] = cursor
		cursor += spec.Blocks[b].Len()
		last := p.img.Fetch(spec.Blocks[b].End)
		fallsThrough := true
		switch {
		case last.Op == ia64.OpHalt:
			fallsThrough = false
		case last.IsBranch() && (last.Br == ia64.BrAlways || last.Br == ia64.BrRet):
			fallsThrough = false
		}
		if fallsThrough && (b == n-1 || pos+1 >= len(spec.Order) || spec.Order[pos+1] != b+1) {
			conn[b] = true
			cursor++
		}
	}

	leaderAt := make(map[int]int, n)
	for i, b := range spec.Blocks {
		leaderAt[b.Start] = i
	}
	newPC := func(b int) int { return entry + off[b] }

	// Pass 2: emit, remapping in-region branch targets to the relocated
	// leaders. Targets outside the region stay absolute, exactly as in
	// emitTrace.
	trace := make([]ia64.Instr, 0, cursor)
	for _, b := range spec.Order {
		blk := spec.Blocks[b]
		for pc := blk.Start; pc <= blk.End; pc++ {
			in := p.img.Fetch(pc)
			if in.IsBranch() && in.Br != ia64.BrRet && int(in.Imm) >= r.Start && int(in.Imm) <= r.End {
				tb, ok := leaderAt[int(in.Imm)]
				if !ok {
					return Variant{}, fmt.Errorf("cobra: layout of region [%d,%d]: branch at %d targets mid-block slot %d", r.Start, r.End, pc, in.Imm)
				}
				in.Imm = int64(newPC(tb))
			}
			trace = append(trace, in)
		}
		if conn[b] {
			target := int64(r.End + 1)
			if b < n-1 {
				target = int64(newPC(b + 1))
			}
			trace = append(trace, ia64.Instr{Op: ia64.OpBr, Br: ia64.BrAlways, Imm: target})
		}
	}

	hb, ok := leaderAt[r.Key.Head]
	if !ok {
		return Variant{}, fmt.Errorf("cobra: layout of region [%d,%d]: loop head %d is not a block leader", r.Start, r.End, r.Key.Head)
	}
	lb := spec.blockOf(r.Key.BranchPC)
	if lb < 0 {
		return Variant{}, fmt.Errorf("cobra: layout of region [%d,%d]: latch %d outside the partition", r.Start, r.End, r.Key.BranchPC)
	}

	if _, err := p.img.Append(trace...); err != nil {
		return Variant{}, err
	}
	p.nLayouts++
	p.img.AddFunc(fmt.Sprintf("cobra.layout%d", p.nLayouts), entry, entry+len(trace))
	return Variant{
		Rewrite:    RewriteLayout,
		TraceEntry: entry,
		ActiveKey: LoopKey{
			Head:     newPC(hb),
			BranchPC: newPC(lb) + (r.Key.BranchPC - spec.Blocks[lb].Start),
		},
		Layout: &spec,
	}, nil
}
