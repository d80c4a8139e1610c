package cobra

import (
	"testing"

	"repro/internal/ia64"
	"repro/internal/mem"
)

// branchyOffsets are the interesting absolute pcs of buildBranchyImage.
type branchyOffsets struct {
	head   int // loop head (taken target of the latch)
	skipBr int // conditional branch over the cold block
	cold   int // fall-through block the hot path skips
	hot    int // taken target of skipBr
	latch  int // backward conditional branch to head
}

// buildBranchyImage assembles a loop with a conditional skip — the
// smallest CFG where hot-path-first reordering differs from address
// order:
//
//	entry:  movi r9 = 7                  (straight-line pre block, B0)
//	head:   and r8 = r20 & r9            (B1)
//	        cmp p4,p5 = r8 != 0
//	   (p4) br.cond hot                  ; hot path skips cold
//	cold:   addi r21 += 1                (B2, fall-through, rarely run)
//	hot:    addi r20 -= 1                (B3)
//	        cmp p6,p7 = r20 > 0
//	   (p6) br.cond head                 ; latch
//	        halt                         (outside the region)
func buildBranchyImage(t *testing.T) (*ia64.Image, Region, branchyOffsets) {
	t.Helper()
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "k")
	a.Emit(ia64.Instr{Op: ia64.OpMovI, R1: 9, Imm: 7})
	a.Label("head")
	head := a.Emit(ia64.Instr{Op: ia64.OpAnd, R1: 8, R2: 20, R3: 9})
	a.Emit(ia64.Instr{Op: ia64.OpCmpI, P1: 4, P2: 5, R2: 8, Rel: ia64.CmpNE})
	skipBr := a.Br(ia64.BrCond, 4, "hot")
	cold := a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 21, R2: 21, Imm: 1})
	a.Label("hot")
	hot := a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 20, R2: 20, Imm: -1})
	a.Emit(ia64.Instr{Op: ia64.OpCmpI, P1: 6, P2: 7, R2: 20, Rel: ia64.CmpGT})
	latch := a.Br(ia64.BrCond, 6, "head")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	off := branchyOffsets{
		head: entry + head, skipBr: entry + skipBr, cold: entry + cold,
		hot: entry + hot, latch: entry + latch,
	}
	region := Region{
		Key:   LoopKey{Head: off.head, BranchPC: off.latch},
		Start: entry, End: off.latch, FuncName: "k",
	}
	return img, region, off
}

func branchyAnalyzer(img *ia64.Image) *Analyzer {
	return NewAnalyzer(img, mem.NewMemory(1<<20, 16<<10))
}

func TestPartitionBlocksLeaders(t *testing.T) {
	img, region, off := buildBranchyImage(t)
	blocks := branchyAnalyzer(img).PartitionBlocks(region)
	want := []BasicBlock{
		{Start: region.Start, End: off.head - 1}, // pre block
		{Start: off.head, End: off.skipBr},       // head..skip branch
		{Start: off.cold, End: off.cold},         // cold fall-through
		{Start: off.hot, End: off.latch},         // hot..latch
	}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %+v, want %+v", blocks, want)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("block %d = %+v, want %+v", i, blocks[i], want[i])
		}
	}
}

// TestBuildLayoutHotPathFirst feeds a profile where the skip branch is
// hot: the hot block must be glued right after the branch block and the
// never-observed cold block spilled behind the hot traces.
func TestBuildLayoutHotPathFirst(t *testing.T) {
	img, region, off := buildBranchyImage(t)
	edges := map[BranchEdge]int64{
		{From: off.skipBr, To: off.hot}: 70,
		{From: off.latch, To: off.head}: 79,
	}
	spec := branchyAnalyzer(img).BuildLayout(region, edges)

	wantOrder := []int{0, 1, 3, 2}
	if len(spec.Order) != len(wantOrder) {
		t.Fatalf("order = %v, want %v", spec.Order, wantOrder)
	}
	for i := range wantOrder {
		if spec.Order[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", spec.Order, wantOrder)
		}
	}
	if spec.Hot != 3 {
		t.Fatalf("hot = %d, want 3 (cold block spilled)", spec.Hot)
	}
	if spec.Identity() {
		t.Fatal("hot-path order reported as identity")
	}
	if spec.Coverage != 1.0 {
		t.Fatalf("coverage = %v, want 1.0 (every observed edge stays hot)", spec.Coverage)
	}
	if !spec.PlacesBefore(off.head, off.latch) {
		t.Fatal("loop head placed after its latch — patch would be unjudgeable")
	}
	if spec.PlacesBefore(off.latch, off.head) {
		t.Fatal("PlacesBefore not antisymmetric for distinct blocks")
	}
}

// TestBuildLayoutSingleBlockIsIdentity: a region with no internal control
// flow partitions into one block, whose only order is the identity — the
// engine must see Identity() and skip deployment.
func TestBuildLayoutSingleBlockIsIdentity(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "tiny")
	a.Label("top")
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 20, R2: 20, Imm: -1})
	br := a.Br(ia64.BrCloop, 0, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	region := Region{
		Key:   LoopKey{Head: entry, BranchPC: entry + br},
		Start: entry, End: entry + br, FuncName: "tiny",
	}
	spec := branchyAnalyzer(img).BuildLayout(region, map[BranchEdge]int64{
		{From: entry + br, To: entry}: 100,
	})
	if len(spec.Blocks) != 1 || !spec.Identity() {
		t.Fatalf("spec = %+v, want single identity block", spec)
	}
}

// TestEmitLayoutConnectorsAndRemap deploys the hot-path order and checks
// the emitted copy: the skip branch remapped to the relocated hot block,
// a connector re-establishing the broken fall-through into the cold
// block, a region-exit connector, and a trace-relative ActiveKey.
func TestEmitLayoutConnectorsAndRemap(t *testing.T) {
	img, region, off := buildBranchyImage(t)
	edges := map[BranchEdge]int64{
		{From: off.skipBr, To: off.hot}: 70,
		{From: off.latch, To: off.head}: 79,
	}
	an := branchyAnalyzer(img)
	spec := an.BuildLayout(region, edges)

	p := NewPatcher(img, true)
	set, err := p.DeployVariants(region, []VariantSpec{{Rewrite: RewriteLayout, Layout: &spec}})
	if err != nil {
		t.Fatal(err)
	}
	if set.Active() != -1 {
		t.Fatalf("fresh layout set active = %d, want -1 (undispatched)", set.Active())
	}
	v := set.Variants[0]
	fn, ok := img.FuncAt(v.TraceEntry)
	if !ok || fn.Name != "cobra.layout1" {
		t.Fatalf("layout func = (%+v, %v), want cobra.layout1", fn, ok)
	}

	// New placement: [B0][B1][B3][B2]; block lengths from the partition.
	b := spec.Blocks
	newB1 := v.TraceEntry + b[0].Len()
	newB3 := newB1 + b[1].Len() + 1 // +1: connector after B1's fall-through
	newB2 := newB3 + b[3].Len() + 1 // +1: region-exit connector after B3

	// The copied skip branch targets the relocated hot block.
	skip := img.Fetch(newB1 + (off.skipBr - b[1].Start))
	if skip.Op != ia64.OpBr || skip.Br != ia64.BrCond || int(skip.Imm) != newB3 {
		t.Fatalf("copied skip branch = %+v, want br.cond -> %d", skip, newB3)
	}
	// Connector after B1 restores the fall-through into the cold block.
	connB1 := img.Fetch(newB1 + b[1].Len())
	if connB1.Op != ia64.OpBr || connB1.Br != ia64.BrAlways || int(connB1.Imm) != newB2 {
		t.Fatalf("B1 connector = %+v, want br.sptk -> %d", connB1, newB2)
	}
	// The copied latch targets the relocated head.
	latch := img.Fetch(newB3 + (off.latch - b[3].Start))
	if latch.Op != ia64.OpBr || latch.Br != ia64.BrCond || int(latch.Imm) != newB1 {
		t.Fatalf("copied latch = %+v, want br.cond -> %d", latch, newB1)
	}
	// B3 falls off the end of the loop: connector to the region exit.
	connB3 := img.Fetch(newB3 + b[3].Len())
	if connB3.Op != ia64.OpBr || connB3.Br != ia64.BrAlways || int(connB3.Imm) != region.End+1 {
		t.Fatalf("B3 exit connector = %+v, want br.sptk -> %d", connB3, region.End+1)
	}
	// The cold block ends the copy with its own exit connector.
	connB2 := img.Fetch(newB2 + b[2].Len())
	if connB2.Op != ia64.OpBr || connB2.Br != ia64.BrAlways || int(connB2.Imm) != newB3 {
		t.Fatalf("B2 connector = %+v, want br.sptk -> %d (back to hot block)", connB2, newB3)
	}
	if v.ActiveKey.Head != newB1 || v.ActiveKey.BranchPC != newB3+(off.latch-b[3].Start) {
		t.Fatalf("ActiveKey = %+v, want {%d %d}", v.ActiveKey, newB1, newB3+(off.latch-b[3].Start))
	}
}

// TestDeployLayoutSwitchRoundTrip drives the layout through the variant
// dispatch lifecycle: engage, roll back to original, re-engage — each
// transition one entry-slot patch.
func TestDeployLayoutSwitchRoundTrip(t *testing.T) {
	img, region, off := buildBranchyImage(t)
	an := branchyAnalyzer(img)
	spec := an.BuildLayout(region, map[BranchEdge]int64{
		{From: off.skipBr, To: off.hot}: 10,
		{From: off.latch, To: off.head}: 11,
	})
	origEntry := img.Fetch(region.Start)

	p := NewPatcher(img, true)
	set, err := p.DeployVariants(region, []VariantSpec{{Rewrite: RewriteLayout, Layout: &spec}})
	if err != nil {
		t.Fatal(err)
	}
	if in := img.Fetch(region.Start); in != origEntry {
		t.Fatal("deploy alone must not touch dispatch")
	}
	if err := p.Switch(set, 0); err != nil {
		t.Fatal(err)
	}
	in := img.Fetch(region.Start)
	if in.Op != ia64.OpBr || in.Br != ia64.BrAlways || int(in.Imm) != set.Variants[0].TraceEntry {
		t.Fatalf("entry after engage = %+v, want br -> %d", in, set.Variants[0].TraceEntry)
	}
	av := set.ActiveVariant()
	if av == nil || av.Rewrite != RewriteLayout || av.Layout == nil || len(av.Layout.Blocks) != len(spec.Blocks) {
		t.Fatalf("ActiveVariant = %+v, want the layout copy with its spec", av)
	}
	if err := p.Switch(set, -1); err != nil {
		t.Fatal(err)
	}
	if in := img.Fetch(region.Start); in != origEntry {
		t.Fatalf("entry after rollback = %+v, want original %+v", in, origEntry)
	}
	if err := p.Switch(set, 0); err != nil {
		t.Fatal(err)
	}
	if in := img.Fetch(region.Start); int(in.Imm) != set.Variants[0].TraceEntry {
		t.Fatal("re-engage did not redirect")
	}
}

func TestDeployLayoutRequiresTraceCache(t *testing.T) {
	img, region, off := buildBranchyImage(t)
	spec := branchyAnalyzer(img).BuildLayout(region, map[BranchEdge]int64{
		{From: off.skipBr, To: off.hot}: 1,
	})
	p := NewPatcher(img, false)
	if _, err := p.DeployVariants(region, []VariantSpec{{Rewrite: RewriteLayout, Layout: &spec}}); err == nil {
		t.Fatal("in-place patcher accepted a layout deployment")
	}
}

// TestEmitLayoutRejectsMidBlockTarget: a malformed partition that hides a
// branch target inside a block must be rejected, not silently emitted
// with a stale absolute target.
func TestEmitLayoutRejectsMidBlockTarget(t *testing.T) {
	img, region, _ := buildBranchyImage(t)
	p := NewPatcher(img, true)
	spec := LayoutSpec{
		Blocks: []BasicBlock{{Start: region.Start, End: region.End}},
		Order:  []int{0},
		Hot:    1,
	}
	if _, err := p.emitLayout(region, spec); err == nil {
		t.Fatal("emitLayout accepted a branch target hidden mid-block")
	}
}
