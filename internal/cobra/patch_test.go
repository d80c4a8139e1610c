package cobra

import (
	"errors"
	"testing"

	"repro/internal/ia64"
)

// failOn returns a patchHook that fails slot writes at the given pcs and
// forwards everything else to the image.
func failOn(img *ia64.Image, failErr error, pcs ...int) func(int, ia64.Instr) (ia64.Instr, error) {
	bad := map[int]bool{}
	for _, pc := range pcs {
		bad[pc] = true
	}
	return func(pc int, in ia64.Instr) (ia64.Instr, error) {
		if bad[pc] {
			return ia64.Instr{}, failErr
		}
		return img.Patch(pc, in)
	}
}

// deployOne deploys a one-variant set of rw over slots and dispatches
// it: the single-rewrite deployment the prefetch engine makes.
func deployOne(p *Patcher, r Region, slots []int, rw Rewrite) (*VariantSet, error) {
	vs, err := p.DeployVariants(r, []VariantSpec{{Rewrite: rw, Slots: slots}})
	if err != nil {
		return nil, err
	}
	if err := p.Switch(vs, 0); err != nil {
		return nil, err
	}
	return vs, nil
}

// savedSlots lists the slots a set still holds originals for.
func savedSlots(vs *VariantSet) []int {
	var out []int
	for _, s := range vs.saved {
		out = append(out, s.pc)
	}
	return out
}

// TestDeployTraceUnwindsOnFailedRedirect pins the orphaned-trace fix: if
// the first dispatch of a freshly emitted trace fails, the emitted copy,
// its function-table entry and the trace counter must all be unwound —
// otherwise every failed deploy leaks an unreachable trace and burns a
// trace name.
func TestDeployTraceUnwindsOnFailedRedirect(t *testing.T) {
	img, _, region, pfs := buildLoopImage(t)
	p := NewPatcher(img, true)
	preLen := img.Len()

	failErr := errors.New("redirect refused")
	p.patchHook = failOn(img, failErr, region.Start)
	vs, err := p.DeployVariants(region, []VariantSpec{{Rewrite: RewriteNop, Slots: pfs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Switch(vs, 0); !errors.Is(err, failErr) {
		t.Fatalf("dispatch error = %v, want %v", err, failErr)
	}
	if img.Len() != preLen {
		t.Fatalf("image len %d after failed redirect, want %d (trace leaked)", img.Len(), preLen)
	}
	if _, ok := img.FuncAt(preLen); ok {
		t.Fatal("orphaned trace still in function table")
	}
	if _, ok := img.LookupFunc("cobra.trace1"); ok {
		t.Fatal("trace name registered despite unwind")
	}
	if in := img.Fetch(region.Start); in.IsBranch() {
		t.Fatal("entry redirected despite failed patch")
	}
	if err := p.Switch(vs, 0); !errors.Is(err, ErrUnknownVariant) {
		t.Fatalf("reclaimed set still dispatchable: %v", err)
	}

	// Retry without the fault: the unwind left the patcher reusable, the
	// counter unleaked (this is still trace 1) and the cache compact.
	p.patchHook = nil
	patch, err := deployOne(p, region, pfs, RewriteNop)
	if err != nil {
		t.Fatal(err)
	}
	if patch.Variants[0].TraceEntry != preLen {
		t.Fatalf("retry trace entry %d, want %d (cache not compact)", patch.Variants[0].TraceEntry, preLen)
	}
	if f, ok := img.FuncAt(patch.Variants[0].TraceEntry); !ok || f.Name != "cobra.trace1" {
		t.Fatalf("retry trace func = (%+v, %v), want cobra.trace1", f, ok)
	}
}

// TestInPlaceDispatchUndoesPartialWrite: an in-place dispatch whose
// third slot write fails must put the first two back, leave the set at
// the original code, and dispatch cleanly once the fault clears.
func TestInPlaceDispatchUndoesPartialWrite(t *testing.T) {
	img, _, region, pfs := buildLoopImage(t)
	p := NewPatcher(img, false)
	vs, err := p.DeployVariants(region, []VariantSpec{{Rewrite: RewriteNop, Slots: pfs}})
	if err != nil {
		t.Fatal(err)
	}
	failErr := errors.New("slot stuck")
	p.patchHook = failOn(img, failErr, pfs[2])
	if err := p.Switch(vs, 0); !errors.Is(err, failErr) {
		t.Fatalf("dispatch error = %v, want %v", err, failErr)
	}
	for _, pc := range pfs {
		if img.Fetch(pc).Op != ia64.OpLfetch {
			t.Fatalf("slot %d left rewritten by a failed dispatch", pc)
		}
	}
	if vs.Active() != -1 || len(vs.saved) != 0 {
		t.Fatalf("failed dispatch left active=%d saved=%v", vs.Active(), savedSlots(vs))
	}
	p.patchHook = nil
	if err := p.Switch(vs, 0); err != nil {
		t.Fatal(err)
	}
	for _, pc := range pfs {
		if img.Fetch(pc).Op != ia64.OpNop {
			t.Fatalf("slot %d not rewritten on retry", pc)
		}
	}
}

// TestRollbackRetainsFailedSlotsForRetry pins the partial-rollback fix:
// a slot whose restore fails must keep its saved original in the set
// (rather than the set being cleared wholesale), so a later retry can
// still restore it — clearing would lose the only copy of the original
// word and leave the region permanently corrupted.
func TestRollbackRetainsFailedSlotsForRetry(t *testing.T) {
	img, _, region, pfs := buildLoopImage(t)
	p := NewPatcher(img, false)
	patch, err := deployOne(p, region, pfs, RewriteNop)
	if err != nil {
		t.Fatal(err)
	}

	stuck := pfs[1]
	failErr := errors.New("slot stuck")
	p.patchHook = failOn(img, failErr, stuck)
	if err := p.Switch(patch, -1); !errors.Is(err, failErr) {
		t.Fatalf("rollback error = %v, want %v", err, failErr)
	}
	if got := savedSlots(patch); len(got) != 1 || got[0] != stuck {
		t.Fatalf("saved slots = %v after partial failure, want [%d]", got, stuck)
	}
	if patch.saved[0].in.Op != ia64.OpLfetch {
		t.Fatalf("saved word = %+v, want the stuck slot's original lfetch", patch.saved[0].in)
	}
	if img.Fetch(pfs[0]).Op != ia64.OpLfetch || img.Fetch(pfs[2]).Op != ia64.OpLfetch {
		t.Fatal("restorable slots were not restored")
	}
	if img.Fetch(stuck).Op != ia64.OpNop {
		t.Fatal("stuck slot changed despite failing patch")
	}

	// Retry once the fault clears: the retained entry restores the slot
	// and the set finally empties.
	p.patchHook = nil
	if err := p.Switch(patch, -1); err != nil {
		t.Fatal(err)
	}
	if len(patch.saved) != 0 {
		t.Fatalf("set not cleared after successful retry: %v", savedSlots(patch))
	}
	if img.Fetch(stuck).Op != ia64.OpLfetch {
		t.Fatal("stuck slot not restored on retry")
	}
}

// TestRollbackPreservesMultipleFailedSlotsInOrder checks that when
// several restores fail, the surviving entries come back in original
// slot order (the restore walks newest-first) with saved words aligned.
func TestRollbackPreservesMultipleFailedSlotsInOrder(t *testing.T) {
	img, _, region, pfs := buildLoopImage(t)
	p := NewPatcher(img, false)
	patch, err := deployOne(p, region, pfs, RewriteNop)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]slotWord(nil), patch.saved...)

	failErr := errors.New("two slots stuck")
	p.patchHook = failOn(img, failErr, pfs[0], pfs[2])
	if err := p.Switch(patch, -1); !errors.Is(err, failErr) {
		t.Fatalf("rollback error = %v, want %v", err, failErr)
	}
	if got := savedSlots(patch); len(got) != 2 || got[0] != pfs[0] || got[1] != pfs[2] {
		t.Fatalf("saved slots = %v, want [%d %d] in slot order", got, pfs[0], pfs[2])
	}
	if patch.saved[0] != saved[0] || patch.saved[1] != saved[2] {
		t.Fatalf("saved words misaligned with surviving slots: %+v", patch.saved)
	}
	if img.Fetch(pfs[1]).Op != ia64.OpLfetch {
		t.Fatal("middle slot should have been restored")
	}

	p.patchHook = nil
	if err := p.Switch(patch, -1); err != nil {
		t.Fatal(err)
	}
	for _, pc := range pfs {
		if img.Fetch(pc).Op != ia64.OpLfetch {
			t.Fatalf("slot %d not restored after retry", pc)
		}
	}
}

// TestTraceRelocatesBranchTargetingRegionEntry covers the relocation
// edge where a backward branch targets the region entry slot itself —
// the same slot Switch later overwrites with the dispatch branch.
// The copy must branch to the trace-local entry, never back through the
// original (now redirected) slot.
func TestTraceRelocatesBranchTargetingRegionEntry(t *testing.T) {
	img := ia64.NewImage()
	a := ia64.NewAsm(img, "g")
	a.Label("top")
	pf := a.Emit(ia64.Instr{Op: ia64.OpLfetch, R2: 24, Hint: ia64.HintNT1})
	a.Emit(ia64.Instr{Op: ia64.OpAddI, R1: 24, R2: 24, Imm: 8})
	br := a.Br(ia64.BrCloop, 0, "top")
	a.Emit(ia64.Instr{Op: ia64.OpHalt})
	entry, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	region := Region{
		Key:   LoopKey{Head: entry, BranchPC: entry + br},
		Start: entry, End: entry + br, FuncName: "g",
	}

	p := NewPatcher(img, true)
	patch, err := deployOne(p, region, []int{entry + pf}, RewriteNop)
	if err != nil {
		t.Fatal(err)
	}
	loopBr := img.Fetch(patch.Variants[0].TraceEntry + br)
	if loopBr.Op != ia64.OpBr || loopBr.Br != ia64.BrCloop {
		t.Fatalf("slot at trace offset %d = %+v, want the copied cloop", br, loopBr)
	}
	if int(loopBr.Imm) != patch.Variants[0].TraceEntry {
		t.Fatalf("copied loop branch targets %d, want trace entry %d (would re-enter the dispatch branch)",
			loopBr.Imm, patch.Variants[0].TraceEntry)
	}
	if patch.Variants[0].ActiveKey.Head != patch.Variants[0].TraceEntry || patch.Variants[0].ActiveKey.BranchPC != patch.Variants[0].TraceEntry+br {
		t.Fatalf("ActiveKey = %+v, want trace-relative {%d %d}", patch.Variants[0].ActiveKey, patch.Variants[0].TraceEntry, patch.Variants[0].TraceEntry+br)
	}
}
