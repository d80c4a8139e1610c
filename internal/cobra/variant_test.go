package cobra

import (
	"errors"
	"testing"

	"repro/internal/ia64"
)

func TestDeployVariantsAndSwitch(t *testing.T) {
	img, region, lfetchSlot := buildLfetchLoop(t)
	orig := img.Fetch(region.Start)
	p := NewPatcher(img, true)

	vs, err := p.DeployVariants(region, []VariantSpec{
		{Rewrite: RewriteNop, Slots: []int{lfetchSlot}},
		{Rewrite: RewriteExcl, Slots: []int{lfetchSlot}},
	})
	if err != nil {
		t.Fatalf("DeployVariants: %v", err)
	}
	if len(vs.Variants) != 2 {
		t.Fatalf("resident variants = %d, want 2", len(vs.Variants))
	}
	if vs.Active() != -1 || vs.ActiveVariant() != nil {
		t.Fatal("fresh variant set must dispatch the original code")
	}
	// Deployment must not touch dispatch: entry unchanged.
	if img.Fetch(region.Start) != orig {
		t.Fatal("DeployVariants modified the region entry")
	}
	// Each variant is a distinct registered trace carrying its rewrite.
	seen := map[int]bool{}
	for i, v := range vs.Variants {
		if seen[v.TraceEntry] {
			t.Fatalf("variant %d shares a trace entry", i)
		}
		seen[v.TraceEntry] = true
		fn, ok := img.FuncAt(v.TraceEntry)
		if !ok {
			t.Fatalf("variant %d not registered as a function", i)
		}
		if v.ActiveKey.Head < fn.Entry || v.ActiveKey.BranchPC >= fn.End {
			t.Fatalf("variant %d ActiveKey %+v outside trace [%d,%d)", i, v.ActiveKey, fn.Entry, fn.End)
		}
	}

	// Switch to nop: entry becomes a branch into variant 0's trace.
	if err := p.Switch(vs, 0); err != nil {
		t.Fatalf("Switch(0): %v", err)
	}
	in := img.Fetch(region.Start)
	if !in.IsBranch() || int(in.Imm) != vs.Variants[0].TraceEntry {
		t.Fatalf("entry after Switch(0) = %+v", in)
	}
	if av := vs.ActiveVariant(); av == nil || av.Rewrite != RewriteNop || av.TraceEntry != vs.Variants[0].TraceEntry {
		t.Fatalf("ActiveVariant after Switch(0) = %+v", vs.ActiveVariant())
	}

	// Switch mid-phase to excl: still a single-word repoint.
	genBefore := img.Generation()
	if err := p.Switch(vs, 1); err != nil {
		t.Fatalf("Switch(1): %v", err)
	}
	if img.Generation() != genBefore+1 {
		t.Fatalf("switch cost %d image generations, want 1", img.Generation()-genBefore)
	}
	if in := img.Fetch(region.Start); int(in.Imm) != vs.Variants[1].TraceEntry {
		t.Fatalf("entry after Switch(1) = %+v", in)
	}

	// Switching to the active variant is a free no-op.
	genBefore = img.Generation()
	if err := p.Switch(vs, 1); err != nil || img.Generation() != genBefore {
		t.Fatalf("idempotent switch: err=%v gens=%d", err, img.Generation()-genBefore)
	}

	// Back to the original code: entry restored exactly.
	if err := p.Switch(vs, -1); err != nil {
		t.Fatalf("Switch(-1): %v", err)
	}
	if img.Fetch(region.Start) != orig {
		t.Fatal("Switch(-1) did not restore the original entry")
	}
	if vs.Active() != -1 || vs.ActiveVariant() != nil {
		t.Fatal("Switch(-1) must report the original as active")
	}
}

func TestDeployVariantsErrors(t *testing.T) {
	img, region, lfetchSlot := buildLfetchLoop(t)
	p := NewPatcher(img, true)

	if _, err := p.DeployVariants(region, nil); !errors.Is(err, ErrNoRewritableSlots) {
		t.Fatalf("empty table error = %v, want ErrNoRewritableSlots", err)
	}
	if _, err := p.DeployVariants(region, []VariantSpec{{Rewrite: RewriteBias, Slots: []int{lfetchSlot}}}); !errors.Is(err, ErrNoRewritableSlots) {
		t.Fatalf("inapplicable variant error = %v, want ErrNoRewritableSlots", err)
	}

	// In place there is room for exactly one version: the region itself.
	inPlace := NewPatcher(img, false)
	if _, err := inPlace.DeployVariants(region, []VariantSpec{
		{Rewrite: RewriteNop, Slots: []int{lfetchSlot}},
		{Rewrite: RewriteExcl, Slots: []int{lfetchSlot}},
	}); err == nil {
		t.Fatal("in-place patcher accepted a multi-variant table")
	}

	vs, err := p.DeployVariants(region, []VariantSpec{{Rewrite: RewriteNop, Slots: []int{lfetchSlot}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Switch(vs, 0); err != nil {
		t.Fatal(err)
	}
	// Redirected entry: both deploy paths must refuse with the sentinel.
	if _, err := p.DeployVariants(region, []VariantSpec{{Rewrite: RewriteExcl, Slots: []int{lfetchSlot}}}); !errors.Is(err, ErrAlreadyPatched) {
		t.Fatalf("redeploy over dispatched variant = %v, want ErrAlreadyPatched", err)
	}
	if _, err := deployOne(p, region, []int{lfetchSlot}, RewriteExcl); !errors.Is(err, ErrAlreadyPatched) {
		t.Fatalf("single-trace deploy over dispatched variant = %v, want ErrAlreadyPatched", err)
	}
	if err := p.Switch(vs, 2); !errors.Is(err, ErrUnknownVariant) {
		t.Fatalf("out-of-range switch = %v, want ErrUnknownVariant", err)
	}
	if err := p.Switch(vs, -2); !errors.Is(err, ErrUnknownVariant) {
		t.Fatalf("negative switch = %v, want ErrUnknownVariant", err)
	}
}

// TestDeployVariantsReclaimsOnFailedSpec pins the code-cache leak fix: a
// table whose second spec has no applicable instruction must fail with
// ErrNoRewritableSlots and take the first spec's copy, its function entry
// and its trace name with it.
func TestDeployVariantsReclaimsOnFailedSpec(t *testing.T) {
	img, region, lfetchSlot := buildLfetchLoop(t)
	p := NewPatcher(img, true)
	preLen, preFuncs := img.Len(), len(img.Funcs())
	_, err := p.DeployVariants(region, []VariantSpec{
		{Rewrite: RewriteNop, Slots: []int{lfetchSlot}},
		{Rewrite: RewriteBias, Slots: []int{lfetchSlot}}, // bias needs a plain load
	})
	if !errors.Is(err, ErrNoRewritableSlots) {
		t.Fatalf("error = %v, want ErrNoRewritableSlots", err)
	}
	if img.Len() != preLen || len(img.Funcs()) != preFuncs {
		t.Fatalf("failed table left len %d (want %d) and %d funcs (want %d)",
			img.Len(), preLen, len(img.Funcs()), preFuncs)
	}
	vs, err := deployOne(p, region, []int{lfetchSlot}, RewriteNop)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := img.FuncAt(vs.Variants[0].TraceEntry); !ok || f.Name != "cobra.trace1" {
		t.Fatalf("next trace = (%+v, %v), want cobra.trace1 at the old tail", f, ok)
	}
}

func TestDeploySentinelErrors(t *testing.T) {
	img, region, lfetchSlot := buildLfetchLoop(t)
	for _, useTrace := range []bool{false, true} {
		p := NewPatcher(img, useTrace)
		if _, err := deployOne(p, region, nil, RewriteNop); !errors.Is(err, ErrNoRewritableSlots) {
			t.Fatalf("trace=%v: empty slots error = %v, want ErrNoRewritableSlots", useTrace, err)
		}
		// Bias targets plain integer loads; an lfetch slot is inapplicable.
		if _, err := deployOne(p, region, []int{lfetchSlot}, RewriteBias); !errors.Is(err, ErrNoRewritableSlots) {
			t.Fatalf("trace=%v: inapplicable error = %v, want ErrNoRewritableSlots", useTrace, err)
		}
	}
}

// TestVariantSwitchExecutesVariantCode runs the loop through each
// dispatch state and checks the executed instruction stream actually
// changes: the nop variant performs no prefetches, the excl variant
// prefetches exclusively, and restoring the original brings back the
// plain lfetch.
func TestVariantSwitchExecutesVariantCode(t *testing.T) {
	img, region, lfetchSlot := buildLfetchLoop(t)
	p := NewPatcher(img, true)
	vs, err := p.DeployVariants(region, []VariantSpec{
		{Rewrite: RewriteNop, Slots: []int{lfetchSlot}},
		{Rewrite: RewriteExcl, Slots: []int{lfetchSlot}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fetchAt := func(pc int) ia64.Instr { return img.Fetch(pc) }
	// The dispatched code path starts at the entry; follow one branch hop
	// if the entry is a redirect.
	firstBody := func() ia64.Instr {
		in := fetchAt(region.Start)
		if in.IsBranch() && p.InCodeCache(int(in.Imm)) {
			return fetchAt(int(in.Imm))
		}
		return in
	}
	if in := firstBody(); in.Op != ia64.OpLfetch || in.Hint != ia64.HintNT1 {
		t.Fatalf("original body starts with %+v", in)
	}
	if err := p.Switch(vs, 0); err != nil {
		t.Fatal(err)
	}
	if in := firstBody(); in.Op != ia64.OpNop {
		t.Fatalf("nop variant body starts with %+v", in)
	}
	if err := p.Switch(vs, 1); err != nil {
		t.Fatal(err)
	}
	if in := firstBody(); in.Op != ia64.OpLfetch || in.Hint != ia64.HintExcl {
		t.Fatalf("excl variant body starts with %+v", in)
	}
	if err := p.Switch(vs, -1); err != nil {
		t.Fatal(err)
	}
	if in := firstBody(); in.Op != ia64.OpLfetch || in.Hint != ia64.HintNT1 {
		t.Fatalf("restored body starts with %+v", in)
	}
}
