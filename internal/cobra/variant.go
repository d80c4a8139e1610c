package cobra

import (
	"fmt"

	"repro/internal/ia64"
)

// VariantSpec names one version of a region for DeployVariants: a
// rewrite of the given slots, or, with Layout set, a BOLT-style
// reordering of the region's basic blocks (Rewrite is then
// RewriteLayout and Slots is unused).
type VariantSpec struct {
	Rewrite Rewrite
	// Slots are the instruction addresses the rewrite targets.
	Slots []int
	// Layout is the block placement a layout copy realizes.
	Layout *LayoutSpec
}

// Variant is one version of a region: a rewritten copy in the code
// cache, or — in an in-place set — the region's own slots rewritten.
type Variant struct {
	Rewrite Rewrite
	// TraceEntry is the code-cache entry of this copy, -1 in place.
	TraceEntry int
	// ActiveKey is the loop key the variant reports through the BTB while
	// dispatched: the region key in place, its trace-relative relocation
	// for a copy. The controller judges a deployment only in windows where
	// this key ran.
	ActiveKey LoopKey
	// RewrittenPrefetches counts instructions changed in this variant.
	RewrittenPrefetches int
	// Layout is the block placement of a layout copy (nil otherwise).
	Layout *LayoutSpec
	// writes are the slot words that dispatch this variant: the entry
	// branch into a copy, or the rewritten instructions in place.
	writes []slotWord
}

// slotWord is one image slot and the instruction it holds.
type slotWord struct {
	pc int
	in ia64.Instr
}

// VariantSet is one deployed optimization: the version table of a region
// (Meng et al., profile-guided multi-version binary rewriting) plus the
// original code, with Switch as the only operation that moves between
// them. Every deployment is one — the in-place rewrite (one variant whose
// dispatch writes its slots where they stand), a single trace, a
// multi-version table, a layout copy — so a phase change, a rollback and
// a re-engagement all cost the same slot writes, one image generation
// each.
type VariantSet struct {
	Region   Region
	Variants []Variant
	// active is the dispatched variant index, -1 when the original code
	// runs.
	active int
	// saved holds the original word of every slot a dispatch overwrote
	// and no restore has yet put back, in write order.
	saved []slotWord
	// mark, until the first dispatch succeeds, is the code cache before
	// the set's copies were emitted, so a failed deploy leaks nothing.
	mark *cacheMark
}

// Active returns the dispatched variant index (-1 = original code).
func (vs *VariantSet) Active() int { return vs.active }

// ActiveVariant returns the dispatched variant, or nil at the original.
func (vs *VariantSet) ActiveVariant() *Variant {
	if vs.active < 0 {
		return nil
	}
	return &vs.Variants[vs.active]
}

// cacheMark is the code-cache state before a set's copies were emitted:
// the image length and both copy-name counters, plus the image length
// after emission (the set's copies are reclaimable only while they are
// still the cache's tail).
type cacheMark struct {
	len, traces, layouts, end int
}

// reclaim cuts the code cache back to m, dropping copies that never went
// live together with their function-table entries and names.
func (p *Patcher) reclaim(m cacheMark) {
	p.img.RemoveTail(m.len)
	p.nTraces, p.nLayouts = m.traces, m.layouts
}

// DeployVariants builds the version table of region r, resident but
// undispatched (Active() == -1) until Switch engages a variant. In trace
// mode every spec becomes a copy in the code cache; if any spec cannot
// be built, the copies already emitted are reclaimed. In place there is
// nowhere for a second version to live, so the table holds exactly one
// per-slot rewrite, written where it stands when dispatched.
func (p *Patcher) DeployVariants(r Region, specs []VariantSpec) (*VariantSet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cobra: empty variant table for region [%d,%d]: %w", r.Start, r.End, ErrNoRewritableSlots)
	}
	vs := &VariantSet{Region: r, active: -1}
	if !p.useTrace {
		if len(specs) != 1 || specs[0].Layout != nil {
			return nil, fmt.Errorf("cobra: variant tables and layout copies require the trace cache")
		}
		v, err := p.inPlaceVariant(r, specs[0])
		if err != nil {
			return nil, err
		}
		vs.Variants = []Variant{v}
		return vs, nil
	}
	if p.entryRedirected(r) {
		return nil, fmt.Errorf("cobra: region [%d,%d] entry already in code cache: %w", r.Start, r.End, ErrAlreadyPatched)
	}
	mark := cacheMark{len: p.img.Len(), traces: p.nTraces, layouts: p.nLayouts}
	for _, spec := range specs {
		var v Variant
		var err error
		if spec.Layout != nil {
			v, err = p.emitLayout(r, *spec.Layout)
		} else {
			v, err = p.emitTrace(r, spec.Slots, spec.Rewrite)
		}
		if err != nil {
			p.reclaim(mark)
			return nil, fmt.Errorf("cobra: variant %s: %w", spec.Rewrite, err)
		}
		v.writes = []slotWord{{r.Start, ia64.Instr{Op: ia64.OpBr, Br: ia64.BrAlways, Imm: int64(v.TraceEntry)}}}
		vs.Variants = append(vs.Variants, v)
	}
	mark.end = p.img.Len()
	vs.mark = &mark
	return vs, nil
}

// inPlaceVariant prepares the in-place rewrite of spec's slots. Slots
// the rewrite does not apply to (already rewritten by an earlier
// deployment, or the wrong opcode) are skipped.
func (p *Patcher) inPlaceVariant(r Region, spec VariantSpec) (Variant, error) {
	v := Variant{Rewrite: spec.Rewrite, TraceEntry: -1, ActiveKey: r.Key}
	for _, pc := range spec.Slots {
		if in := p.img.Fetch(pc); spec.Rewrite.applicable(in) {
			v.writes = append(v.writes, slotWord{pc, spec.Rewrite.apply(in)})
		}
	}
	if len(v.writes) == 0 {
		return Variant{}, fmt.Errorf("cobra: no applicable instruction among %d slots: %w", len(spec.Slots), ErrNoRewritableSlots)
	}
	v.RewrittenPrefetches = len(v.writes)
	return v, nil
}

// Switch dispatches variant idx of the set, or the original code for idx
// -1. It is the one operation that redirects a region entry or rewrites
// or restores a region's slots: dispatching a copy is a one-word patch of
// the entry, dispatching an in-place variant writes its slots. Switching
// to the dispatched variant is a no-op.
//
// Failures never lose state. A dispatch that fails partway undoes its
// own writes, and a first dispatch that fails reclaims the set's copies
// (it is then empty and can only be dropped). A restore that fails
// partway still leaves the set at the original (-1) but keeps every slot
// it could not restore, with its original word, so a later Switch(-1)
// retries exactly those.
func (p *Patcher) Switch(vs *VariantSet, idx int) error {
	if idx < -1 || idx >= len(vs.Variants) {
		return fmt.Errorf("cobra: variant %d of %d: %w", idx, len(vs.Variants), ErrUnknownVariant)
	}
	if idx < 0 {
		vs.active = -1
		return p.restore(vs, 0)
	}
	if idx == vs.active {
		return nil
	}
	n := len(vs.saved)
	for _, w := range vs.Variants[idx].writes {
		old, err := p.patchSlot(w.pc, w.in)
		if err != nil {
			// The failed write is the error to report; an undo write that
			// fails too keeps its original saved for a later Switch(-1).
			_ = p.restore(vs, n)
			if vs.mark != nil && p.img.Len() == vs.mark.end {
				p.reclaim(*vs.mark)
				vs.Variants = nil
			}
			return err
		}
		if !vs.overwrote(w.pc) {
			vs.saved = append(vs.saved, slotWord{w.pc, old})
		}
	}
	vs.active = idx
	vs.mark = nil
	return nil
}

// overwrote reports whether pc already holds a saved original.
func (vs *VariantSet) overwrote(pc int) bool {
	for _, s := range vs.saved {
		if s.pc == pc {
			return true
		}
	}
	return false
}

// restore writes back the saved originals from index from on, newest
// first. Entries whose restore fails stay saved, in write order, for a
// retry.
func (p *Patcher) restore(vs *VariantSet, from int) error {
	var firstErr error
	var failed []slotWord
	for i := len(vs.saved) - 1; i >= from; i-- {
		if _, err := p.patchSlot(vs.saved[i].pc, vs.saved[i].in); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			failed = append(failed, vs.saved[i])
		}
	}
	for i, j := 0, len(failed)-1; i < j; i, j = i+1, j-1 {
		failed[i], failed[j] = failed[j], failed[i]
	}
	vs.saved = append(vs.saved[:from], failed...)
	return firstErr
}
