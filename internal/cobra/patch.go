package cobra

import (
	"errors"
	"fmt"

	"repro/internal/ia64"
)

// Sentinel causes of DeployVariants / Switch failures, so
// strategy engines and cobra-verify triage can branch on cause with
// errors.Is instead of string matching.
var (
	// ErrNoRewritableSlots: no slot the rewrite applies to — the slot
	// list was empty, or every named instruction is inapplicable (wrong
	// opcode, or already in rewritten form).
	ErrNoRewritableSlots = errors.New("no rewritable slots")
	// ErrAlreadyPatched: the region entry is already redirected into the
	// code cache; deploying again would trace the dispatch branch itself.
	ErrAlreadyPatched = errors.New("region already patched")
	// ErrUnknownVariant: a Switch named a variant index outside the set.
	ErrUnknownVariant = errors.New("unknown variant")
)

// Rewrite is the kind of prefetch rewrite the optimizer applies.
type Rewrite uint8

const (
	RewriteNop    Rewrite = iota // noprefetch: lfetch -> nop
	RewriteExcl                  // lfetch -> lfetch.excl
	RewriteBias                  // ld8 -> ld8.bias (§4's exclusive-load hint)
	RewriteLayout                // BOLT-style basic-block reordering of the region copy
)

func (r Rewrite) String() string {
	switch r {
	case RewriteNop:
		return "nop"
	case RewriteExcl:
		return "excl"
	case RewriteBias:
		return "bias"
	case RewriteLayout:
		return "layout"
	}
	return "?"
}

// applicable reports whether the rewrite can act on the instruction. The
// prefetch rewrites act on lfetch sites; the bias rewrite acts on plain
// integer loads (the paper: .bias is unsupported on speculative, check,
// acquire and floating-point loads, so ordinary ld8 is the entire domain).
// RewriteLayout is a whole-region transform (emitLayout), never a
// per-instruction one, so it applies to no single instruction.
func (r Rewrite) applicable(in ia64.Instr) bool {
	switch r {
	case RewriteNop, RewriteExcl:
		return in.Op == ia64.OpLfetch
	case RewriteBias:
		return in.Op == ia64.OpLd && in.Hint == ia64.HintNone
	}
	return false
}

// apply transforms an applicable instruction.
func (r Rewrite) apply(in ia64.Instr) ia64.Instr {
	switch r {
	case RewriteNop:
		return ia64.Instr{Op: ia64.OpNop, QP: in.QP}
	case RewriteExcl:
		in.Hint = ia64.HintExcl
		return in
	case RewriteBias:
		in.Hint = ia64.HintBias
		return in
	}
	return in
}

// Patcher deploys and rolls back binary optimizations. In trace mode it
// copies the region into a code cache appended to the image, rewrites the
// prefetches in the copy, relocates intra-region branch targets, and
// redirects the original region entry with a single branch — the paper's
// "optimized binary traces are stored in a trace cache in the same address
// space ... the binary program is then patched and redirected to the
// optimized traces". In-place mode rewrites the lfetch words directly.
// Either way a deployment is a VariantSet, and Switch moves it.
type Patcher struct {
	img      *ia64.Image
	useTrace bool
	nTraces  int
	nLayouts int
	// cacheStart is the first slot of the code cache: everything appended
	// by this patcher lives at or beyond it. The optimizer must never
	// treat its own traces as optimization candidates.
	cacheStart int
	// patchHook, when set, intercepts every slot write the patcher makes.
	// Tests use it to force failure paths: slot patching in this ISA model
	// cannot fail on encoding (word1 carries the full immediate) and the
	// patcher only writes in-range slots, so the error handling around
	// redirects and rollbacks is otherwise unreachable.
	patchHook func(pc int, in ia64.Instr) (ia64.Instr, error)
}

// NewPatcher builds a patcher over the running image.
func NewPatcher(img *ia64.Image, useTrace bool) *Patcher {
	return &Patcher{img: img, useTrace: useTrace, cacheStart: img.Len()}
}

// patchSlot is the single point through which Switch rewrites image
// slots (see patchHook).
func (p *Patcher) patchSlot(pc int, in ia64.Instr) (ia64.Instr, error) {
	if p.patchHook != nil {
		return p.patchHook(pc, in)
	}
	return p.img.Patch(pc, in)
}

// InCodeCache reports whether pc lies in patcher-emitted code.
func (p *Patcher) InCodeCache(pc int) bool { return pc >= p.cacheStart }

// entryRedirected reports whether the region entry already dispatches
// into patcher-emitted code.
func (p *Patcher) entryRedirected(r Region) bool {
	in := p.img.Fetch(r.Start)
	return in.IsBranch() && p.InCodeCache(int(in.Imm))
}

// emitTrace builds one rewritten copy of [r.Start, r.End] and appends it
// to the code cache, returning its variant descriptor. The region entry
// is not redirected — Switch owns dispatch.
func (p *Patcher) emitTrace(r Region, slots []int, rw Rewrite) (Variant, error) {
	rewriteAt := map[int]bool{}
	for _, pc := range slots {
		rewriteAt[pc] = true
	}
	n := r.End - r.Start + 1
	trace := make([]ia64.Instr, 0, n+1)
	rewritten := 0
	for pc := r.Start; pc <= r.End; pc++ {
		in := p.img.Fetch(pc)
		if rewriteAt[pc] && rw.applicable(in) {
			in = rw.apply(in)
			rewritten++
		}
		trace = append(trace, in)
	}
	if rewritten == 0 {
		return Variant{}, fmt.Errorf("cobra: no applicable instruction among %d slots: %w", len(slots), ErrNoRewritableSlots)
	}

	entry := p.img.Len()
	// Relocate intra-region branch targets to the trace copy; targets
	// outside the region (the guard's skip label, etc.) stay absolute.
	for i := range trace {
		in := &trace[i]
		if in.IsBranch() && int(in.Imm) >= r.Start && int(in.Imm) <= r.End {
			in.Imm = in.Imm - int64(r.Start) + int64(entry)
		}
	}
	// Fall-through continues after the original region.
	trace = append(trace, ia64.Instr{Op: ia64.OpBr, Br: ia64.BrAlways, Imm: int64(r.End + 1)})
	if _, err := p.img.Append(trace...); err != nil {
		return Variant{}, err
	}
	p.nTraces++
	p.img.AddFunc(fmt.Sprintf("cobra.trace%d", p.nTraces), entry, entry+len(trace))
	return Variant{
		Rewrite:    rw,
		TraceEntry: entry,
		ActiveKey: LoopKey{
			Head:     r.Key.Head - r.Start + entry,
			BranchPC: r.Key.BranchPC - r.Start + entry,
		},
		RewrittenPrefetches: rewritten,
	}, nil
}
