package ia64

import "fmt"

// Asm assembles one function into an image, resolving label references to
// absolute slot indices. It is the back end used by the loop-nest compiler
// and by tests that hand-write code.
type Asm struct {
	img    *Image
	name   string
	instrs []Instr
	labels map[string]int // label -> relative slot
	fixups []fixup
	err    error
}

type fixup struct {
	slot  int
	label string
}

// NewAsm starts assembling a function that Close will append to img.
func NewAsm(img *Image, name string) *Asm {
	return &Asm{img: img, name: name, labels: make(map[string]int)}
}

// Emit appends one instruction and returns its relative slot index.
func (a *Asm) Emit(in Instr) int {
	a.instrs = append(a.instrs, in)
	return len(a.instrs) - 1
}

// Label binds name to the next slot to be emitted.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		a.fail(fmt.Errorf("ia64: duplicate label %q in %s", name, a.name))
		return
	}
	a.labels[name] = len(a.instrs)
}

// Br emits a branch of the given kind, qualified by predicate qp, targeting
// label. The target is resolved at Close.
func (a *Asm) Br(kind BrKind, qp uint8, label string) int {
	slot := a.Emit(Instr{Op: OpBr, Br: kind, QP: qp})
	a.fixups = append(a.fixups, fixup{slot: slot, label: label})
	return slot
}

// Nop emits a no-op (bundle filler).
func (a *Asm) Nop() int { return a.Emit(Instr{Op: OpNop}) }

// PadToBundle emits NOPs until the next slot falls on a bundle boundary.
func (a *Asm) PadToBundle() {
	for len(a.instrs)%BundleSlots != 0 {
		a.Nop()
	}
}

// Len returns the number of slots emitted so far.
func (a *Asm) Len() int { return len(a.instrs) }

func (a *Asm) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// Close resolves labels, appends the function to the image, registers it in
// the function table, and returns its entry slot.
func (a *Asm) Close() (int, error) {
	if a.err != nil {
		return 0, a.err
	}
	a.PadToBundle()
	// The entry offset is known only after append; resolve against a
	// placeholder base then relocate. Append under one lock would be
	// cleaner, but labels are function-relative so a two-step fixup works.
	base := a.img.Len()
	for _, fx := range a.fixups {
		rel, ok := a.labels[fx.label]
		if !ok {
			return 0, fmt.Errorf("ia64: undefined label %q in %s", fx.label, a.name)
		}
		a.instrs[fx.slot].Imm = int64(base + rel)
	}
	entry, err := a.img.Append(a.instrs...)
	if err != nil {
		return 0, fmt.Errorf("ia64: assembling %s: %w", a.name, err)
	}
	if entry != base {
		return 0, fmt.Errorf("ia64: image grew concurrently while assembling %s", a.name)
	}
	a.img.AddFunc(a.name, entry, entry+len(a.instrs))
	return entry, nil
}
