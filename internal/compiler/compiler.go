// Package compiler lowers loopir programs to IA-64-like binaries in the
// style of Intel's icc 9.1 at -O3 -openmp, the compiler the paper
// evaluates against: innermost loops are software-pipelined with br.ctop
// and rotating registers, other counted loops use br.cloop, do-while loops
// use br.wtop, and — crucially for COBRA — every streaming array reference
// gets aggressive data prefetching: a burst of prologue lfetch.nt1
// instructions plus one steady-state lfetch per stream per iteration
// targeting a configurable distance (default 9 cache lines, as measured in
// the paper's Figure 2) ahead of the current reference.
//
// The compiler is deliberately oblivious to multiprocessor data sharing,
// as static compilers are: prefetches run past the end of each thread's
// iteration chunk into the neighbouring thread's data, which is the
// coherent-miss pathology COBRA repairs at run time.
package compiler

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ia64"
	"repro/internal/loopir"
	"repro/internal/mem"
)

// Options control code generation.
type Options struct {
	// Prefetch enables lfetch insertion (icc default at -O2 and above).
	Prefetch bool
	// PrefetchDistanceLines is how many cache lines ahead the steady-state
	// prefetches target (paper Fig. 2: 9 lines = 1152 bytes).
	PrefetchDistanceLines int
	// ProloguePrefetches is the lfetch burst emitted before a loop entry
	// covering the lines between the entry and the steady-state distance
	// (Fig. 2 shows such a burst before the DAXPY kernel).
	ProloguePrefetches int
	// PrefetchHint is the completer on generated prefetches.
	PrefetchHint ia64.Hint
	// LineBytes is the cache line size prefetch distances are computed in.
	LineBytes int
	// EnableSWP allows software pipelining of innermost loops.
	EnableSWP bool
}

// DefaultOptions mirrors icc -O3: aggressive prefetch, SWP on.
func DefaultOptions() Options {
	return Options{
		Prefetch:              true,
		PrefetchDistanceLines: 9,
		ProloguePrefetches:    9,
		PrefetchHint:          ia64.HintNT1,
		LineBytes:             128,
		EnableSWP:             true,
	}
}

// ArrayMap maps array names to their base addresses in simulated memory.
type ArrayMap map[string]uint64

// AllocArrays allocates every array of prog in m, line-aligned.
func AllocArrays(m *mem.Memory, prog *loopir.Program) (ArrayMap, error) {
	bases := ArrayMap{}
	for _, a := range prog.Arrays {
		base, err := m.Alloc(prog.Name+"."+a.Name, a.Bytes(), 128)
		if err != nil {
			return nil, err
		}
		bases[a.Name] = base
	}
	return bases, nil
}

// LoopInfo is the compiler's ground truth about one generated loop, used
// by tests and reports (COBRA itself never sees it — it rediscovers loops
// from BTB profiles).
type LoopInfo struct {
	Func     string
	Var      string
	Kind     ia64.BrKind // ctop, cloop, wtop, or cond (HintNoOpt / outer)
	Head     int         // absolute slot of the loop body entry
	BranchPC int         // absolute slot of the closing branch
	// PrefetchPCs are the steady-state lfetch slots inside the body,
	// mapped to the array each targets.
	PrefetchPCs map[int]string
	// ProloguePCs are the burst lfetch slots in the preheader.
	ProloguePCs map[int]string
	// StoredArrays are arrays written inside the loop.
	StoredArrays []string
}

// CompiledFunc describes one lowered function.
type CompiledFunc struct {
	Fn        ia64.Func
	IntArgs   map[string]uint8 // parameter name -> general register
	FloatArgs map[string]uint8 // parameter name -> floating register
	Loops     []LoopInfo
}

// Result is the outcome of compiling a program.
type Result struct {
	Prog  *loopir.Program
	Opt   Options
	Funcs map[string]*CompiledFunc
}

// Compile lowers every function of prog into img, with array references
// resolved against bases.
func Compile(img *ia64.Image, prog *loopir.Program, bases ArrayMap, opt Options) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	for _, a := range prog.Arrays {
		if _, ok := bases[a.Name]; !ok {
			return nil, fmt.Errorf("compiler: array %q has no base address", a.Name)
		}
	}
	if opt.LineBytes == 0 {
		opt.LineBytes = 128
	}
	res := &Result{Prog: prog, Opt: opt, Funcs: map[string]*CompiledFunc{}}
	for _, f := range prog.Funcs {
		cf, err := compileFunc(img, prog, f, bases, opt)
		if err != nil {
			return nil, fmt.Errorf("compiler: %s.%s: %w", prog.Name, f.Name, err)
		}
		res.Funcs[f.Name] = cf
	}
	return res, nil
}

// StaticCounts aggregates Table 1 statistics over the compiled functions
// of one program.
func (r *Result) StaticCounts(img *ia64.Image) ia64.StaticCounts {
	var c ia64.StaticCounts
	for _, cf := range r.Funcs {
		c.Lfetch += img.OpCount(cf.Fn.Entry, cf.Fn.End, func(in ia64.Instr) bool { return in.Op == ia64.OpLfetch })
		c.BrCtop += img.OpCount(cf.Fn.Entry, cf.Fn.End, func(in ia64.Instr) bool { return in.Op == ia64.OpBr && in.Br == ia64.BrCtop })
		c.BrCloop += img.OpCount(cf.Fn.Entry, cf.Fn.End, func(in ia64.Instr) bool { return in.Op == ia64.OpBr && in.Br == ia64.BrCloop })
		c.BrWtop += img.OpCount(cf.Fn.Entry, cf.Fn.End, func(in ia64.Instr) bool { return in.Op == ia64.OpBr && in.Br == ia64.BrWtop })
	}
	return c
}

// Register conventions (documented for binder authors):
//
//	r8, r9, r10   int parameters (parallel regions: lo, hi, tid)
//	r8..r23       named integer values (params, locals, loop variables,
//	              stream cursors)
//	r24..r31      integer expression temporaries
//	f6..f19       named floats (params, locals, accumulators)
//	f20..f31      float expression temporaries
//	f32+2k        rotating registers of two-stage pipelined loops
//	p2..p15       general predicates; p16+ SWP stage predicates
const (
	firstNamedGR = 8
	lastNamedGR  = 23
	firstTempGR  = 24
	lastTempGR   = 31

	firstNamedFR = 6
	lastNamedFR  = 19
	firstTempFR  = 20
	lastTempFR   = 31

	guardPred  = 2 // preheader trip-count guard
	latchPred  = 3 // compare-and-branch loop latch
	condPred   = 4 // while-loop condition
	stagePred0 = 16
	stagePred1 = 17
)

// fnGen is the per-function code generator state.
type fnGen struct {
	prog  *loopir.Program
	fn    *loopir.Func
	bases ArrayMap
	opt   Options
	asm   *ia64.Asm

	intRegs   map[string]uint8
	floatRegs map[string]uint8
	nextGR    uint8
	nextFR    uint8

	intTemps   tempAlloc
	floatTemps tempAlloc

	labelN     int
	loops      []LoopInfo // relative PCs until close
	curVarName string     // loop variable of the loop currently being lowered
	err        error
}

type tempAlloc struct {
	first, last uint8
	used        [16]bool
	name        string
}

func (t *tempAlloc) get() (uint8, error) {
	for i := range t.used {
		if !t.used[i] && t.first+uint8(i) <= t.last {
			t.used[i] = true
			return t.first + uint8(i), nil
		}
	}
	return 0, fmt.Errorf("out of %s temporaries", t.name)
}

func (t *tempAlloc) put(r uint8) {
	if r >= t.first && r <= t.last {
		t.used[r-t.first] = false
	}
}

func compileFunc(img *ia64.Image, prog *loopir.Program, f *loopir.Func, bases ArrayMap, opt Options) (*CompiledFunc, error) {
	g := &fnGen{
		prog: prog, fn: f, bases: bases, opt: opt,
		asm:        ia64.NewAsm(img, f.Name),
		intRegs:    map[string]uint8{},
		floatRegs:  map[string]uint8{},
		nextGR:     firstNamedGR,
		nextFR:     firstNamedFR,
		intTemps:   tempAlloc{first: firstTempGR, last: lastTempGR, name: "integer"},
		floatTemps: tempAlloc{first: firstTempFR, last: lastTempFR, name: "float"},
	}
	for _, p := range f.AllIntParams() {
		if _, err := g.namedGR(p); err != nil {
			return nil, err
		}
	}
	for _, p := range f.FloatParams {
		if _, err := g.namedFR(p); err != nil {
			return nil, err
		}
	}
	g.stmtsCtx(f.Body, nil)
	g.emit(ia64.Instr{Op: ia64.OpHalt})
	if g.err != nil {
		return nil, g.err
	}
	entry, err := g.asm.Close()
	if err != nil {
		return nil, err
	}
	fn, _ := img.LookupFunc(f.Name)

	cf := &CompiledFunc{
		Fn:        fn,
		IntArgs:   g.intRegs,
		FloatArgs: g.floatRegs,
	}
	for _, li := range g.loops {
		li.Func = f.Name
		li.Head += entry
		li.BranchPC += entry
		abs := func(rel map[int]string) map[int]string {
			out := make(map[int]string, len(rel))
			for pc, arr := range rel {
				out[pc+entry] = arr
			}
			return out
		}
		li.PrefetchPCs = abs(li.PrefetchPCs)
		li.ProloguePCs = abs(li.ProloguePCs)
		cf.Loops = append(cf.Loops, li)
	}
	sort.Slice(cf.Loops, func(i, j int) bool { return cf.Loops[i].Head < cf.Loops[j].Head })
	return cf, nil
}

func (g *fnGen) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf(format, args...)
	}
}

func (g *fnGen) emit(in ia64.Instr) int { return g.asm.Emit(in) }

func (g *fnGen) label(prefix string) string {
	g.labelN++
	return fmt.Sprintf("%s%d", prefix, g.labelN)
}

// namedGR returns (allocating if new) the general register of a named int.
func (g *fnGen) namedGR(name string) (uint8, error) {
	if r, ok := g.intRegs[name]; ok {
		return r, nil
	}
	if g.nextGR > lastNamedGR {
		return 0, fmt.Errorf("out of general registers for %q", name)
	}
	r := g.nextGR
	g.nextGR++
	g.intRegs[name] = r
	return r, nil
}

// releaseGR frees a named register for reuse after a loop body closes.
func (g *fnGen) releaseGR(name string) {
	if r, ok := g.intRegs[name]; ok {
		delete(g.intRegs, name)
		if r == g.nextGR-1 {
			g.nextGR--
		}
	}
}

func (g *fnGen) namedFR(name string) (uint8, error) {
	if r, ok := g.floatRegs[name]; ok {
		return r, nil
	}
	if g.nextFR > lastNamedFR {
		return 0, fmt.Errorf("out of floating registers for %q", name)
	}
	r := g.nextFR
	g.nextFR++
	g.floatRegs[name] = r
	return r, nil
}

// stmtsCtx lowers a statement list within loop context lc (nil outside
// innermost loops).
func (g *fnGen) stmtsCtx(list []loopir.Stmt, lc *loopCtx) {
	for _, s := range list {
		if g.err != nil {
			return
		}
		switch st := s.(type) {
		case loopir.For:
			if lc != nil {
				g.fail("nested loop inside an innermost lowering")
				return
			}
			g.lowerFor(st)
		case loopir.While:
			if lc != nil {
				g.fail("nested while inside an innermost lowering")
				return
			}
			g.lowerWhile(st)
		case loopir.FStore:
			g.lowerFStore(st, lc)
		case loopir.IStore:
			g.lowerIStore(st, lc)
		case loopir.SetF:
			g.lowerSetF(st, lc)
		case loopir.SetI:
			g.lowerSetI(st, lc)
		default:
			g.fail("unsupported statement %T", s)
		}
	}
}

func (g *fnGen) lowerSetF(st loopir.SetF, lc *loopCtx) {
	dst, err := g.namedFR(st.Name)
	if err != nil {
		g.fail("%v", err)
		return
	}
	r, rel := g.evalF(st.Val, lc)
	g.emit(ia64.Instr{Op: ia64.OpFMov, R1: dst, R2: r, QP: g.qp(lc)})
	rel()
}

func (g *fnGen) lowerSetI(st loopir.SetI, lc *loopCtx) {
	dst, err := g.namedGR(st.Name)
	if err != nil {
		g.fail("%v", err)
		return
	}
	r, rel := g.evalI(st.Val, lc)
	g.emit(ia64.Instr{Op: ia64.OpAddI, R1: dst, R2: r, Imm: 0, QP: g.qp(lc)})
	rel()
}

func (g *fnGen) lowerFStore(st loopir.FStore, lc *loopCtx) {
	v, relV := g.evalF(st.Val, lc)
	addr, relA := g.arrayAddr(st.Array, st.Index, lc)
	g.emit(ia64.Instr{Op: ia64.OpStf, R2: addr, R3: v, QP: g.qp(lc)})
	relA()
	relV()
}

func (g *fnGen) lowerIStore(st loopir.IStore, lc *loopCtx) {
	v, relV := g.evalI(st.Val, lc)
	addr, relA := g.arrayAddr(st.Array, st.Index, lc)
	g.emit(ia64.Instr{Op: ia64.OpSt, R2: addr, R3: v, QP: g.qp(lc)})
	relA()
	relV()
}

// qp returns the stage predicate qualifying body instructions of a
// software-pipelined loop, or 0 outside one.
func (g *fnGen) qp(lc *loopCtx) uint8 {
	if lc == nil {
		return 0
	}
	if lc.qpOverride != 0 {
		return lc.qpOverride
	}
	if lc.swp {
		return stagePred0
	}
	return 0
}

// lowerWhile emits a do-while as a (trivially) pipelined while loop closed
// by br.wtop — the third loop form of the paper's Table 1.
func (g *fnGen) lowerWhile(st loopir.While) {
	if containsLoop(st.Body) {
		g.fail("while loops must be innermost")
		return
	}
	top := g.label(".wt")
	g.emit(ia64.Instr{Op: ia64.OpClrrrb})
	g.emit(ia64.Instr{Op: ia64.OpMovToECI, Imm: 1})
	g.asm.PadToBundle()
	g.asm.Label(top)
	head := g.asm.Len()
	g.stmtsCtx(st.Body, nil)
	// Evaluate the continuation condition into the wtop predicate.
	a, relA := g.evalI(st.Cond.A, nil)
	b, relB := g.evalI(st.Cond.B, nil)
	g.emit(ia64.Instr{Op: ia64.OpCmp, Rel: relOf(st.Cond.Rel), P1: condPred, P2: 0, R2: a, R3: b})
	relA()
	relB()
	br := g.asm.Br(ia64.BrWtop, condPred, top)
	g.loops = append(g.loops, LoopInfo{
		Kind: ia64.BrWtop, Head: head, BranchPC: br,
		PrefetchPCs: map[int]string{}, ProloguePCs: map[int]string{},
		StoredArrays: storedArrays(st.Body),
	})
}

func relOf(r loopir.Rel) ia64.CmpRel {
	switch r {
	case loopir.EQ:
		return ia64.CmpEQ
	case loopir.NE:
		return ia64.CmpNE
	case loopir.LT:
		return ia64.CmpLT
	case loopir.LE:
		return ia64.CmpLE
	case loopir.GT:
		return ia64.CmpGT
	}
	return ia64.CmpGE
}

func containsLoop(stmts []loopir.Stmt) bool {
	for _, s := range stmts {
		switch st := s.(type) {
		case loopir.For:
			return true
		case loopir.While:
			return true
		default:
			_ = st
		}
	}
	return false
}

func storedArrays(stmts []loopir.Stmt) []string {
	seen := map[string]bool{}
	var out []string
	var walk func([]loopir.Stmt)
	walk = func(ss []loopir.Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case loopir.FStore:
				if !seen[st.Array] {
					seen[st.Array] = true
					out = append(out, st.Array)
				}
			case loopir.IStore:
				if !seen[st.Array] {
					seen[st.Array] = true
					out = append(out, st.Array)
				}
			case loopir.For:
				walk(st.Body)
			case loopir.While:
				walk(st.Body)
			}
		}
	}
	walk(stmts)
	sort.Strings(out)
	return out
}

// fconstBits returns the encoding immediate for a float constant.
func fconstBits(v float64) int64 { return int64(math.Float64bits(v)) }
