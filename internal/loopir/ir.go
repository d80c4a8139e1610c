// Package loopir defines the loop-nest intermediate representation the
// synthetic "icc-like" compiler (internal/compiler) lowers to IA-64-like
// binaries. Workloads — the OpenMP DAXPY kernel of the paper's Figure 1 and
// the NAS Parallel Benchmark kernels of its evaluation — are authored as
// loopir programs: typed float64/int64 arrays, fork-join parallel functions
// taking an iteration range, and loop nests over array expressions.
package loopir

import "fmt"

// ElemKind is an array element type.
type ElemKind uint8

const (
	F64 ElemKind = iota // float64 elements
	I64                 // int64 elements
)

// ElemBytes is the size of every element kind.
const ElemBytes = 8

func (k ElemKind) String() string {
	if k == F64 {
		return "f64"
	}
	return "i64"
}

// Array declares one named global array.
type Array struct {
	Name  string
	Kind  ElemKind
	Elems int64
}

// Bytes returns the array's allocation size.
func (a Array) Bytes() uint64 { return uint64(a.Elems) * ElemBytes }

// Program is one compilable workload.
type Program struct {
	Name   string
	Arrays []Array
	Funcs  []*Func
}

// ArrayByName returns the declaration of name.
func (p *Program) ArrayByName(name string) (Array, bool) {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a, true
		}
	}
	return Array{}, false
}

// Func is one function. Parallel functions are OpenMP-outlined region
// bodies: they implicitly receive int parameters "lo", "hi" (the assigned
// iteration range) and "tid" before any explicit parameters.
type Func struct {
	Name        string
	Parallel    bool
	IntParams   []string
	FloatParams []string
	Body        []Stmt
}

// AllIntParams returns the effective int parameter list including the
// implicit parallel-region parameters.
func (f *Func) AllIntParams() []string {
	if !f.Parallel {
		return f.IntParams
	}
	return append([]string{"lo", "hi", "tid"}, f.IntParams...)
}

// LoopHint guides the compiler's lowering of a For.
type LoopHint uint8

const (
	HintAuto    LoopHint = iota // compiler decides (SWP if innermost & simple)
	HintSWP                     // force software pipelining (br.ctop)
	HintCounted                 // force a plain counted loop (br.cloop)
	HintNoOpt                   // compare-and-branch loop (no LC use)
)

// ---- Statements ----

// Stmt is a statement.
type Stmt interface{ isStmt() }

// For iterates Var over [Lo, Hi) with unit step.
type For struct {
	Var  string
	Lo   IntExpr
	Hi   IntExpr
	Hint LoopHint
	Body []Stmt
}

// While is a do-while loop: the body always executes once, then repeats
// while Cond holds. It lowers to a pipelined while loop (br.wtop).
type While struct {
	Body []Stmt
	Cond Cond
}

// FStore writes Val to Array[Index] (a float64 array).
type FStore struct {
	Array string
	Index IntExpr
	Val   FloatExpr
}

// IStore writes Val to Array[Index] (an int64 array).
type IStore struct {
	Array string
	Index IntExpr
	Val   IntExpr
}

// SetF assigns a function-local float64 scalar.
type SetF struct {
	Name string
	Val  FloatExpr
}

// SetI assigns a function-local int64 scalar.
type SetI struct {
	Name string
	Val  IntExpr
}

func (For) isStmt()    {}
func (While) isStmt()  {}
func (FStore) isStmt() {}
func (IStore) isStmt() {}
func (SetF) isStmt()   {}
func (SetI) isStmt()   {}

// Cond is an integer comparison.
type Cond struct {
	Rel Rel
	A   IntExpr
	B   IntExpr
}

// Rel is a comparison relation.
type Rel uint8

const (
	EQ Rel = iota
	NE
	LT
	LE
	GT
	GE
)

// ---- Integer expressions ----

// IntExpr is an int64-valued expression.
type IntExpr interface{ isInt() }

// IConst is an integer literal.
type IConst int64

// IVar reads a loop variable, int parameter, or int local.
type IVar string

// IBin applies Op to two integer operands.
type IBin struct {
	Op ArithOp
	A  IntExpr
	B  IntExpr
}

// ILoad reads Array[Index] from an int64 array.
type ILoad struct {
	Array string
	Index IntExpr
}

func (IConst) isInt() {}
func (IVar) isInt()   {}
func (IBin) isInt()   {}
func (ILoad) isInt()  {}

// ---- Float expressions ----

// FloatExpr is a float64-valued expression.
type FloatExpr interface{ isFloat() }

// FConst is a float literal.
type FConst float64

// FVar reads a float parameter or float local.
type FVar string

// FBin applies Op to two float operands.
type FBin struct {
	Op ArithOp
	A  FloatExpr
	B  FloatExpr
}

// FLoad reads Array[Index] from a float64 array.
type FLoad struct {
	Array string
	Index IntExpr
}

// FFromInt converts an integer expression to float64.
type FFromInt struct{ E IntExpr }

func (FConst) isFloat()   {}
func (FVar) isFloat()     {}
func (FBin) isFloat()     {}
func (FLoad) isFloat()    {}
func (FFromInt) isFloat() {}

// ArithOp is an arithmetic operator. Div, And, Or, Xor, Shl, Shr apply to
// the domains that support them (Div float-only; bitwise int-only).
type ArithOp uint8

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
	And
	Or
	Xor
	Shl
	Shr
)

func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case And:
		return "&"
	case Or:
		return "|"
	case Xor:
		return "^"
	case Shl:
		return "<<"
	case Shr:
		return ">>"
	}
	return "?"
}

// ---- Convenience constructors (workload-authoring DSL) ----

// I builds an IConst.
func I(v int64) IConst { return IConst(v) }

// V builds an IVar.
func V(name string) IVar { return IVar(name) }

// IAdd, ISub, IMul, IAnd, IShl, IShr build integer operations.
func IAdd(a, b IntExpr) IBin { return IBin{Op: Add, A: a, B: b} }
func ISub(a, b IntExpr) IBin { return IBin{Op: Sub, A: a, B: b} }
func IMul(a, b IntExpr) IBin { return IBin{Op: Mul, A: a, B: b} }
func IAnd(a, b IntExpr) IBin { return IBin{Op: And, A: a, B: b} }
func IShl(a, b IntExpr) IBin { return IBin{Op: Shl, A: a, B: b} }
func IShr(a, b IntExpr) IBin { return IBin{Op: Shr, A: a, B: b} }

// F builds an FConst.
func F(v float64) FConst { return FConst(v) }

// FV builds an FVar.
func FV(name string) FVar { return FVar(name) }

// FAdd, FSub, FMul, FDiv build float operations.
func FAdd(a, b FloatExpr) FBin { return FBin{Op: Add, A: a, B: b} }
func FSub(a, b FloatExpr) FBin { return FBin{Op: Sub, A: a, B: b} }
func FMul(a, b FloatExpr) FBin { return FBin{Op: Mul, A: a, B: b} }
func FDiv(a, b FloatExpr) FBin { return FBin{Op: Div, A: a, B: b} }

// At reads a float64 array element.
func At(array string, idx IntExpr) FLoad { return FLoad{Array: array, Index: idx} }

// IAt reads an int64 array element.
func IAt(array string, idx IntExpr) ILoad { return ILoad{Array: array, Index: idx} }

// ---- Validation ----

// Validate checks that every array reference names a declared array of the
// right kind and that loop variables are not redeclared in nested scopes.
func (p *Program) Validate() error {
	for _, f := range p.Funcs {
		scope := map[string]bool{}
		for _, n := range f.AllIntParams() {
			scope[n] = true
		}
		if err := p.validateStmts(f, f.Body, scope); err != nil {
			return fmt.Errorf("loopir: %s.%s: %w", p.Name, f.Name, err)
		}
	}
	return nil
}

func (p *Program) validateStmts(f *Func, stmts []Stmt, scope map[string]bool) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case For:
			if scope[st.Var] {
				return fmt.Errorf("loop variable %q shadows an existing name", st.Var)
			}
			if err := p.validateInt(st.Lo); err != nil {
				return err
			}
			if err := p.validateInt(st.Hi); err != nil {
				return err
			}
			scope[st.Var] = true
			if err := p.validateStmts(f, st.Body, scope); err != nil {
				return err
			}
			delete(scope, st.Var)
		case While:
			if err := p.validateInt(st.Cond.A); err != nil {
				return err
			}
			if err := p.validateInt(st.Cond.B); err != nil {
				return err
			}
			if err := p.validateStmts(f, st.Body, scope); err != nil {
				return err
			}
		case FStore:
			if err := p.checkArray(st.Array, F64); err != nil {
				return err
			}
			if err := p.validateInt(st.Index); err != nil {
				return err
			}
			if err := p.validateFloat(st.Val); err != nil {
				return err
			}
		case IStore:
			if err := p.checkArray(st.Array, I64); err != nil {
				return err
			}
			if err := p.validateInt(st.Index); err != nil {
				return err
			}
			if err := p.validateInt(st.Val); err != nil {
				return err
			}
		case SetF:
			if err := p.validateFloat(st.Val); err != nil {
				return err
			}
		case SetI:
			if err := p.validateInt(st.Val); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown statement %T", s)
		}
	}
	return nil
}

func (p *Program) checkArray(name string, kind ElemKind) error {
	a, ok := p.ArrayByName(name)
	if !ok {
		return fmt.Errorf("undeclared array %q", name)
	}
	if a.Kind != kind {
		return fmt.Errorf("array %q is %v, used as %v", name, a.Kind, kind)
	}
	return nil
}

func (p *Program) validateInt(e IntExpr) error {
	switch ex := e.(type) {
	case IConst, IVar:
		return nil
	case IBin:
		if ex.Op == Div {
			return fmt.Errorf("integer division not supported")
		}
		if err := p.validateInt(ex.A); err != nil {
			return err
		}
		return p.validateInt(ex.B)
	case ILoad:
		if err := p.checkArray(ex.Array, I64); err != nil {
			return err
		}
		return p.validateInt(ex.Index)
	default:
		return fmt.Errorf("unknown int expression %T", e)
	}
}

func (p *Program) validateFloat(e FloatExpr) error {
	switch ex := e.(type) {
	case FConst, FVar:
		return nil
	case FBin:
		switch ex.Op {
		case Add, Sub, Mul, Div:
		default:
			return fmt.Errorf("float operator %v not supported", ex.Op)
		}
		if err := p.validateFloat(ex.A); err != nil {
			return err
		}
		return p.validateFloat(ex.B)
	case FLoad:
		if err := p.checkArray(ex.Array, F64); err != nil {
			return err
		}
		return p.validateInt(ex.Index)
	case FFromInt:
		return p.validateInt(ex.E)
	default:
		return fmt.Errorf("unknown float expression %T", e)
	}
}
