package loopir

import "testing"

// daxpyProgram is the paper's Figure 1 kernel in IR form.
func daxpyProgram() *Program {
	return &Program{
		Name: "daxpy",
		Arrays: []Array{
			{Name: "x", Kind: F64, Elems: 8192},
			{Name: "y", Kind: F64, Elems: 8192},
		},
		Funcs: []*Func{{
			Name:        "daxpy_body",
			Parallel:    true,
			FloatParams: []string{"a"},
			Body: []Stmt{
				For{Var: "i", Lo: V("lo"), Hi: V("hi"), Body: []Stmt{
					FStore{Array: "y", Index: V("i"),
						Val: FAdd(At("y", V("i")), FMul(FV("a"), At("x", V("i"))))},
				}},
			},
		}},
	}
}

func TestValidateDaxpy(t *testing.T) {
	if err := daxpyProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateUndeclaredArray(t *testing.T) {
	p := daxpyProgram()
	p.Funcs[0].Body = []Stmt{FStore{Array: "z", Index: I(0), Val: F(1)}}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted undeclared array")
	}
}

func TestValidateKindMismatch(t *testing.T) {
	p := daxpyProgram()
	p.Arrays = append(p.Arrays, Array{Name: "idx", Kind: I64, Elems: 16})
	p.Funcs[0].Body = []Stmt{FStore{Array: "idx", Index: I(0), Val: F(1)}}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted float store to int array")
	}
	p.Funcs[0].Body = []Stmt{IStore{Array: "x", Index: I(0), Val: I(1)}}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted int store to float array")
	}
}

func TestValidateShadowedLoopVar(t *testing.T) {
	p := daxpyProgram()
	p.Funcs[0].Body = []Stmt{
		For{Var: "i", Lo: I(0), Hi: I(4), Body: []Stmt{
			For{Var: "i", Lo: I(0), Hi: I(4), Body: nil},
		}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted shadowed loop variable")
	}
}

func TestValidateIntDivisionRejected(t *testing.T) {
	p := daxpyProgram()
	p.Funcs[0].Body = []Stmt{SetI{Name: "t", Val: IBin{Op: Div, A: I(4), B: I(2)}}}
	if err := p.Validate(); err == nil {
		t.Fatal("accepted integer division")
	}
}

func TestValidateGather(t *testing.T) {
	p := daxpyProgram()
	p.Arrays = append(p.Arrays, Array{Name: "col", Kind: I64, Elems: 64})
	p.Funcs[0].Body = []Stmt{
		For{Var: "k", Lo: V("lo"), Hi: V("hi"), Body: []Stmt{
			SetF{Name: "s", Val: FAdd(FV("s"), At("x", IAt("col", V("k"))))},
		}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAffineSimpleVar(t *testing.T) {
	f, ok := Affine(V("i"), "i", nil)
	if !ok || f.Stride != 1 {
		t.Fatalf("Affine(i) = %+v, %v", f, ok)
	}
	if c, isC := exprConst(f.Base); !isC || c != 0 {
		t.Fatalf("base = %+v", f.Base)
	}
}

func TestAffineOffsets(t *testing.T) {
	f, ok := Affine(IAdd(V("i"), I(3)), "i", nil)
	if !ok || f.Stride != 1 {
		t.Fatalf("i+3: %+v, %v", f, ok)
	}
	if c, _ := exprConst(f.Base); c != 3 {
		t.Fatalf("i+3 base = %v", f.Base)
	}
	f, ok = Affine(ISub(V("i"), I(1)), "i", nil)
	if !ok || f.Stride != 1 {
		t.Fatalf("i-1: %+v, %v", f, ok)
	}
	if c, _ := exprConst(f.Base); c != -1 {
		t.Fatalf("i-1 base = %v", f.Base)
	}
}

func TestAffineStride(t *testing.T) {
	// i*4 + j where j is an outer loop variable (invariant here).
	e := IAdd(IMul(V("i"), I(4)), V("j"))
	f, ok := Affine(e, "i", nil)
	if !ok || f.Stride != 4 {
		t.Fatalf("4i+j: %+v, %v", f, ok)
	}
	// With respect to j, stride 1 and base 4i.
	f, ok = Affine(e, "j", nil)
	if !ok || f.Stride != 1 {
		t.Fatalf("wrt j: %+v, %v", f, ok)
	}
}

func TestAffineShl(t *testing.T) {
	f, ok := Affine(IShl(V("i"), I(2)), "i", nil)
	if !ok || f.Stride != 4 {
		t.Fatalf("i<<2: %+v, %v", f, ok)
	}
}

func TestAffineGatherNotAffine(t *testing.T) {
	if _, ok := Affine(IAt("col", V("k")), "k", nil); ok {
		t.Fatal("gather classified affine")
	}
	// Nested: base contains a gather -> not affine.
	if _, ok := Affine(IAdd(V("k"), IAt("col", I(0))), "k", nil); ok {
		t.Fatal("gather base classified invariant")
	}
}

func TestAffineAssignedVarNotInvariant(t *testing.T) {
	assigned := map[string]bool{"t": true}
	if _, ok := Affine(IAdd(V("i"), V("t")), "i", assigned); ok {
		t.Fatal("assigned var treated as invariant")
	}
	if _, ok := Affine(IAdd(V("i"), V("u")), "i", assigned); !ok {
		t.Fatal("unassigned var rejected")
	}
}

func TestAffineNonConstScaleRejected(t *testing.T) {
	if _, ok := Affine(IMul(V("i"), V("n")), "i", nil); ok {
		t.Fatal("variable stride classified affine")
	}
	// But invariant*invariant is fine.
	f, ok := Affine(IMul(V("m"), V("n")), "i", nil)
	if !ok || f.Stride != 0 {
		t.Fatalf("m*n: %+v, %v", f, ok)
	}
}

func TestAssignedVars(t *testing.T) {
	stmts := []Stmt{
		SetI{Name: "a", Val: I(1)},
		For{Var: "i", Lo: I(0), Hi: I(2), Body: []Stmt{
			SetF{Name: "b", Val: F(1)},
			While{Body: []Stmt{SetI{Name: "c", Val: I(0)}}, Cond: Cond{Rel: LT, A: I(0), B: I(1)}},
		}},
	}
	got := AssignedVars(stmts)
	for _, want := range []string{"a", "b", "c", "i"} {
		if !got[want] {
			t.Fatalf("AssignedVars missing %q: %v", want, got)
		}
	}
}

func TestExprConstFolding(t *testing.T) {
	cases := []struct {
		e    IntExpr
		want int64
	}{
		{IAdd(I(2), I(3)), 5},
		{IMul(I(4), I(5)), 20},
		{ISub(I(2), I(7)), -5},
		{IAnd(I(0xff), I(0x0f)), 0x0f},
		{IShl(I(1), I(10)), 1024},
		{IShr(I(1024), I(3)), 128},
	}
	for _, c := range cases {
		got, ok := exprConst(c.e)
		if !ok || got != c.want {
			t.Fatalf("exprConst(%v) = %d,%v want %d", c.e, got, ok, c.want)
		}
	}
	if _, ok := exprConst(V("i")); ok {
		t.Fatal("variable folded to constant")
	}
}

func TestProgramLookups(t *testing.T) {
	p := daxpyProgram()
	if a, ok := p.ArrayByName("x"); !ok || a.Elems != 8192 {
		t.Fatalf("ArrayByName(x) = %+v, %v", a, ok)
	}
	if _, ok := p.ArrayByName("nope"); ok {
		t.Fatal("found undeclared array")
	}
	params := p.Funcs[0].AllIntParams()
	if len(params) != 3 || params[0] != "lo" || params[1] != "hi" || params[2] != "tid" {
		t.Fatalf("AllIntParams = %v", params)
	}
}
