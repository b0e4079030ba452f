package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dart/internal/ir"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// evalMachine builds a machine with one global cell and one symbolic
// input variable x0 stored at that cell.
func evalMachine(t *testing.T, concrete int64) (*Machine, ir.Expr) {
	t.Helper()
	prog := &ir.Prog{
		Funcs:      map[string]*ir.Func{},
		GlobalSize: 1,
	}
	src := newFixedSource()
	m, err := New(Config{Prog: prog, Inputs: src})
	if err != nil {
		t.Fatal(err)
	}
	v := m.trie.Root("x", types.IntType).Var
	if err := m.mem.Store(m.GlobalAddr(0), concrete, symbolic.NewVar(v)); err != nil {
		t.Fatal(err)
	}
	return m, &ir.Load{Addr: &ir.GlobalAddr{Off: 0}}
}

// concreteRow is one expression and the value C gives it.  mk builds a
// fresh tree on every call, because ir.Optimize folds in place.
type concreteRow struct {
	name string
	mk   func() ir.Expr
	want int64
}

func binRow(op ir.Op, a, b int64, ty *types.Basic, want int64) concreteRow {
	return concreteRow{
		name: fmt.Sprintf("%d %v %d (%v)", a, op, b, ty),
		mk: func() ir.Expr {
			return &ir.Bin{Op: op, A: &ir.Const{V: a}, B: &ir.Const{V: b}, Ty: ty}
		},
		want: want,
	}
}

func unRow(op ir.Op, a int64, ty *types.Basic, want int64) concreteRow {
	return concreteRow{
		name: fmt.Sprintf("%v %d (%v)", op, a, ty),
		mk:   func() ir.Expr { return &ir.Un{Op: op, A: &ir.Const{V: a}, Ty: ty} },
		want: want,
	}
}

// returning is a program whose one function, f, returns e.
func returning(e ir.Expr) *ir.Prog {
	return &ir.Prog{
		Funcs: map[string]*ir.Func{"f": {
			Name: "f", Result: types.LongType, Code: []ir.Instr{&ir.Ret{Val: e}},
		}},
		FuncOrder: []string{"f"},
	}
}

// runReturning runs returning(e) on the reference interpreter or on
// the compiled engine.
func runReturning(t *testing.T, e ir.Expr, compiled bool) (int64, *RunError) {
	t.Helper()
	prog := returning(e)
	cfg := Config{Prog: prog, Inputs: newFixedSource()}
	if compiled {
		cfg.Code = Compile(prog)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, rerr := m.RunCall("f", nil)
	return v.V, rerr
}

// folded is what ir.Optimize leaves of e as returning(e)'s result.
func folded(e ir.Expr) ir.Expr {
	prog := returning(e)
	ir.Optimize(prog)
	return prog.Funcs["f"].Code[0].(*ir.Ret).Val
}

var engines = []struct {
	name     string
	compiled bool
}{{"interpreter", false}, {"compiled engine", true}}

// checkRows evaluates every row three ways: by the interpreter and by
// the compiled engine, each running a program that returns the
// expression, and by ir.Optimize folding that return.  All three use
// ir's one definition of the operators, so the rows' values, which are
// C's, are the oracle that a second copy of the semantics used to be.
func checkRows(t *testing.T, rows []concreteRow) {
	t.Helper()
	for _, r := range rows {
		for _, eng := range engines {
			got, rerr := runReturning(t, r.mk(), eng.compiled)
			if rerr != nil {
				t.Errorf("%s on the %s: %v", r.name, eng.name, rerr)
			} else if got != r.want {
				t.Errorf("%s on the %s = %d, want %d", r.name, eng.name, got, r.want)
			}
		}
		if c, ok := folded(r.mk()).(*ir.Const); !ok || c.V != r.want {
			t.Errorf("%s folds to %s, want %d", r.name, ir.ExprString(folded(r.mk())), r.want)
		}
	}
}

func TestConcreteBinaryOps(t *testing.T) {
	checkRows(t, []concreteRow{
		binRow(ir.Add, 7, 3, nil, 10),
		binRow(ir.Sub, 7, 3, nil, 4),
		binRow(ir.Mul, 7, 3, nil, 21),
		binRow(ir.Div, 7, 3, nil, 2),
		binRow(ir.Div, -7, 3, nil, -2), // C truncates toward zero
		binRow(ir.Mod, 7, 3, nil, 1),
		binRow(ir.Mod, -7, 3, nil, -1),
		binRow(ir.And, 0b1100, 0b1010, nil, 0b1000),
		binRow(ir.Or, 0b1100, 0b1010, nil, 0b1110),
		binRow(ir.Xor, 0b1100, 0b1010, nil, 0b0110),
		binRow(ir.Shl, 3, 4, nil, 48),
		binRow(ir.Shr, 48, 4, nil, 3),
		binRow(ir.Shr, -8, 1, nil, -4), // arithmetic shift
		binRow(ir.Eq, 5, 5, nil, 1),
		binRow(ir.Eq, 5, 6, nil, 0),
		binRow(ir.Ne, 5, 6, nil, 1),
		binRow(ir.Lt, 5, 6, nil, 1),
		binRow(ir.Le, 6, 6, nil, 1),
		binRow(ir.Gt, 6, 5, nil, 1),
		binRow(ir.Ge, 5, 6, nil, 0),
		// Shift counts are taken mod 64.
		binRow(ir.Shl, 1, 63, nil, math.MinInt64),
		binRow(ir.Shl, 1, 64, nil, 1),
		binRow(ir.Shl, 1, -1, nil, math.MinInt64),
		binRow(ir.Shr, math.MinInt64, 63, nil, -1),
		binRow(ir.Shr, -8, 64, nil, -8),
		binRow(ir.Shr, math.MinInt64, -1, nil, -1),
		// A comparison compares whole values and keeps its 0 or 1
		// under a char type: 300 and 44 are equal as chars.
		binRow(ir.Gt, 300, 44, types.CharType, 1),
		binRow(ir.Eq, 256, 0, types.CharType, 0),
		binRow(ir.Lt, -1, 0, types.UIntType, 1),
	})
}

func TestConcreteUnaryOps(t *testing.T) {
	checkRows(t, []concreteRow{
		unRow(ir.Neg, 5, nil, -5),
		unRow(ir.Not, 0, nil, 1),
		unRow(ir.Not, 7, nil, 0),
		unRow(ir.Compl, 0, nil, -1),
		unRow(ir.Conv, 9, nil, 9),
		unRow(ir.Neg, math.MinInt64, nil, math.MinInt64),
		unRow(ir.Not, math.MinInt64, types.CharType, 0),
	})
}

func TestConcreteWrapping(t *testing.T) {
	checkRows(t, []concreteRow{
		// 64-bit arithmetic wraps.
		binRow(ir.Add, math.MaxInt64, 1, nil, math.MinInt64),
		binRow(ir.Add, math.MaxInt64, 1, types.LongType, math.MinInt64),
		binRow(ir.Div, math.MinInt64, -1, nil, math.MinInt64),
		binRow(ir.Mod, math.MinInt64, -1, nil, 0),
		// Arithmetic results truncate to the expression's type.
		binRow(ir.Add, 2147483647, 1, types.IntType, -2147483648),
		binRow(ir.Mul, 65536, 65536, types.IntType, 0),
		binRow(ir.Add, 127, 1, types.CharType, -128),
		binRow(ir.Shl, 1, 7, types.CharType, -128),
		binRow(ir.Sub, 0, 1, types.UIntType, 4294967295),
		binRow(ir.Div, math.MinInt64, -1, types.IntType, 0),
		// So do unary results.
		unRow(ir.Neg, -2147483648, types.IntType, -2147483648), // two's complement
		unRow(ir.Neg, -128, types.CharType, -128),
		unRow(ir.Neg, 1, types.UIntType, 4294967295),
		unRow(ir.Compl, 0, types.UIntType, 4294967295),
		unRow(ir.Compl, 127, types.CharType, -128),
		unRow(ir.Conv, 200, types.CharType, -56),
		unRow(ir.Conv, 1<<32+5, types.IntType, 5),
		unRow(ir.Conv, -1, types.UIntType, 4294967295),
	})
}

// TestConcreteFaults: an expression whose evaluation faults is left
// unfolded by the optimizer and faults with the same message on both
// engines.
func TestConcreteFaults(t *testing.T) {
	faults := []struct {
		name string
		mk   func() ir.Expr
		msg  string
	}{
		{"1 / 0", binRow(ir.Div, 1, 0, nil, 0).mk, "division by zero"},
		{"x % 0", binRow(ir.Mod, math.MinInt64, 0, types.IntType, 0).mk, "division by zero"},
		{"nested 1 / 0", func() ir.Expr {
			return &ir.Bin{Op: ir.Add, A: &ir.Const{V: 1}, B: binRow(ir.Div, 1, 0, nil, 0).mk()}
		}, "division by zero"},
		{"*NULL", func() ir.Expr { return &ir.Load{Addr: &ir.Const{V: 0}} }, "NULL pointer"},
	}
	for _, f := range faults {
		for _, eng := range engines {
			_, rerr := runReturning(t, f.mk(), eng.compiled)
			if rerr == nil || rerr.Outcome != Crashed || !strings.Contains(rerr.Msg, f.msg) {
				t.Errorf("%s on the %s: got %v, want a crash with %q", f.name, eng.name, rerr, f.msg)
			}
		}
		if c, ok := folded(f.mk()).(*ir.Const); ok {
			t.Errorf("%s folded away to %d: the fault must stay", f.name, c.V)
		}
	}
}

// symEval evaluates the expression symbolically and returns the form.
// symEval evaluates e symbolically, boxing a constant result as a
// constant form.
func symEval(t *testing.T, m *Machine, e ir.Expr) *symbolic.Lin {
	t.Helper()
	l, k, fault := m.evalSym(e, 0)
	if fault {
		t.Fatal("symbolic evaluation faulted")
	}
	if l == nil {
		return symbolic.NewConst(k)
	}
	return l
}

func TestSymbolicLinearOps(t *testing.T) {
	m, x := evalMachine(t, 5)
	// 3*x + 7 - x  ==  2x + 7
	e := &ir.Bin{
		Op: ir.Sub,
		A: &ir.Bin{
			Op: ir.Add,
			A:  &ir.Bin{Op: ir.Mul, A: &ir.Const{V: 3}, B: x},
			B:  &ir.Const{V: 7},
		},
		B: x,
	}
	l := symEval(t, m, e)
	if l.Coeff(0) != 2 || l.Const != 7 {
		t.Errorf("form = %v, want 2*x0 + 7", l)
	}
	if !m.AllLinear() {
		t.Error("linear expression cleared all_linear")
	}
}

func TestSymbolicShiftAsScaling(t *testing.T) {
	m, x := evalMachine(t, 5)
	e := &ir.Bin{Op: ir.Shl, A: x, B: &ir.Const{V: 3}}
	l := symEval(t, m, e)
	if l.Coeff(0) != 8 {
		t.Errorf("x << 3 = %v, want 8*x0", l)
	}
	if !m.AllLinear() {
		t.Error("constant shift cleared all_linear")
	}
}

func TestSymbolicNonlinearFallbacks(t *testing.T) {
	mk := func() (*Machine, ir.Expr) { return evalMachine(t, 5) }
	cases := []struct {
		name  string
		build func(x ir.Expr) ir.Expr
	}{
		{"x*x", func(x ir.Expr) ir.Expr { return &ir.Bin{Op: ir.Mul, A: x, B: x} }},
		{"x/2", func(x ir.Expr) ir.Expr { return &ir.Bin{Op: ir.Div, A: x, B: &ir.Const{V: 2}} }},
		{"x%3", func(x ir.Expr) ir.Expr { return &ir.Bin{Op: ir.Mod, A: x, B: &ir.Const{V: 3}} }},
		{"x&1", func(x ir.Expr) ir.Expr { return &ir.Bin{Op: ir.And, A: x, B: &ir.Const{V: 1}} }},
		{"x|1", func(x ir.Expr) ir.Expr { return &ir.Bin{Op: ir.Or, A: x, B: &ir.Const{V: 1}} }},
		{"x^1", func(x ir.Expr) ir.Expr { return &ir.Bin{Op: ir.Xor, A: x, B: &ir.Const{V: 1}} }},
		{"2<<x", func(x ir.Expr) ir.Expr { return &ir.Bin{Op: ir.Shl, A: &ir.Const{V: 2}, B: x} }},
		{"x>>1", func(x ir.Expr) ir.Expr { return &ir.Bin{Op: ir.Shr, A: x, B: &ir.Const{V: 1}} }},
		{"~x", func(x ir.Expr) ir.Expr { return &ir.Un{Op: ir.Compl, A: x} }},
		{"(char)x", func(x ir.Expr) ir.Expr { return &ir.Un{Op: ir.Conv, A: x, Ty: types.CharType} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, x := mk()
			l := symEval(t, m, c.build(x))
			if !l.IsConst() {
				t.Errorf("fallback should be the concrete constant, got %v", l)
			}
			if m.AllLinear() {
				t.Error("all_linear not cleared")
			}
		})
	}
}

func TestSymbolicNegStaysLinear(t *testing.T) {
	m, x := evalMachine(t, 5)
	l := symEval(t, m, &ir.Un{Op: ir.Neg, A: x})
	if l.Coeff(0) != -1 {
		t.Errorf("-x = %v", l)
	}
	if !m.AllLinear() {
		t.Error("negation cleared all_linear")
	}
}

func TestSymbolicConstOpsStayComplete(t *testing.T) {
	// Constant-only nonlinear operations must not clear the flag.
	m, _ := evalMachine(t, 5)
	e := &ir.Bin{Op: ir.Mul, A: &ir.Const{V: 6}, B: &ir.Const{V: 7}}
	l := symEval(t, m, e)
	if !l.IsConst() || l.ConstVal() != 42 {
		t.Errorf("6*7 = %v", l)
	}
	if !m.AllLinear() {
		t.Error("constant multiplication cleared all_linear")
	}
}

func TestBranchPredPolarity(t *testing.T) {
	cases := []struct {
		op      ir.Op
		taken   bool
		wantRel symbolic.Rel
	}{
		{ir.Eq, true, symbolic.EQ},
		{ir.Eq, false, symbolic.NE},
		{ir.Ne, true, symbolic.NE},
		{ir.Ne, false, symbolic.EQ},
		{ir.Lt, true, symbolic.LT},
		{ir.Lt, false, symbolic.GE},
		{ir.Le, true, symbolic.LE},
		{ir.Le, false, symbolic.GT},
		{ir.Gt, true, symbolic.GT},
		{ir.Gt, false, symbolic.LE},
		{ir.Ge, true, symbolic.GE},
		{ir.Ge, false, symbolic.LT},
	}
	for _, c := range cases {
		m, x := evalMachine(t, 5)
		cond := &ir.Bin{Op: c.op, A: x, B: &ir.Const{V: 9}}
		p, ok, _ := m.branchPred(cond, 0, c.taken)
		if !ok {
			t.Fatalf("%v taken=%v: no predicate", c.op, c.taken)
		}
		if p.Rel != c.wantRel {
			t.Errorf("%v taken=%v: rel %v, want %v", c.op, c.taken, p.Rel, c.wantRel)
		}
		if p.L.Coeff(0) != 1 || p.L.Const != -9 {
			t.Errorf("%v: form %v, want x0 - 9", c.op, p.L)
		}
	}
}

func TestBranchPredThroughNot(t *testing.T) {
	m, x := evalMachine(t, 5)
	cond := &ir.Un{Op: ir.Not, A: &ir.Bin{Op: ir.Eq, A: x, B: &ir.Const{V: 9}}}
	// !(x == 9) taken  ⇔  x == 9 not taken  ⇔  x - 9 != 0.
	p, ok, _ := m.branchPred(cond, 0, true)
	if !ok || p.Rel != symbolic.NE {
		t.Errorf("pred %v ok=%v", p, ok)
	}
}

func TestBranchPredPlainValue(t *testing.T) {
	m, x := evalMachine(t, 5)
	// if (x): taken ⇒ x != 0; not taken ⇒ x == 0.
	p, ok, _ := m.branchPred(x, 0, true)
	if !ok || p.Rel != symbolic.NE {
		t.Errorf("taken: %v ok=%v", p, ok)
	}
	p, ok, _ = m.branchPred(x, 0, false)
	if !ok || p.Rel != symbolic.EQ {
		t.Errorf("not taken: %v ok=%v", p, ok)
	}
}

func TestBranchPredConstant(t *testing.T) {
	m, _ := evalMachine(t, 5)
	cond := &ir.Bin{Op: ir.Eq, A: &ir.Const{V: 1}, B: &ir.Const{V: 1}}
	if _, ok, _ := m.branchPred(cond, 0, true); ok {
		t.Error("constant condition should have no predicate")
	}
	if !m.AllLinear() {
		t.Error("constant condition must not clear flags")
	}
}

func TestStoreClearsSymbolicShadow(t *testing.T) {
	m, x := evalMachine(t, 5)
	addr := m.GlobalAddr(0)
	// Overwrite the input cell with a constant via doAssign.
	ins := &ir.Assign{Dst: &ir.GlobalAddr{Off: 0}, Src: &ir.Const{V: 3}}
	if err := m.doAssign(ins, 0); err != nil {
		t.Fatal(err)
	}
	if _, still, _ := m.mem.Load(addr); still != nil {
		t.Error("constant store left a stale symbolic shadow")
	}
	l := symEval(t, m, x)
	if !l.IsConst() || l.ConstVal() != 3 {
		t.Errorf("after store: %v", l)
	}
}

func TestPointerShapeOnlyRefinement(t *testing.T) {
	// A load through an address that is a pure pointer var stays definite
	// and does not clear all_locs_definite.
	prog := &ir.Prog{Funcs: map[string]*ir.Func{}, GlobalSize: 2}
	src := newFixedSource()
	m, err := New(Config{Prog: prog, Inputs: src})
	if err != nil {
		t.Fatal(err)
	}
	ptrCell := m.GlobalAddr(0)
	region, _ := m.Mem().Alloc(1)
	p := m.trie.Root("p", &types.Pointer{Elem: types.IntType})
	pv, sv := p.Var, m.trie.child(p, 0).Var
	_ = m.mem.Store(ptrCell, region, symbolic.NewVar(pv))
	_ = m.mem.Store(region, 99, symbolic.NewVar(sv))

	deref := &ir.Load{Addr: &ir.Load{Addr: &ir.GlobalAddr{Off: 0}}}
	l := symEval(t, m, deref)
	if l.Coeff(sv) != 1 {
		t.Errorf("deref through pointer var = %v, want the pointee's variable", l)
	}
	if !m.AllLocsDefinite() {
		t.Error("pointer-shape-only address cleared all_locs_definite")
	}

	// Mixing in a scalar input makes the address indefinite.
	mixed := &ir.Load{Addr: &ir.Bin{
		Op: ir.Add,
		A:  &ir.Load{Addr: &ir.GlobalAddr{Off: 0}},
		B:  &ir.Load{Addr: &ir.Const{V: region}}, // the scalar input
	}}
	m.evalSym(mixed, 0)
	if m.AllLocsDefinite() {
		t.Error("scalar-dependent address did not clear all_locs_definite")
	}
}
