package machine

import (
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

func TestConcreteBinaryOps(t *testing.T) {
	m, _ := evalMachine(t, 0)
	cases := []struct {
		op   ir.Op
		a, b int64
		want int64
	}{
		{ir.Add, 7, 3, 10},
		{ir.Sub, 7, 3, 4},
		{ir.Mul, 7, 3, 21},
		{ir.Div, 7, 3, 2},
		{ir.Div, -7, 3, -2}, // C truncates toward zero
		{ir.Mod, 7, 3, 1},
		{ir.Mod, -7, 3, -1},
		{ir.And, 0b1100, 0b1010, 0b1000},
		{ir.Or, 0b1100, 0b1010, 0b1110},
		{ir.Xor, 0b1100, 0b1010, 0b0110},
		{ir.Shl, 3, 4, 48},
		{ir.Shr, 48, 4, 3},
		{ir.Shr, -8, 1, -4}, // arithmetic shift
		{ir.Eq, 5, 5, 1},
		{ir.Eq, 5, 6, 0},
		{ir.Ne, 5, 6, 1},
		{ir.Lt, 5, 6, 1},
		{ir.Le, 6, 6, 1},
		{ir.Gt, 6, 5, 1},
		{ir.Ge, 5, 6, 0},
	}
	for _, c := range cases {
		e := &ir.Bin{Op: c.op, A: &ir.Const{V: c.a}, B: &ir.Const{V: c.b}}
		got, err := m.evalConcrete(e, 0)
		if err != nil {
			t.Fatalf("%v(%d,%d): %v", c.op, c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestConcreteUnaryOps(t *testing.T) {
	m, _ := evalMachine(t, 0)
	cases := []struct {
		op   ir.Op
		a    int64
		want int64
	}{
		{ir.Neg, 5, -5},
		{ir.Not, 0, 1},
		{ir.Not, 7, 0},
		{ir.Compl, 0, -1},
		{ir.Conv, 9, 9},
	}
	for _, c := range cases {
		e := &ir.Un{Op: c.op, A: &ir.Const{V: c.a}}
		got, err := m.evalConcrete(e, 0)
		if err != nil {
			t.Fatalf("%v(%d): %v", c.op, c.a, err)
		}
		if got != c.want {
			t.Errorf("%v(%d) = %d, want %d", c.op, c.a, got, c.want)
		}
	}
}

func TestConcreteWrapping(t *testing.T) {
	m, _ := evalMachine(t, 0)
	e := &ir.Bin{Op: ir.Add, A: &ir.Const{V: 2147483647}, B: &ir.Const{V: 1}, Ty: types.IntType}
	got, _ := m.evalConcrete(e, 0)
	if got != -2147483648 {
		t.Errorf("int32 wrap = %d", got)
	}
	u := &ir.Un{Op: ir.Neg, A: &ir.Const{V: -2147483648}, Ty: types.IntType}
	got, _ = m.evalConcrete(u, 0)
	if got != -2147483648 {
		t.Errorf("-INT_MIN = %d (two's complement)", got)
	}
}

func TestConcreteFaults(t *testing.T) {
	m, _ := evalMachine(t, 0)
	if _, err := m.evalConcrete(&ir.Bin{Op: ir.Div, A: &ir.Const{V: 1}, B: &ir.Const{V: 0}}, 0); err == nil {
		t.Error("division by zero not reported")
	}
	if _, err := m.evalConcrete(&ir.Load{Addr: &ir.Const{V: 0}}, 0); err == nil {
		t.Error("NULL load not reported")
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
