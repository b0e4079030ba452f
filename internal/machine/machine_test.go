package machine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dart/internal/ir"
	"dart/internal/parser"
	"dart/internal/rng"
	"dart/internal/sema"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// fixedSource supplies symbolic inputs scripted by input key, drawing
// unscripted ones from a fixed stream.
type fixedSource struct {
	scalars  map[string]int64
	pointers map[string]bool
	rand     *rng.R
}

func newFixedSource() *fixedSource {
	return &fixedSource{
		scalars:  map[string]int64{},
		pointers: map[string]bool{},
		rand:     rng.New(99),
	}
}

func (s *fixedSource) ScalarInput(in *Input) int64 {
	if v, ok := s.scalars[in.Key]; ok {
		return v
	}
	b := in.Type.(*types.Basic)
	return types.Truncate(b, s.rand.Bits(b.Bits()))
}

func (s *fixedSource) PointerInput(in *Input) bool {
	if v, ok := s.pointers[in.Key]; ok {
		return v
	}
	return s.rand.Coin()
}

func (s *fixedSource) Symbolic() bool { return true }

func compile(t *testing.T, src string) *ir.Prog {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sem, err := sema.Check(f, StdLibSigs())
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := ir.Compile(sem)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// callInt compiles src, runs fn with the given int arguments, and
// returns the result value (failing the test on abnormal termination).
func callInt(t *testing.T, src, fn string, args ...int64) int64 {
	t.Helper()
	v, rerr := tryCallInt(t, src, fn, args...)
	if rerr != nil {
		t.Fatalf("%s%v: %v", fn, args, rerr)
	}
	return v
}

func tryCallInt(t *testing.T, src, fn string, args ...int64) (int64, *RunError) {
	t.Helper()
	prog := compile(t, src)
	m, err := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls()})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = Value{V: a}
	}
	ret, rerr := m.RunCall(fn, vals)
	return ret.V, rerr
}

func TestArithmetic(t *testing.T) {
	src := `
int calc(int a, int b) {
    return (a + b) * 2 - a / 2 + a % 3;
}
`
	if got := callInt(t, src, "calc", 7, 5); got != (7+5)*2-7/2+7%3 {
		t.Errorf("calc = %d", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
int collatz_steps(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) n = n / 2;
        else n = 3 * n + 1;
        steps++;
    }
    return steps;
}
`
	if got := callInt(t, src, "collatz_steps", 6); got != 8 {
		t.Errorf("collatz_steps(6) = %d, want 8", got)
	}
}

func TestRecursion(t *testing.T) {
	src := `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
`
	if got := callInt(t, src, "fib", 10); got != 55 {
		t.Errorf("fib(10) = %d", got)
	}
}

func TestMutualRecursion(t *testing.T) {
	src := `
int isOdd(int n);
int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
`
	if got := callInt(t, src, "isEven", 10); got != 1 {
		t.Errorf("isEven(10) = %d", got)
	}
	if got := callInt(t, src, "isOdd", 7); got != 1 {
		t.Errorf("isOdd(7) = %d", got)
	}
}

func TestGlobalsPersistAcrossCalls(t *testing.T) {
	src := `
int counter = 100;
int bump(int by) { counter += by; return counter; }
`
	prog := compile(t, src)
	m, err := New(Config{Prog: prog, Inputs: newFixedSource()})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.RunCall("bump", []Value{{V: 1}}); v.V != 101 {
		t.Errorf("first bump = %d", v.V)
	}
	if v, _ := m.RunCall("bump", []Value{{V: 2}}); v.V != 103 {
		t.Errorf("second bump = %d", v.V)
	}
}

func TestHeapAndStructs(t *testing.T) {
	src := `
struct node { int v; struct node *next; };
int sumlist(int a, int b) {
    struct node *first = (struct node *)malloc(sizeof(struct node));
    struct node *second = (struct node *)malloc(sizeof(struct node));
    first->v = a;
    first->next = second;
    second->v = b;
    second->next = NULL;
    int total = 0;
    struct node *p = first;
    while (p != NULL) {
        total += p->v;
        p = p->next;
    }
    free(first);
    free(second);
    return total;
}
`
	if got := callInt(t, src, "sumlist", 4, 38); got != 42 {
		t.Errorf("sumlist = %d", got)
	}
}

func TestArrays(t *testing.T) {
	src := `
int table[5];
int fill_and_sum(int n) {
    int i;
    for (i = 0; i < 5; i++) table[i] = i * n;
    int s = 0;
    for (i = 0; i < 5; i++) s += table[i];
    return s;
}
`
	if got := callInt(t, src, "fill_and_sum", 2); got != 2*(0+1+2+3+4) {
		t.Errorf("fill_and_sum = %d", got)
	}
}

func TestPointerCastAliasing(t *testing.T) {
	// The Sec. 2.5 pattern at machine level: a char* alias writes a
	// struct field.
	src := `
struct foo { int i; char c; };
int poke() {
    struct foo *a = (struct foo *)malloc(sizeof(struct foo));
    a->c = 0;
    *((char *)a + sizeof(int)) = 42;
    return a->c;
}
`
	if got := callInt(t, src, "poke"); got != 42 {
		t.Errorf("aliased write lost: %d", got)
	}
}

func TestCharTruncation(t *testing.T) {
	src := `
int narrow(int v) {
    char c = v;
    return c;
}
`
	if got := callInt(t, src, "narrow", 300); got != 44 {
		t.Errorf("narrow(300) = %d, want 44", got)
	}
	if got := callInt(t, src, "narrow", -1); got != -1 {
		t.Errorf("narrow(-1) = %d, want -1", got)
	}
}

func TestIntWraparound(t *testing.T) {
	src := `int inc(int v) { return v + 1; }`
	if got := callInt(t, src, "inc", 2147483647); got != -2147483648 {
		t.Errorf("INT_MAX + 1 = %d, want wraparound", got)
	}
}

func TestCrashes(t *testing.T) {
	cases := []struct {
		name, src, fn  string
		args           []int64
		expectOutcome  Outcome
		expectContains string
	}{
		{
			name: "null deref",
			src:  `int f() { int *p = NULL; return *p; }`, fn: "f",
			expectOutcome: Crashed, expectContains: "NULL pointer",
		},
		{
			name: "div by zero",
			src:  `int f(int a) { return 10 / a; }`, fn: "f", args: []int64{0},
			expectOutcome: Crashed, expectContains: "division by zero",
		},
		{
			name: "mod by zero",
			src:  `int f(int a) { return 10 % a; }`, fn: "f", args: []int64{0},
			expectOutcome: Crashed, expectContains: "division by zero",
		},
		{
			name: "heap overflow",
			src:  `int f() { char *p = malloc(2); return p[5]; }`, fn: "f",
			expectOutcome: Crashed, expectContains: "invalid read",
		},
		{
			name: "use after free",
			src:  `int f() { char *p = malloc(1); free(p); return *p; }`, fn: "f",
			expectOutcome: Crashed, expectContains: "invalid read",
		},
		{
			name: "double free",
			src:  `int f() { char *p = malloc(1); free(p); free(p); return 0; }`, fn: "f",
			expectOutcome: Crashed, expectContains: "invalid free",
		},
		{
			name: "negative malloc",
			src:  `int f(int n) { char *p = malloc(n); return 0; }`, fn: "f", args: []int64{-5},
			expectOutcome: Crashed, expectContains: "negative",
		},
		{
			name: "infinite recursion",
			src:  `int f(int n) { return f(n + 1); }`, fn: "f", args: []int64{0},
			expectOutcome: Crashed, expectContains: "stack overflow",
		},
		{
			name: "abort",
			src:  `int f() { abort(); return 0; }`, fn: "f",
			expectOutcome: Aborted, expectContains: "abort",
		},
		{
			name: "assert",
			src:  `int f(int x) { assert(x > 0, "positive"); return x; }`, fn: "f", args: []int64{-1},
			expectOutcome: Aborted, expectContains: "positive",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, rerr := tryCallInt(t, c.src, c.fn, c.args...)
			if rerr == nil {
				t.Fatal("expected abnormal termination")
			}
			if rerr.Outcome != c.expectOutcome {
				t.Errorf("outcome %v, want %v (%v)", rerr.Outcome, c.expectOutcome, rerr)
			}
			if !strings.Contains(rerr.Msg, c.expectContains) {
				t.Errorf("message %q lacks %q", rerr.Msg, c.expectContains)
			}
		})
	}
}

func TestStepLimit(t *testing.T) {
	prog := compile(t, `int spin() { while (1) { } return 0; }`)
	m, err := New(Config{Prog: prog, Inputs: newFixedSource(), MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := m.RunCall("spin", nil)
	if rerr == nil || rerr.Outcome != StepLimit {
		t.Fatalf("expected step-limit, got %v", rerr)
	}
}

func TestHaltOutcome(t *testing.T) {
	prog := compile(t, `int f() { halt(); return 1; }`)
	m, _ := New(Config{Prog: prog, Inputs: newFixedSource()})
	_, rerr := m.RunCall("f", nil)
	if rerr == nil || rerr.Outcome != HaltOK {
		t.Fatalf("expected halt, got %v", rerr)
	}
}

func TestBranchRecords(t *testing.T) {
	prog := compile(t, `
int f(int x) {
    if (x > 5) return 1;
    if (x == 3) return 2;
    return 0;
}
`)
	m, _ := New(Config{Prog: prog, Inputs: newFixedSource()})
	xVar := symbolic.Var(0)
	_, rerr := m.RunCall("f", []Value{{V: 3, Sym: symbolic.NewVar(xVar)}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(m.Branches) != 2 {
		t.Fatalf("branches: %d", len(m.Branches))
	}
	b0 := m.Branches[0]
	if b0.Taken || !b0.HasPred {
		t.Errorf("first branch: %+v", b0)
	}
	// x > 5 not taken  ⇒  constraint x - 5 <= 0.
	if b0.Pred.Rel != symbolic.LE || b0.Pred.L.Coeff(xVar) != 1 || b0.Pred.L.Const != -5 {
		t.Errorf("first predicate: %v", b0.Pred)
	}
	b1 := m.Branches[1]
	if !b1.Taken || b1.Pred.Rel != symbolic.EQ {
		t.Errorf("second branch: %+v taken=%v", b1.Pred, b1.Taken)
	}
}

func TestInterproceduralSymbolic(t *testing.T) {
	// The paper's f(x) = 2*x: the symbolic expression must flow through
	// the call and produce the constraint 2x - (x + 10) == 0.
	prog := compile(t, `
int f(int x) { return 2 * x; }
int h(int x) {
    if (f(x) == x + 10) return 1;
    return 0;
}
`)
	m, _ := New(Config{Prog: prog, Inputs: newFixedSource()})
	xVar := symbolic.Var(0)
	_, rerr := m.RunCall("h", []Value{{V: 7, Sym: symbolic.NewVar(xVar)}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(m.Branches) != 1 || !m.Branches[0].HasPred {
		t.Fatalf("branches: %+v", m.Branches)
	}
	p := m.Branches[0].Pred
	// Not taken: 2x - x - 10 != 0, i.e. x - 10 != 0.
	if p.Rel != symbolic.NE || p.L.Coeff(xVar) != 1 || p.L.Const != -10 {
		t.Errorf("predicate: %v", p)
	}
}

func TestNonlinearFallbackFlags(t *testing.T) {
	prog := compile(t, `
int f(int x) {
    if (x * x > 4) return 1;
    return 0;
}
`)
	m, _ := New(Config{Prog: prog, Inputs: newFixedSource()})
	_, rerr := m.RunCall("f", []Value{{V: 3, Sym: symbolic.NewVar(0)}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if m.AllLinear() {
		t.Error("all_linear should be cleared by x*x")
	}
	if m.Branches[0].HasPred {
		t.Error("non-linear branch should have no predicate")
	}
}

func TestInputDependentDerefFlag(t *testing.T) {
	prog := compile(t, `
int table[4];
int f(int i) {
    if (table[i] == 7) return 1;
    return 0;
}
`)
	m, _ := New(Config{Prog: prog, Inputs: newFixedSource()})
	_, rerr := m.RunCall("f", []Value{{V: 2, Sym: symbolic.NewVar(0)}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if m.AllLocsDefinite() {
		t.Error("all_locs_definite should be cleared by an input-indexed load")
	}
}

func TestLibraryBlackBoxFlag(t *testing.T) {
	prog := compile(t, `
int f(int x) {
    if (mix(x, 1) > 0) return 1;
    return 0;
}
`)
	m, _ := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls()})
	_, rerr := m.RunCall("f", []Value{{V: 3, Sym: symbolic.NewVar(0)}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if m.AllLinear() {
		t.Error("library call on symbolic input should clear all_linear")
	}
}

func TestShlByConstantStaysLinear(t *testing.T) {
	prog := compile(t, `
int f(int x) {
    if ((x << 2) == 20) return 1;
    return 0;
}
`)
	m, _ := New(Config{Prog: prog, Inputs: newFixedSource()})
	_, rerr := m.RunCall("f", []Value{{V: 5, Sym: symbolic.NewVar(0)}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !m.AllLinear() {
		t.Error("x << 2 is scaling by 4 and should stay linear")
	}
	p := m.Branches[0].Pred
	if !m.Branches[0].HasPred || p.L.Coeff(0) != 4 {
		t.Errorf("predicate: %v", p)
	}
}

func TestRandomInitStructTree(t *testing.T) {
	prog := compile(t, `
struct inner { int a; char b; };
struct outer { int x; struct inner in; int arr[2]; struct inner *p; };
int f(struct outer *o) { return 0; }
`)
	src := newFixedSource()
	src.pointers["top"] = true
	src.pointers["top.*.p"] = true
	src.scalars["top.*.x"] = 11
	src.scalars["top.*.in.a"] = 22
	src.scalars["top.*.arr[1]"] = 33
	src.scalars["top.*.p.*.a"] = 44

	m, err := New(Config{Prog: prog, Inputs: src})
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := m.Mem().Alloc(1)
	if err := m.RandomInit(cell, m.trie.Root("top", mustPtrType(t, prog, "outer"))); err != nil {
		t.Fatal(err)
	}
	base, _, _ := m.Mem().Load(cell)
	if base == 0 {
		t.Fatal("pointer decision ignored")
	}
	if v, _, _ := m.Mem().Load(base + 0); v != 11 {
		t.Errorf("x = %d", v)
	}
	if v, _, _ := m.Mem().Load(base + 1); v != 22 {
		t.Errorf("in.a = %d", v)
	}
	if v, _, _ := m.Mem().Load(base + 4); v != 33 {
		t.Errorf("arr[1] = %d", v)
	}
	p, _, _ := m.Mem().Load(base + 5)
	if p == 0 {
		t.Fatal("nested pointer decision ignored")
	}
	if v, _, _ := m.Mem().Load(p); v != 44 {
		t.Errorf("p->a = %d", v)
	}
	// Every initialized scalar cell must carry its symbolic variable.
	if _, sym, _ := m.Mem().Load(base + 0); sym == nil {
		t.Error("no symbolic shadow for struct field input")
	}
}

func mustPtrType(t *testing.T, prog *ir.Prog, name string) types.Type {
	t.Helper()
	st, ok := prog.Structs[name]
	if !ok {
		t.Fatalf("no struct %s", name)
	}
	return &types.Pointer{Elem: st}
}

func TestExternalFunctionFreshInputs(t *testing.T) {
	prog := compile(t, `
extern int sensor();
int f() { return sensor() + sensor(); }
`)
	src := newFixedSource()
	src.scalars["ext:sensor#0"] = 10
	src.scalars["ext:sensor#1"] = 32
	m, _ := New(Config{Prog: prog, Inputs: src})
	v, rerr := m.RunCall("f", nil)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if v.V != 42 {
		t.Errorf("sum of external inputs = %d, want 42", v.V)
	}
}

func TestExternGlobalIsInput(t *testing.T) {
	prog := compile(t, `
extern int config;
int f() { return config; }
`)
	src := newFixedSource()
	src.scalars["g:config"] = 77
	m, _ := New(Config{Prog: prog, Inputs: src})
	v, rerr := m.RunCall("f", nil)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if v.V != 77 {
		t.Errorf("config = %d", v.V)
	}
}

// TestRandomInitNestedKeys covers the input paths the struct tree does
// not: an element of a 2-D array and a field behind the struct pointer an
// external function returns.  Each scripted key reaches its cell, and the
// trie names each input by exactly that key.
func TestRandomInitNestedKeys(t *testing.T) {
	prog := compile(t, `
struct s { int x; };
extern int a[2][3];
extern struct s *f();
int top() {
    struct s *p = f();
    if (p == 0) return -1;
    return a[1][0] * 100 + p->x;
}
`)
	src := newFixedSource()
	src.scalars["g:a[1][0]"] = 7
	src.pointers["ext:f#0"] = true
	src.scalars["ext:f#0.*.x"] = 42
	m, err := New(Config{Prog: prog, Inputs: src})
	if err != nil {
		t.Fatal(err)
	}
	v, rerr := m.RunCall("top", nil)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if v.V != 742 {
		t.Errorf("top() = %d, want 742 (a[1][0] = 7, f()->x = 42)", v.V)
	}
	for _, key := range []string{"g:a[1][0]", "ext:f#0", "ext:f#0.*.x"} {
		in, ok := m.trie.Lookup(key)
		if !ok || in.Key != key || in.Var < 0 {
			t.Errorf("input %q not interned as a leaf: %+v", key, in)
		}
	}
	if in, _ := m.trie.Lookup("ext:f#0.*.x"); in.Depth != 1 {
		t.Errorf("ext:f#0.*.x depth = %d, want 1", in.Depth)
	}
}

func TestDecisionRecords(t *testing.T) {
	prog := compile(t, `
struct s { int v; };
int f(struct s *p) { return p->v; }
`)
	src := newFixedSource()
	src.pointers["arg"] = true
	m, _ := New(Config{Prog: prog, Inputs: src, ShapeSearch: true})
	cell, _ := m.Mem().Alloc(1)
	if err := m.RandomInit(cell, m.trie.Root("arg", mustPtrType(t, prog, "s"))); err != nil {
		t.Fatal(err)
	}
	v, sym, _ := m.Mem().Load(cell)
	if _, rerr := m.RunCall("f", []Value{{V: v, Sym: sym}}); rerr != nil {
		t.Fatal(rerr)
	}
	var decisions int
	for _, b := range m.Branches {
		if b.Decision {
			decisions++
			if !b.Taken || b.Pred.Rel != symbolic.NE {
				t.Errorf("allocated pointer decision: %+v", b)
			}
		}
	}
	if decisions != 1 {
		t.Errorf("decision records = %d, want 1 (deduplicated)", decisions)
	}

	// A pointer parameter read first, then a scalar input, then a
	// pointer an extern call returns mid-run.  Once p is decided no
	// pointer input awaits a decision until the call's RandomInit re-arms
	// the count; the pointer field behind the extern pointer is never
	// read and gets no record.
	prog = compile(t, `
struct n { int v; struct n *next; };
extern struct n *ext();
int g(int *p, int x) {
    int r = 0;
    if (p != 0) r = 1;
    if (x > 5) r = r + 2;
    if (p != 0) r = r + 4;
    struct n *q = ext();
    if (q != 0) r = r + q->v;
    return r;
}
`)
	for _, code := range []*Compiled{nil, Compile(prog)} {
		src := newFixedSource()
		src.pointers["p"] = true
		src.pointers["ext:ext#0"] = true
		m, _ := New(Config{Prog: prog, Inputs: src, ShapeSearch: true, Code: code})
		args := make([]Value, 2)
		for i, key := range []string{"p", "x"} {
			cell, _ := m.Mem().Alloc(1)
			if err := m.RandomInit(cell, m.trie.Root(key, prog.Funcs["g"].Params[i].Type)); err != nil {
				t.Fatal(err)
			}
			args[i].V, args[i].Sym, _ = m.Mem().Load(cell)
		}
		if _, rerr := m.RunCall("g", args); rerr != nil {
			t.Fatal(rerr)
		}
		if in, ok := m.trie.Lookup("ext:ext#0.*.next"); !ok || in.Var < 0 {
			t.Fatal("the unread pointer field is not an input of the run")
		}
		var got []string
		for _, b := range m.Branches {
			if !b.Decision {
				got = append(got, "branch")
				continue
			}
			for v := range b.Pred.L.Coeffs {
				got = append(got, fmt.Sprintf("decide %s taken=%v", m.trie.Leaves()[v].Key, b.Taken))
			}
		}
		want := []string{"decide p taken=true", "branch", "branch", "branch", "decide ext:ext#0 taken=true", "branch"}
		if !slices.Equal(got, want) {
			t.Errorf("compiled=%v: branch records %q, want %q", code != nil, got, want)
		}
	}
}

func TestNoDecisionRecordsWhenDisabled(t *testing.T) {
	prog := compile(t, `
struct s { int v; };
int f(struct s *p) { if (p != NULL) return p->v; return 0; }
`)
	src := newFixedSource()
	src.pointers["arg"] = true
	m, _ := New(Config{Prog: prog, Inputs: src, ShapeSearch: false})
	cell, _ := m.Mem().Alloc(1)
	_ = m.RandomInit(cell, m.trie.Root("arg", mustPtrType(t, prog, "s")))
	v, sym, _ := m.Mem().Load(cell)
	if _, rerr := m.RunCall("f", []Value{{V: v, Sym: sym}}); rerr != nil {
		t.Fatal(rerr)
	}
	for _, b := range m.Branches {
		if b.Decision {
			t.Fatal("decision record emitted with ShapeSearch off")
		}
	}
}

func TestStdLibFunctions(t *testing.T) {
	src := `
int f(int a, int b) {
    int r = 0;
    r += abs(a - b);
    r += min(a, b) * 1000;
    r += max(a, b) * 100000;
    return r;
}
`
	if got := callInt(t, src, "f", 3, 8); got != 5+3*1000+8*100000 {
		t.Errorf("stdlib composition = %d", got)
	}
}

func TestMemFunctions(t *testing.T) {
	src := `
int f() {
    char *a = malloc(8);
    char *b = malloc(8);
    memset(a, 7, 8);
    memcpy(b, a, 8);
    return b[0] + b[7];
}
`
	if got := callInt(t, src, "f"); got != 14 {
		t.Errorf("memset/memcpy = %d", got)
	}
}

func TestStrFunctions(t *testing.T) {
	src := `
int f() {
    char *s = malloc(4);
    s[0] = 'h'; s[1] = 'i'; s[2] = 0;
    char *r = malloc(4);
    r[0] = 'h'; r[1] = 'i'; r[2] = 0;
    if (strcmp(s, r) != 0) return -1;
    r[1] = 'o';
    if (strcmp(s, r) < 0) return strlen(s);
    return -2;
}
`
	if got := callInt(t, src, "f"); got != 2 {
		t.Errorf("strlen/strcmp = %d", got)
	}
}

func TestAllocaLimit(t *testing.T) {
	src := `
int f(int n) {
    char *p = alloca(n);
    if (p == NULL) return -1;
    p[0] = 1;
    return 1;
}
`
	if got := callInt(t, src, "f", 100); got != 1 {
		t.Errorf("small alloca = %d", got)
	}
	if got := callInt(t, src, "f", AllocaLimit+1); got != -1 {
		t.Errorf("oversized alloca = %d, want -1", got)
	}
	if got := callInt(t, src, "f", 0); got != -1 {
		t.Errorf("alloca(0) = %d, want -1", got)
	}
}

func TestFrameSymbolsClearedOnReturn(t *testing.T) {
	// A stale symbolic shadow from a popped frame must not taint a later
	// frame at the same address.
	prog := compile(t, `
int id(int x) { return x; }
int probe(int x) {
    int a = id(x);
    int b = id(7);
    return b;
}
`)
	m, _ := New(Config{Prog: prog, Inputs: newFixedSource()})
	v, rerr := m.RunCall("probe", []Value{{V: 3, Sym: symbolic.NewVar(0)}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if v.V != 7 {
		t.Fatalf("probe = %d", v.V)
	}
	if v.Sym != nil && !v.Sym.IsConst() {
		t.Errorf("constant result carries symbolic taint: %v", v.Sym)
	}
}

func TestSwitchSemantics(t *testing.T) {
	src := `
int classify(int x) {
    int r = 0;
    switch (x) {
    case 1:
        r = 10;
        break;
    case 2:
        r = 20;       /* falls through */
    case 3:
        r = r + 30;
        break;
    default:
        r = -1;
    }
    return r;
}
`
	cases := map[int64]int64{1: 10, 2: 50, 3: 30, 99: -1, 0: -1}
	for in, want := range cases {
		if got := callInt(t, src, "classify", in); got != want {
			t.Errorf("classify(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSwitchInsideLoop(t *testing.T) {
	// continue inside a switch must bind to the loop, break to the switch.
	src := `
int count(int n) {
    int total = 0;
    for (int i = 0; i < n; i++) {
        switch (i % 3) {
        case 0:
            continue;
        case 1:
            total += 1;
            break;
        default:
            total += 100;
        }
        total += 1000;
    }
    return total;
}
`
	// i: 0 c0(skip), 1 c1(+1+1000), 2 def(+100+1000), 3 c0, 4 c1, 5 def, 6 c0
	if got := callInt(t, src, "count", 7); got != 2*(1+1000)+2*(100+1000) {
		t.Errorf("count(7) = %d", got)
	}
}

func TestSwitchConstantTag(t *testing.T) {
	src := `
int pick() {
    switch (2) {
    case 1: return 100;
    case 2: return 200;
    }
    return 0;
}
`
	if got := callInt(t, src, "pick"); got != 200 {
		t.Errorf("pick() = %d", got)
	}
}

func TestSwitchNoDefaultFallsPast(t *testing.T) {
	src := `
int f(int x) {
    switch (x) {
    case 5: return 1;
    }
    return 2;
}
`
	if got := callInt(t, src, "f", 6); got != 2 {
		t.Errorf("f(6) = %d", got)
	}
}
