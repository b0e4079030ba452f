package parser

import (
	"strings"
	"testing"

	"dart/internal/ast"
)

func parseOK(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return f
}

func exprString(t *testing.T, src string) string {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return ast.PrintExpr(e)
}

func TestPrecedence(t *testing.T) {
	cases := map[string]string{
		"1 + 2 * 3":         "1 + (2 * 3)",
		"(1 + 2) * 3":       "(1 + 2) * 3",
		"a == b && c != d":  "(a == b) && (c != d)",
		"a || b && c":       "a || (b && c)",
		"a & b | c ^ d":     "(a & b) | (c ^ d)",
		"x << 2 + 1":        "x << (2 + 1)",
		"-x * y":            "(-x) * y",
		"!a && b":           "(!a) && b",
		"a < b == c":        "(a < b) == c",
		"a ? b : c ? d : e": "a ? b : (c ? d : e)",
	}
	for src, want := range cases {
		if got := exprString(t, src); got != want {
			t.Errorf("%q parsed as %q, want %q", src, got, want)
		}
	}
}

func TestAssignRightAssociative(t *testing.T) {
	e, err := ParseExpr("x = y = z")
	if err != nil {
		t.Fatal(err)
	}
	outer, ok := e.(*ast.Assign)
	if !ok {
		t.Fatalf("parsed as %T", e)
	}
	if _, ok := outer.Rhs.(*ast.Assign); !ok {
		t.Fatalf("rhs is %T, want nested assignment", outer.Rhs)
	}
}

func TestPostfixChains(t *testing.T) {
	cases := map[string]string{
		"a->b->c":        "a->b->c",
		"a.b.c":          "a.b.c",
		"a[1][2]":        "a[1][2]",
		"f(x)[3].g":      "f(x)[3].g",
		"*p++":           "*(p++)",
		"(*p)++":         "(*p)++",
		"&a[0]":          "&a[0]",
		"p->next->value": "p->next->value",
		"sizeof(int)":    "sizeof(int)",
		"sizeof(x + 1)":  "sizeof(x + 1)",
	}
	for src, want := range cases {
		if got := exprString(t, src); got != want {
			t.Errorf("%q parsed as %q, want %q", src, got, want)
		}
	}
}

func TestCastVsParen(t *testing.T) {
	if got := exprString(t, "(char *)a + 1"); got != "((char*)a) + 1" {
		t.Errorf("cast parse: %q", got)
	}
	if got := exprString(t, "(a) + 1"); got != "a + 1" {
		t.Errorf("paren parse: %q", got)
	}
	if got := exprString(t, "(struct foo *)p"); got != "(struct foo*)p" {
		t.Errorf("struct cast parse: %q", got)
	}
}

func TestDeclarations(t *testing.T) {
	f := parseOK(t, `
struct node { int v; struct node *next; };
extern int env;
extern int getmsg();
int g = 42;
int table[4][2];
int fn(int a, char *b);
int fn(int a, char *b) { return a; }
void nop(void) { }
`)
	if len(f.Decls) != 8 {
		t.Fatalf("got %d decls", len(f.Decls))
	}
	sd, ok := f.Decls[0].(*ast.StructDecl)
	if !ok || sd.Name != "node" || len(sd.Fields) != 2 {
		t.Fatalf("struct decl: %+v", f.Decls[0])
	}
	ev, ok := f.Decls[1].(*ast.VarDecl)
	if !ok || !ev.Extern {
		t.Fatalf("extern var: %+v", f.Decls[1])
	}
	ef, ok := f.Decls[2].(*ast.FuncDecl)
	if !ok || !ef.Extern || ef.Body != nil {
		t.Fatalf("extern func: %+v", f.Decls[2])
	}
	tbl, ok := f.Decls[4].(*ast.VarDecl)
	if !ok {
		t.Fatalf("array global: %+v", f.Decls[4])
	}
	outer, ok := tbl.Spec.(*ast.ArraySpec)
	if !ok {
		t.Fatalf("array spec: %T", tbl.Spec)
	}
	if _, ok := outer.Elem.(*ast.ArraySpec); !ok {
		t.Fatalf("inner array spec: %T", outer.Elem)
	}
	proto, ok := f.Decls[5].(*ast.FuncDecl)
	if !ok || proto.Body != nil || proto.Extern {
		t.Fatalf("prototype: %+v", f.Decls[5])
	}
	def, ok := f.Decls[6].(*ast.FuncDecl)
	if !ok || def.Body == nil {
		t.Fatalf("definition: %+v", f.Decls[6])
	}
	void, ok := f.Decls[7].(*ast.FuncDecl)
	if !ok || len(void.Params) != 0 {
		t.Fatalf("void param list: %+v", f.Decls[7])
	}
}

func TestStatements(t *testing.T) {
	f := parseOK(t, `
int fn(int n) {
    int i;
    int total = 0;
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) continue;
        total += i;
    }
    while (total > 100) total /= 2;
    do { total--; } while (total > 50);
    for (;;) break;
    ;
    return total;
}
`)
	fd := f.Decls[0].(*ast.FuncDecl)
	if len(fd.Body.Stmts) != 8 {
		t.Fatalf("got %d statements:\n%s", len(fd.Body.Stmts), ast.Print(f))
	}
	if _, ok := fd.Body.Stmts[2].(*ast.For); !ok {
		t.Errorf("statement 2 is %T, want For", fd.Body.Stmts[2])
	}
	if _, ok := fd.Body.Stmts[4].(*ast.DoWhile); !ok {
		t.Errorf("statement 4 is %T, want DoWhile", fd.Body.Stmts[4])
	}
	inf := fd.Body.Stmts[5].(*ast.For)
	if inf.Init != nil || inf.Cond != nil || inf.Post != nil {
		t.Error("for(;;) should have empty clauses")
	}
}

func TestDanglingElse(t *testing.T) {
	f := parseOK(t, `
int fn(int a, int b) {
    if (a)
        if (b) return 1;
        else return 2;
    return 3;
}
`)
	fd := f.Decls[0].(*ast.FuncDecl)
	outer := fd.Body.Stmts[0].(*ast.If)
	if outer.Else != nil {
		t.Fatal("else bound to the outer if")
	}
	inner := outer.Then.(*ast.If)
	if inner.Else == nil {
		t.Fatal("else not bound to the inner if")
	}
}

func TestForDeclInit(t *testing.T) {
	f := parseOK(t, `int fn() { for (int i = 0; i < 3; i++) { } return 0; }`)
	fd := f.Decls[0].(*ast.FuncDecl)
	loop := fd.Body.Stmts[0].(*ast.For)
	if _, ok := loop.Init.(*ast.DeclStmt); !ok {
		t.Fatalf("for init is %T, want DeclStmt", loop.Init)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		"int f( { }",
		"int f() { return 1 }",
		"int f() { if x) return 1; }",
		"struct s { int };",
		"struct s { < };",
		"int f() { goto end; }",
		"int 3x;",
		"}",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected a parse error", src)
		}
	}
}

func TestErrorsDoNotCascade(t *testing.T) {
	_, err := Parse("int f() { $$$ $$$ $$$ }")
	if err == nil {
		t.Fatal("expected errors")
	}
	if list, ok := err.(ErrorList); ok && len(list) > maxErrors {
		t.Errorf("error list grew past the cap: %d", len(list))
	}
}

func TestPrintRoundTrip(t *testing.T) {
	src := `
struct pair { int a; int b; };
int sum(struct pair *p) {
    if (p == NULL) return 0;
    return p->a + p->b;
}
`
	f1 := parseOK(t, src)
	printed := ast.Print(f1)
	f2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of printed source failed: %v\n%s", err, printed)
	}
	if ast.Print(f2) != printed {
		t.Errorf("print not stable:\n%s\nvs\n%s", printed, ast.Print(f2))
	}
}

func TestLongTypeSpellings(t *testing.T) {
	parseOK(t, "long a; long int b; long long c; unsigned d; unsigned int e;")
}

func TestStringArg(t *testing.T) {
	f := parseOK(t, `int f(int x) { assert(x > 0, "must be positive"); return x; }`)
	fd := f.Decls[0].(*ast.FuncDecl)
	call := fd.Body.Stmts[0].(*ast.ExprStmt).X.(*ast.Call)
	if len(call.Args) != 2 {
		t.Fatalf("assert args: %d", len(call.Args))
	}
	if s, ok := call.Args[1].(*ast.StringLit); !ok || !strings.Contains(s.Value, "positive") {
		t.Fatalf("message arg: %+v", call.Args[1])
	}
}

func TestSwitchParses(t *testing.T) {
	f := parseOK(t, `
int f(int x) {
    switch (x + 1) {
    case 1:
        return 10;
    case 'a':
        x++;
        break;
    default:
        return -1;
    }
    return x;
}
`)
	fd := f.Decls[0].(*ast.FuncDecl)
	sw, ok := fd.Body.Stmts[0].(*ast.Switch)
	if !ok {
		t.Fatalf("statement is %T", fd.Body.Stmts[0])
	}
	if len(sw.Cases) != 3 {
		t.Fatalf("cases: %d", len(sw.Cases))
	}
	if sw.Cases[2].Value != nil {
		t.Error("default case should have nil value")
	}
	if len(sw.Cases[1].Body) != 2 {
		t.Errorf("case 'a' body: %d statements", len(sw.Cases[1].Body))
	}
	// Printer round-trip.
	printed := ast.Print(f)
	if _, err := Parse(printed); err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, printed)
	}
}

func TestSwitchErrors(t *testing.T) {
	for _, src := range []string{
		"int f(int x) { switch (x) { x = 1; } return 0; }",                // stmt before label
		"int f(int x) { switch (x) { default: ; default: ; } return 0; }", // two defaults
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected a parse error", src)
		}
	}
}
