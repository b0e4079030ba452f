// Package parser implements a recursive-descent parser for MiniC.
package parser

import (
	"fmt"
	"strconv"

	"dart/internal/ast"
	"dart/internal/lexer"
	"dart/internal/token"
	"dart/internal/types"
)

// Error is a syntax error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList aggregates parse errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// Parse parses a MiniC translation unit.
func Parse(src string) (*ast.File, error) {
	lex := lexer.New(src)
	p := &parser{}
	p.toks = lex.All()
	for _, le := range lex.Errors() {
		p.errs = append(p.errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	f := p.file()
	if len(p.errs) > 0 {
		return f, p.errs
	}
	return f, nil
}

// ParseExpr parses a single expression, for tests and tools.
func ParseExpr(src string) (ast.Expr, error) {
	lex := lexer.New(src)
	p := &parser{toks: lex.All()}
	e := p.expr()
	p.expect(token.EOF)
	if len(p.errs) > 0 {
		return e, p.errs
	}
	return e, nil
}

type parser struct {
	toks []token.Token
	pos  int
	errs ErrorList
}

const maxErrors = 25

func (p *parser) cur() token.Token { return p.toks[p.pos] }
func (p *parser) peek() token.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) < maxErrors {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

// sync skips tokens until a plausible statement/declaration boundary,
// bounding error cascades.
func (p *parser) sync() {
	for !p.at(token.EOF) {
		if p.accept(token.SEMICOLON) {
			return
		}
		if p.at(token.RBRACE) {
			return
		}
		p.next()
	}
}

// ---------------------------------------------------------------- decls

func (p *parser) file() *ast.File {
	f := &ast.File{}
	for !p.at(token.EOF) {
		before := p.pos
		d := p.decl()
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
		if p.pos == before {
			// Guarantee progress on malformed input.
			p.errorf(p.cur().Pos, "unexpected %s at top level", p.cur())
			p.next()
		}
	}
	return f
}

func (p *parser) decl() ast.Decl {
	switch {
	case p.at(token.KwStruct) && p.peek().Kind == token.IDENT && p.peekAfterStructName() == token.LBRACE:
		return p.structDecl()
	case p.at(token.KwExtern):
		return p.externDecl()
	case p.atTypeStart():
		return p.varOrFuncDecl(false)
	case p.at(token.SEMICOLON):
		p.next()
		return nil
	default:
		p.errorf(p.cur().Pos, "expected declaration, found %s", p.cur())
		p.sync()
		return nil
	}
}

// peekAfterStructName reports the token kind after "struct IDENT".
func (p *parser) peekAfterStructName() token.Kind {
	if p.pos+2 < len(p.toks) {
		return p.toks[p.pos+2].Kind
	}
	return token.EOF
}

func (p *parser) atTypeStart() bool {
	switch p.cur().Kind {
	case token.KwInt, token.KwChar, token.KwLong, token.KwUnsigned, token.KwVoid, token.KwStruct:
		return true
	}
	return false
}

func (p *parser) structDecl() ast.Decl {
	pos := p.expect(token.KwStruct).Pos
	name := p.expect(token.IDENT).Lit
	p.expect(token.LBRACE)
	var fields []ast.Param
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		spec := p.typeSpec()
		fname := p.expect(token.IDENT).Lit
		spec = p.arraySuffix(spec)
		fields = append(fields, ast.Param{Name: fname, Spec: spec})
		p.expect(token.SEMICOLON)
		if p.pos == before {
			// Guarantee progress on malformed input.
			p.errorf(p.cur().Pos, "unexpected %s in struct %s", p.cur(), name)
			p.next()
		}
	}
	p.expect(token.RBRACE)
	p.expect(token.SEMICOLON)
	return &ast.StructDecl{Name: name, Fields: fields, TokPos: pos}
}

func (p *parser) externDecl() ast.Decl {
	pos := p.expect(token.KwExtern).Pos
	spec := p.typeSpec()
	name := p.expect(token.IDENT).Lit
	if p.at(token.LPAREN) {
		params := p.paramList()
		p.expect(token.SEMICOLON)
		return &ast.FuncDecl{Name: name, Params: params, Result: spec, Extern: true, TokPos: pos}
	}
	spec = p.arraySuffix(spec)
	p.expect(token.SEMICOLON)
	return &ast.VarDecl{Name: name, Spec: spec, Extern: true, TokPos: pos}
}

func (p *parser) varOrFuncDecl(extern bool) ast.Decl {
	pos := p.cur().Pos
	spec := p.typeSpec()
	name := p.expect(token.IDENT).Lit
	if p.at(token.LPAREN) {
		params := p.paramList()
		fd := &ast.FuncDecl{Name: name, Params: params, Result: spec, Extern: extern, TokPos: pos}
		if p.at(token.LBRACE) {
			fd.Body = p.block()
		} else {
			p.expect(token.SEMICOLON)
		}
		return fd
	}
	spec = p.arraySuffix(spec)
	vd := &ast.VarDecl{Name: name, Spec: spec, Extern: extern, TokPos: pos}
	if p.accept(token.ASSIGN) {
		vd.Init = p.assignExpr()
	}
	p.expect(token.SEMICOLON)
	return vd
}

func (p *parser) paramList() []ast.Param {
	p.expect(token.LPAREN)
	var params []ast.Param
	if p.accept(token.RPAREN) {
		return params
	}
	// Allow a lone "void" parameter list, C style.
	if p.at(token.KwVoid) && p.peek().Kind == token.RPAREN {
		p.next()
		p.expect(token.RPAREN)
		return params
	}
	for {
		spec := p.typeSpec()
		name := ""
		if p.at(token.IDENT) {
			name = p.next().Lit
		}
		spec = p.arraySuffix(spec)
		params = append(params, ast.Param{Name: name, Spec: spec})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return params
}

// ---------------------------------------------------------------- types

// typeSpec parses a base type followed by pointer stars.
func (p *parser) typeSpec() ast.TypeSpec {
	pos := p.cur().Pos
	var spec ast.TypeSpec
	switch p.cur().Kind {
	case token.KwInt:
		p.next()
		spec = &ast.BasicSpec{Kind: types.Int, TokPos: pos}
	case token.KwChar:
		p.next()
		spec = &ast.BasicSpec{Kind: types.Char, TokPos: pos}
	case token.KwLong:
		p.next()
		// Accept "long int" and "long long".
		p.accept(token.KwInt)
		if p.accept(token.KwLong) {
			p.accept(token.KwInt)
		}
		spec = &ast.BasicSpec{Kind: types.Long, TokPos: pos}
	case token.KwUnsigned:
		p.next()
		p.accept(token.KwInt)
		spec = &ast.BasicSpec{Kind: types.UInt, TokPos: pos}
	case token.KwVoid:
		p.next()
		spec = &ast.BasicSpec{Kind: types.Void, TokPos: pos}
	case token.KwStruct:
		p.next()
		name := p.expect(token.IDENT).Lit
		spec = &ast.StructSpec{Name: name, TokPos: pos}
	default:
		p.errorf(pos, "expected type, found %s", p.cur())
		spec = &ast.BasicSpec{Kind: types.Int, TokPos: pos}
	}
	for p.at(token.STAR) {
		starPos := p.next().Pos
		spec = &ast.PointerSpec{Elem: spec, TokPos: starPos}
	}
	return spec
}

// arraySuffix parses zero or more [N] suffixes after a declarator name.
// C's a[2][3] declares an array of 2 arrays of 3, so suffixes nest
// outermost-first.
func (p *parser) arraySuffix(spec ast.TypeSpec) ast.TypeSpec {
	if !p.at(token.LBRACKET) {
		return spec
	}
	pos := p.next().Pos
	length := p.expr()
	p.expect(token.RBRACKET)
	inner := p.arraySuffix(spec)
	return &ast.ArraySpec{Elem: inner, Len: length, TokPos: pos}
}

// ---------------------------------------------------------------- stmts

func (p *parser) block() *ast.Block {
	pos := p.expect(token.LBRACE).Pos
	b := &ast.Block{TokPos: pos}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		b.Stmts = append(b.Stmts, p.stmt())
		if p.pos == before {
			p.next()
		}
	}
	p.expect(token.RBRACE)
	return b
}

func (p *parser) stmt() ast.Stmt {
	pos := p.cur().Pos
	switch {
	case p.at(token.LBRACE):
		return p.block()
	case p.atTypeStart():
		return p.declStmt()
	case p.accept(token.KwIf):
		p.expect(token.LPAREN)
		cond := p.expr()
		p.expect(token.RPAREN)
		then := p.stmt()
		var els ast.Stmt
		if p.accept(token.KwElse) {
			els = p.stmt()
		}
		return &ast.If{Cond: cond, Then: then, Else: els, TokPos: pos}
	case p.accept(token.KwWhile):
		p.expect(token.LPAREN)
		cond := p.expr()
		p.expect(token.RPAREN)
		body := p.stmt()
		return &ast.While{Cond: cond, Body: body, TokPos: pos}
	case p.accept(token.KwDo):
		body := p.stmt()
		p.expect(token.KwWhile)
		p.expect(token.LPAREN)
		cond := p.expr()
		p.expect(token.RPAREN)
		p.expect(token.SEMICOLON)
		return &ast.DoWhile{Body: body, Cond: cond, TokPos: pos}
	case p.accept(token.KwFor):
		return p.forStmt(pos)
	case p.accept(token.KwSwitch):
		return p.switchStmt(pos)
	case p.accept(token.KwReturn):
		r := &ast.Return{TokPos: pos}
		if !p.at(token.SEMICOLON) {
			r.X = p.expr()
		}
		p.expect(token.SEMICOLON)
		return r
	case p.accept(token.KwBreak):
		p.expect(token.SEMICOLON)
		return &ast.Break{TokPos: pos}
	case p.accept(token.KwContinue):
		p.expect(token.SEMICOLON)
		return &ast.Continue{TokPos: pos}
	case p.accept(token.SEMICOLON):
		return &ast.Empty{TokPos: pos}
	case p.at(token.KwGoto):
		p.errorf(pos, "goto is not supported in MiniC; use structured control flow")
		p.sync()
		return &ast.Empty{TokPos: pos}
	default:
		x := p.expr()
		p.expect(token.SEMICOLON)
		return &ast.ExprStmt{X: x, TokPos: pos}
	}
}

func (p *parser) declStmt() ast.Stmt {
	pos := p.cur().Pos
	spec := p.typeSpec()
	name := p.expect(token.IDENT).Lit
	spec = p.arraySuffix(spec)
	d := &ast.DeclStmt{Name: name, Spec: spec, TokPos: pos}
	if p.accept(token.ASSIGN) {
		d.Init = p.assignExpr()
	}
	p.expect(token.SEMICOLON)
	return d
}

// switchStmt parses switch (tag) { case K: ... default: ... } with C's
// fallthrough semantics.  Statements before the first label are
// rejected, as in C.
func (p *parser) switchStmt(pos token.Pos) ast.Stmt {
	p.expect(token.LPAREN)
	tag := p.expr()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	sw := &ast.Switch{Tag: tag, TokPos: pos}
	sawDefault := false
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		casePos := p.cur().Pos
		var c *ast.Case
		switch {
		case p.accept(token.KwCase):
			v := p.condExpr()
			p.expect(token.COLON)
			c = &ast.Case{Value: v, TokPos: casePos}
		case p.accept(token.KwDefault):
			p.expect(token.COLON)
			if sawDefault {
				p.errorf(casePos, "multiple default cases in switch")
			}
			sawDefault = true
			c = &ast.Case{TokPos: casePos}
		default:
			p.errorf(casePos, "expected case or default in switch, found %s", p.cur())
			p.sync()
			continue
		}
		for !p.at(token.KwCase) && !p.at(token.KwDefault) &&
			!p.at(token.RBRACE) && !p.at(token.EOF) {
			before := p.pos
			c.Body = append(c.Body, p.stmt())
			if p.pos == before {
				p.next()
			}
		}
		sw.Cases = append(sw.Cases, c)
	}
	p.expect(token.RBRACE)
	return sw
}

func (p *parser) forStmt(pos token.Pos) ast.Stmt {
	p.expect(token.LPAREN)
	f := &ast.For{TokPos: pos}
	if !p.at(token.SEMICOLON) {
		if p.atTypeStart() {
			// Declaration initializer; declStmt consumes the semicolon.
			f.Init = p.declStmt()
		} else {
			x := p.expr()
			f.Init = &ast.ExprStmt{X: x, TokPos: x.Pos()}
			p.expect(token.SEMICOLON)
		}
	} else {
		p.expect(token.SEMICOLON)
	}
	if !p.at(token.SEMICOLON) {
		f.Cond = p.expr()
	}
	p.expect(token.SEMICOLON)
	if !p.at(token.RPAREN) {
		f.Post = p.expr()
	}
	p.expect(token.RPAREN)
	f.Body = p.stmt()
	return f
}

// ---------------------------------------------------------------- exprs

func (p *parser) expr() ast.Expr { return p.assignExpr() }

func (p *parser) assignExpr() ast.Expr {
	lhs := p.condExpr()
	if p.cur().Kind.IsAssignOp() {
		op := p.next()
		rhs := p.assignExpr()
		return &ast.Assign{Op: op.Kind, Lhs: lhs, Rhs: rhs, TokPos: op.Pos}
	}
	return lhs
}

func (p *parser) condExpr() ast.Expr {
	c := p.binaryExpr(0)
	if p.at(token.QUESTION) {
		pos := p.next().Pos
		then := p.expr()
		p.expect(token.COLON)
		els := p.condExpr()
		return &ast.Cond{C: c, Then: then, Else: els, TokPos: pos}
	}
	return c
}

// binPrec returns the binding power of an infix operator, or -1.
func binPrec(k token.Kind) int {
	switch k {
	case token.LOR:
		return 1
	case token.LAND:
		return 2
	case token.PIPE:
		return 3
	case token.CARET:
		return 4
	case token.AMP:
		return 5
	case token.EQ, token.NEQ:
		return 6
	case token.LT, token.GT, token.LEQ, token.GEQ:
		return 7
	case token.SHL, token.SHR:
		return 8
	case token.PLUS, token.MINUS:
		return 9
	case token.STAR, token.SLASH, token.PERCENT:
		return 10
	}
	return -1
}

func (p *parser) binaryExpr(minPrec int) ast.Expr {
	lhs := p.unaryExpr()
	for {
		prec := binPrec(p.cur().Kind)
		if prec < 0 || prec < minPrec {
			return lhs
		}
		op := p.next()
		rhs := p.binaryExpr(prec + 1)
		lhs = &ast.Binary{Op: op.Kind, X: lhs, Y: rhs, TokPos: op.Pos}
	}
}

func (p *parser) unaryExpr() ast.Expr {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.MINUS, token.NOT, token.TILDE, token.STAR, token.AMP, token.PLUS:
		op := p.next().Kind
		x := p.unaryExpr()
		if op == token.PLUS {
			return x
		}
		return &ast.Unary{Op: op, X: x, TokPos: pos}
	case token.INC, token.DEC:
		op := p.next().Kind
		x := p.unaryExpr()
		return &ast.Unary{Op: op, X: x, TokPos: pos}
	case token.KwSizeof:
		p.next()
		p.expect(token.LPAREN)
		if p.atTypeStart() {
			spec := p.typeSpec()
			p.expect(token.RPAREN)
			return &ast.SizeofType{Of: spec, TokPos: pos}
		}
		x := p.expr()
		p.expect(token.RPAREN)
		return &ast.SizeofExpr{X: x, TokPos: pos}
	case token.LPAREN:
		// Disambiguate cast from parenthesized expression: a cast's
		// parenthesis is immediately followed by a type keyword.
		if isTypeKeyword(p.peek().Kind) {
			p.next() // (
			spec := p.typeSpec()
			p.expect(token.RPAREN)
			x := p.unaryExpr()
			return &ast.Cast{To: spec, X: x, TokPos: pos}
		}
	}
	return p.postfixExpr()
}

func isTypeKeyword(k token.Kind) bool {
	switch k {
	case token.KwInt, token.KwChar, token.KwLong, token.KwUnsigned, token.KwVoid, token.KwStruct:
		return true
	}
	return false
}

func (p *parser) postfixExpr() ast.Expr {
	x := p.primaryExpr()
	for {
		pos := p.cur().Pos
		switch {
		case p.accept(token.LBRACKET):
			idx := p.expr()
			p.expect(token.RBRACKET)
			x = &ast.Index{X: x, I: idx, TokPos: pos}
		case p.accept(token.DOT):
			name := p.expect(token.IDENT).Lit
			x = &ast.Field{X: x, Name: name, TokPos: pos}
		case p.accept(token.ARROW):
			name := p.expect(token.IDENT).Lit
			x = &ast.Field{X: x, Name: name, Arrow: true, TokPos: pos}
		case p.at(token.INC) || p.at(token.DEC):
			op := p.next().Kind
			x = &ast.Postfix{Op: op, X: x, TokPos: pos}
		default:
			return x
		}
	}
}

func (p *parser) primaryExpr() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.IDENT:
		p.next()
		if p.at(token.LPAREN) {
			return p.callExpr(t)
		}
		return &ast.Ident{Name: t.Lit, TokPos: t.Pos}
	case token.INT:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 0, 64)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q", t.Lit)
		}
		return &ast.IntLit{Value: v, TokPos: t.Pos}
	case token.STRING:
		p.next()
		return &ast.StringLit{Value: t.Lit, TokPos: t.Pos}
	case token.KwNull:
		p.next()
		return &ast.NullLit{TokPos: t.Pos}
	case token.LPAREN:
		p.next()
		x := p.expr()
		p.expect(token.RPAREN)
		return x
	default:
		p.errorf(t.Pos, "expected expression, found %s", t)
		p.next()
		return &ast.IntLit{Value: 0, TokPos: t.Pos}
	}
}

func (p *parser) callExpr(fn token.Token) ast.Expr {
	p.expect(token.LPAREN)
	call := &ast.Call{Fun: fn.Lit, TokPos: fn.Pos}
	if !p.accept(token.RPAREN) {
		for {
			call.Args = append(call.Args, p.assignExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
	}
	return call
}
