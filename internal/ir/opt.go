package ir

// Optimize performs conservative RAM-machine optimizations on every
// function: constant folding (by the operator definitions the machine
// executes, eval.go, so folding cannot change observable behaviour),
// algebraic identities, folding of constant conditionals, jump
// threading, and unreachable-code removal.  Branch sites are renumbered
// densely afterwards so coverage totals reflect the branches that still
// exist.
//
// Optimization helps the directed search twice over: constant branches
// disappear instead of wasting stack entries the search can never flip,
// and shorter straight-line code cuts per-run interpretation cost.
func Optimize(p *Prog) {
	for _, name := range p.FuncOrder {
		f := p.Funcs[name]
		optimizeFunc(f)
	}
	renumberSites(p)
}

func optimizeFunc(f *Func) {
	for _, ins := range f.Code {
		foldInstr(ins)
	}
	foldBranches(f)
	threadJumps(f)
	removeUnreachable(f)
}

// ---------------------------------------------------------------- fold

// foldInstr folds the expressions of one instruction in place.
func foldInstr(ins Instr) {
	switch ins := ins.(type) {
	case *Assign:
		ins.Dst = foldExpr(ins.Dst)
		ins.Src = foldExpr(ins.Src)
	case *IfGoto:
		ins.Cond = foldExpr(ins.Cond)
	case *Call:
		for i := range ins.Args {
			ins.Args[i] = foldExpr(ins.Args[i])
		}
		if ins.Dst != nil {
			ins.Dst = foldExpr(ins.Dst)
		}
	case *CallLib:
		for i := range ins.Args {
			ins.Args[i] = foldExpr(ins.Args[i])
		}
		if ins.Dst != nil {
			ins.Dst = foldExpr(ins.Dst)
		}
	case *CallExt:
		if ins.Dst != nil {
			ins.Dst = foldExpr(ins.Dst)
		}
	case *Ret:
		if ins.Val != nil {
			ins.Val = foldExpr(ins.Val)
		}
	case *Alloc:
		ins.Dst = foldExpr(ins.Dst)
		ins.Size = foldExpr(ins.Size)
	case *Free:
		ins.Ptr = foldExpr(ins.Ptr)
	}
}

// foldExpr folds constants bottom-up with the operators' one
// definition (eval.go), so a folded constant is the value execution
// would compute.  An expression whose evaluation faults, such as
// division or modulus by a constant zero, is left unfolded so the fault
// still occurs at run time.
func foldExpr(e Expr) Expr {
	switch e := e.(type) {
	case *Load:
		e.Addr = foldExpr(e.Addr)
		return e
	case *Un:
		e.A = foldExpr(e.A)
		if a, ok := e.A.(*Const); ok {
			if v, err := e.Op.EvalUnary(a.V, e.Ty); err == nil {
				return &Const{V: v}
			}
		}
		return e
	case *Bin:
		e.A = foldExpr(e.A)
		e.B = foldExpr(e.B)
		a, aok := e.A.(*Const)
		b, bok := e.B.(*Const)
		if aok && bok {
			if v, err := e.Op.Eval(a.V, b.V, e.Ty); err == nil {
				return &Const{V: v}
			}
			return e // a fault (x/0) stays, to occur at run time
		}
		return foldIdentity(e, a, aok, b, bok)
	}
	return e
}

// foldIdentity applies x+0, 0+x, x-0, x*1, 1*x, x*0, 0*x, x<<0, x|0,
// x&0 style identities.  Multiplication by zero is safe because IR
// expressions are side-effect-free.
func foldIdentity(e *Bin, a *Const, aok bool, b *Const, bok bool) Expr {
	switch e.Op {
	case Add:
		if bok && b.V == 0 {
			return e.A
		}
		if aok && a.V == 0 {
			return e.B
		}
	case Sub:
		if bok && b.V == 0 {
			return e.A
		}
	case Mul:
		if bok && b.V == 1 {
			return e.A
		}
		if aok && a.V == 1 {
			return e.B
		}
		if (bok && b.V == 0) || (aok && a.V == 0) {
			return &Const{V: 0}
		}
	case Shl, Shr:
		if bok && b.V == 0 {
			return e.A
		}
	case Or, Xor:
		if bok && b.V == 0 {
			return e.A
		}
		if aok && a.V == 0 {
			return e.B
		}
	case And:
		if (bok && b.V == 0) || (aok && a.V == 0) {
			return &Const{V: 0}
		}
	case Div:
		if bok && b.V == 1 {
			return e.A
		}
	}
	return e
}

// ---------------------------------------------------------------- CFG

// foldBranches turns IfGoto with a constant condition into Goto or
// fallthrough.
func foldBranches(f *Func) {
	for i, ins := range f.Code {
		br, ok := ins.(*IfGoto)
		if !ok {
			continue
		}
		c, ok := br.Cond.(*Const)
		if !ok {
			continue
		}
		if c.V != 0 {
			f.Code[i] = &Goto{Target: br.Target}
		} else {
			f.Code[i] = &Goto{Target: i + 1}
		}
	}
}

// threadJumps redirects jumps whose target is another unconditional
// jump, and replaces self-fallthrough gotos.
func threadJumps(f *Func) {
	final := func(t int) int {
		seen := map[int]bool{}
		for {
			if t < 0 || t >= len(f.Code) || seen[t] {
				return t
			}
			seen[t] = true
			g, ok := f.Code[t].(*Goto)
			if !ok {
				return t
			}
			t = g.Target
		}
	}
	for _, ins := range f.Code {
		switch ins := ins.(type) {
		case *Goto:
			ins.Target = final(ins.Target)
		case *IfGoto:
			ins.Target = final(ins.Target)
		}
	}
}

// removeUnreachable drops instructions no control path reaches and
// remaps jump targets.  Goto-to-next instructions become removable by
// marking them as pure fallthrough during compaction.
func removeUnreachable(f *Func) {
	n := len(f.Code)
	if n == 0 {
		return
	}
	reach := make([]bool, n)
	work := []int{0}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc < 0 || pc >= n || reach[pc] {
			continue
		}
		reach[pc] = true
		switch ins := f.Code[pc].(type) {
		case *Goto:
			work = append(work, ins.Target)
		case *IfGoto:
			work = append(work, ins.Target, pc+1)
		case *Ret, *Abort, *Halt:
			// no successor
		default:
			work = append(work, pc+1)
		}
	}

	// Compact: drop unreachable instructions and goto-to-next.
	newIdx := make([]int, n+1)
	kept := 0
	keep := make([]bool, n)
	for i := 0; i < n; i++ {
		newIdx[i] = kept
		if !reach[i] {
			continue
		}
		if g, ok := f.Code[i].(*Goto); ok {
			// A goto to the next *kept* instruction is pure fallthrough;
			// conservatively only drop gotos to i+1.
			if g.Target == i+1 {
				continue
			}
		}
		keep[i] = true
		kept++
	}
	newIdx[n] = kept

	// Dropping a goto-to-next whose successor is itself dropped would be
	// wrong; verify that every dropped goto's target maps to the next
	// kept index, else keep it.  (Handled implicitly: goto i+1 falls
	// through to whatever newIdx[i+1] is, which is exactly where the
	// goto would have landed.)

	out := make([]Instr, 0, kept)
	for i := 0; i < n; i++ {
		if !keep[i] {
			continue
		}
		switch ins := f.Code[i].(type) {
		case *Goto:
			out = append(out, &Goto{Target: newIdx[ins.Target]})
		case *IfGoto:
			out = append(out, &IfGoto{
				Cond: ins.Cond, Target: newIdx[ins.Target],
				Site: ins.Site, Pos: ins.Pos,
			})
		default:
			out = append(out, ins)
		}
	}
	f.Code = out
}

// renumberSites reassigns dense branch-site ids across the program.
func renumberSites(p *Prog) {
	next := 0
	for _, name := range p.FuncOrder {
		for _, ins := range p.Funcs[name].Code {
			if br, ok := ins.(*IfGoto); ok {
				br.Site = next
				next++
			}
		}
	}
	p.NumSites = next
}
