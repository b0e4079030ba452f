// Closure-threaded compilation of the RAM-machine IR.
//
// Each ir.Func is lowered into a flat array of op closures
// (direct-threaded code): operand addressing, call targets, store
// widths, and operator dispatch are all resolved at lowering time, so
// the step loop executes one indirect call per instruction with no
// ir.Expr re-traversal and no type switches.  The symbolic shadow of
// Fig. 1 is pay-as-you-go: compiled Load ops consult the memory's
// per-cell taint bitmap, and an instruction whose operands never
// touched a tainted cell skips shadow evaluation entirely — sound
// because evaluate_symbolic over all-constant leaves yields a constant
// form and never clears a completeness flag (see DESIGN.md).  When the
// shadow is needed, the op falls back to the reference evalSym /
// branchPred walkers over the original expression, so both engines
// share one definition of the symbolic semantics.
//
// Compile only builds the function table; each function is lowered on
// its first activation, under its own sync.Once, so a search or replay
// pays only for the functions it reaches.  Call ops bind to the
// callee's table entry, not its code, so mutual recursion needs no
// second pass.  A Compiled may be shared by any number of machines and
// goroutines: lowering is the only write, and the Once orders it before
// every read of the code.
package machine

import (
	"fmt"
	"sync"

	"dart/internal/ir"
	"dart/internal/symbolic"
	"dart/internal/token"
	"dart/internal/types"
)

// Compiled is the closure-threaded form of one program.
type Compiled struct {
	funcs map[string]*cfunc
}

type cfunc struct {
	f *ir.Func
	// c resolves call targets when the function is lowered.
	c *Compiled
	// lowerOnce guards code, which is nil until the first activation.
	lowerOnce sync.Once
	code      []cop
}

// cop executes one instruction against machine state; it returns the
// next pc, retPC after a Ret (result in m.retV), or a run error.
type cop func(m *Machine, frame int64) (int, *RunError)

// cexpr evaluates one expression concretely.  Errors are raw memory
// faults / arithmetic errors; the enclosing op attaches the position.
type cexpr func(m *Machine, frame int64) (int64, error)

// retPC is the sentinel next-pc a Ret op returns.  Negative branch
// targets are intercepted at compile time so they cannot collide.
const retPC = -1

// Compile builds the function table of p; each function's code is
// lowered on its first activation.  The result is self-contained: call
// instructions bind directly to their callees' table entries.
func Compile(p *ir.Prog) *Compiled {
	c := &Compiled{funcs: make(map[string]*cfunc, len(p.Funcs))}
	for name, f := range p.Funcs {
		c.funcs[name] = &cfunc{f: f, c: c}
	}
	return c
}

// lower compiles cf's instructions; it runs once, under cf.lowerOnce.
func (cf *cfunc) lower() {
	code := make([]cop, len(cf.f.Code))
	for pc, ins := range cf.f.Code {
		code[pc] = cf.c.compileIns(ins, pc, cf.f)
	}
	cf.code = code
}

// execCompiled runs one function activation on the compiled code.
func (m *Machine) execCompiled(cf *cfunc, args []Value) (Value, *RunError) {
	if cf == nil {
		return Value{}, &RunError{Outcome: Crashed, Msg: "machine: compiled code does not match program"}
	}
	if m.callDepth >= maxCallDepth {
		return Value{}, &RunError{Outcome: Crashed, Msg: "stack overflow (recursion too deep)"}
	}
	m.callDepth++
	defer func() { m.callDepth-- }()
	cf.lowerOnce.Do(cf.lower)

	f := cf.f
	frame := m.mem.PushFrame(f.FrameSize)
	// PopFrame clears the frame's taint bits, killing its shadows before
	// the addresses are recycled — this also runs on error unwinds and
	// panics, so a failed run leaves the pooled state consistent.
	defer m.mem.PopFrame(frame, f.FrameSize)

	for i, p := range f.Params {
		addr := frame + p.Slot
		if err := m.mem.Store(addr, truncStore(p.Type, args[i].V), args[i].Sym); err != nil {
			return Value{}, m.memErr(err, token.Pos{})
		}
	}

	code := cf.code
	pc := 0
	for {
		if pc < 0 || pc >= len(code) {
			return Value{}, &RunError{Outcome: Crashed, Msg: fmt.Sprintf("pc %d out of range in %s", pc, f.Name)}
		}
		m.steps++
		if m.steps > m.maxSteps {
			return Value{}, &RunError{Outcome: StepLimit, Msg: "step budget exhausted (possible non-termination)"}
		}
		if m.supervised && m.steps&(interruptStride-1) == 0 {
			if re := m.checkInterrupt(); re != nil {
				return Value{}, re
			}
		}
		next, rerr := code[pc](m, frame)
		if rerr != nil {
			return Value{}, rerr
		}
		if next == retPC {
			ret := m.retV
			m.retV = Value{}
			return ret, nil
		}
		pc = next
	}
}

// pushArgs reserves an n-Value segment on the shared argument scratch
// stack.  Reallocation is safe: callers consume their segment before
// any nested call can push another.
func (m *Machine) pushArgs(n int) []Value {
	base := len(m.argStack)
	need := base + n
	if cap(m.argStack) < need {
		ns := make([]Value, need, need*2+8)
		copy(ns, m.argStack)
		m.argStack = ns
	} else {
		m.argStack = m.argStack[:need]
	}
	return m.argStack[base:need:need]
}

// popArgs releases the topmost n-Value segment, zeroing it so pooled
// scratch never retains symbolic values across runs.
func (m *Machine) popArgs(n int) {
	top := len(m.argStack)
	for i := top - n; i < top; i++ {
		m.argStack[i] = Value{}
	}
	m.argStack = m.argStack[:top-n]
}

// ---------------------------------------------------------------- ops

func (c *Compiled) compileIns(ins ir.Instr, pc int, f *ir.Func) cop {
	next := pc + 1
	switch ins := ins.(type) {
	case *ir.Assign:
		dst := c.compileExpr(ins.Dst)
		src := c.compileExpr(ins.Src)
		storeTy, srcExpr, pos := ins.StoreTy, ins.Src, ins.Pos
		return func(m *Machine, frame int64) (int, *RunError) {
			addr, err := dst(m, frame)
			if err != nil {
				return 0, m.memErr(err, pos)
			}
			m.taintHit = false
			v, err := src(m, frame)
			if err != nil {
				return 0, m.memErr(err, pos)
			}
			if storeTy != nil {
				v = types.Truncate(storeTy, v)
			}
			// Shadow evaluation only when the source touched a tainted
			// cell; it must run before the store (the source may read
			// the destination cell).
			var sym *symbolic.Lin
			if m.taintHit {
				sym = m.shadowEval(srcExpr, frame)
			}
			if err := m.mem.Store(addr, v, sym); err != nil {
				return 0, m.memErr(err, pos)
			}
			return next, nil
		}

	case *ir.IfGoto:
		cond := c.compileExpr(ins.Cond)
		condExpr, site, target, pos := ins.Cond, ins.Site, ins.Target, ins.Pos
		// A negative target would collide with the retPC sentinel; a
		// taken jump must crash exactly as the interpreter's loop-top
		// bound check does.
		badTarget := ""
		if target < 0 {
			badTarget = fmt.Sprintf("pc %d out of range in %s", target, f.Name)
		}
		return func(m *Machine, frame int64) (int, *RunError) {
			m.taintHit = false
			cv, err := cond(m, frame)
			if err != nil {
				return 0, m.memErr(err, pos)
			}
			taken := cv != 0
			var rec BranchRec
			if m.taintHit {
				m.shadowEvals++
				pred, hasPred, fallback := m.branchPred(condExpr, frame, taken)
				rec = BranchRec{Site: site, Taken: taken, Pred: pred, HasPred: hasPred, Fallback: fallback, Pos: pos}
			} else {
				// No tainted operand: the condition cannot depend on
				// inputs, the shadow would be constant, and the record
				// is the interpreter's concrete fallback.
				rec = BranchRec{Site: site, Taken: taken, Fallback: FallbackConcrete, Pos: pos}
			}
			m.Branches = append(m.Branches, rec)
			if m.onBranch != nil {
				if herr := m.onBranch(rec); herr != nil {
					return 0, &RunError{Outcome: Mispredicted, Msg: herr.Error(), Pos: pos}
				}
			}
			if taken {
				if badTarget != "" {
					return 0, &RunError{Outcome: Crashed, Msg: badTarget}
				}
				return target, nil
			}
			return next, nil
		}

	case *ir.Goto:
		target := ins.Target
		if target < 0 {
			msg := fmt.Sprintf("pc %d out of range in %s", target, f.Name)
			return func(m *Machine, frame int64) (int, *RunError) {
				return 0, &RunError{Outcome: Crashed, Msg: msg}
			}
		}
		return func(m *Machine, frame int64) (int, *RunError) {
			return target, nil
		}

	case *ir.Call:
		callee := c.funcs[ins.Fn]
		nargs := len(ins.Args)
		cargs := make([]cexpr, nargs)
		argExprs := make([]ir.Expr, nargs)
		for i, a := range ins.Args {
			cargs[i] = c.compileExpr(a)
			argExprs[i] = a
		}
		var dst cexpr
		if ins.Dst != nil {
			dst = c.compileExpr(ins.Dst)
		}
		fn, pos := ins.Fn, ins.Pos
		if callee == nil {
			return func(m *Machine, frame int64) (int, *RunError) {
				return 0, &RunError{Outcome: Crashed, Msg: "no such function " + fn, Pos: pos}
			}
		}
		return func(m *Machine, frame int64) (int, *RunError) {
			args := m.pushArgs(nargs)
			for i := 0; i < nargs; i++ {
				m.taintHit = false
				v, err := cargs[i](m, frame)
				if err != nil {
					m.popArgs(nargs)
					return 0, m.memErr(err, pos)
				}
				var s *symbolic.Lin
				if m.taintHit {
					s = m.shadowEval(argExprs[i], frame)
				}
				args[i] = Value{V: v, Sym: s}
			}
			// The destination is a caller-frame temporary; resolve it
			// before the callee's frame is live.
			var dstAddr int64
			if dst != nil {
				var err error
				dstAddr, err = dst(m, frame)
				if err != nil {
					m.popArgs(nargs)
					return 0, m.memErr(err, pos)
				}
			}
			ret, rerr := m.execCompiled(callee, args)
			m.popArgs(nargs)
			if rerr != nil {
				return 0, rerr
			}
			if dst != nil {
				if err := m.mem.Store(dstAddr, ret.V, ret.Sym); err != nil {
					return 0, m.memErr(err, pos)
				}
			}
			return next, nil
		}

	case *ir.CallExt:
		fn, result, pos := ins.Fn, ins.Result, ins.Pos
		var dst cexpr
		if ins.Dst != nil {
			dst = c.compileExpr(ins.Dst)
		}
		voidish := ins.Dst == nil || types.IsVoid(ins.Result)
		return func(m *Machine, frame int64) (int, *RunError) {
			if voidish {
				m.extInput(fn, nil)
				return next, nil
			}
			addr, err := dst(m, frame)
			if err != nil {
				return 0, m.memErr(err, pos)
			}
			if err := m.RandomInit(addr, m.extInput(fn, result)); err != nil {
				return 0, m.memErr(err, pos)
			}
			return next, nil
		}

	case *ir.CallLib:
		fn, pos := ins.Fn, ins.Pos
		nargs := len(ins.Args)
		cargs := make([]cexpr, nargs)
		argExprs := make([]ir.Expr, nargs)
		for i, a := range ins.Args {
			cargs[i] = c.compileExpr(a)
			argExprs[i] = a
		}
		var dst cexpr
		if ins.Dst != nil {
			dst = c.compileExpr(ins.Dst)
		}
		return func(m *Machine, frame int64) (int, *RunError) {
			impl, ok := m.libs[fn]
			if !ok {
				return 0, &RunError{Outcome: Crashed, Msg: "library function " + fn + " has no implementation", Pos: pos}
			}
			args := make([]int64, nargs)
			anySymbolic := false
			for i := 0; i < nargs; i++ {
				m.taintHit = false
				v, err := cargs[i](m, frame)
				if err != nil {
					return 0, m.memErr(err, pos)
				}
				args[i] = v
				if m.taintHit {
					if s := m.shadowEval(argExprs[i], frame); s != nil && !s.IsConst() {
						anySymbolic = true
					}
				}
			}
			if anySymbolic {
				m.allLinear = false
			}
			ret, err := impl(m, args)
			if err != nil {
				return 0, &RunError{Outcome: Crashed, Msg: err.Error(), Pos: pos}
			}
			if dst != nil {
				addr, cerr := dst(m, frame)
				if cerr != nil {
					return 0, m.memErr(cerr, pos)
				}
				if serr := m.mem.Store(addr, ret, nil); serr != nil {
					return 0, m.memErr(serr, pos)
				}
			}
			return next, nil
		}

	case *ir.Ret:
		if ins.Val == nil {
			return func(m *Machine, frame int64) (int, *RunError) {
				m.retV = Value{}
				return retPC, nil
			}
		}
		val := c.compileExpr(ins.Val)
		valExpr, pos := ins.Val, ins.Pos
		return func(m *Machine, frame int64) (int, *RunError) {
			m.taintHit = false
			v, err := val(m, frame)
			if err != nil {
				return 0, m.memErr(err, pos)
			}
			var s *symbolic.Lin
			if m.taintHit {
				s = m.shadowEval(valExpr, frame)
			}
			m.retV = Value{V: v, Sym: s}
			return retPC, nil
		}

	case *ir.Alloc:
		size := c.compileExpr(ins.Size)
		dst := c.compileExpr(ins.Dst)
		pos := ins.Pos
		return func(m *Machine, frame int64) (int, *RunError) {
			sz, err := size(m, frame)
			if err != nil {
				return 0, m.memErr(err, pos)
			}
			if sz < 0 {
				return 0, &RunError{Outcome: Crashed, Msg: fmt.Sprintf("malloc with negative size %d", sz), Pos: pos}
			}
			region, err := m.mem.Alloc(sz)
			if err != nil {
				return 0, m.memErr(err, pos)
			}
			addr, err := dst(m, frame)
			if err != nil {
				return 0, m.memErr(err, pos)
			}
			if err := m.mem.Store(addr, region, nil); err != nil {
				return 0, m.memErr(err, pos)
			}
			return next, nil
		}

	case *ir.Free:
		ptr := c.compileExpr(ins.Ptr)
		pos := ins.Pos
		return func(m *Machine, frame int64) (int, *RunError) {
			p, err := ptr(m, frame)
			if err != nil {
				return 0, m.memErr(err, pos)
			}
			if err := m.mem.Free(p); err != nil {
				return 0, m.memErr(err, pos)
			}
			return next, nil
		}

	case *ir.Abort:
		msg, pos := ins.Msg, ins.Pos
		return func(m *Machine, frame int64) (int, *RunError) {
			return 0, &RunError{Outcome: Aborted, Msg: msg, Pos: pos}
		}

	case *ir.Halt:
		return func(m *Machine, frame int64) (int, *RunError) {
			return 0, &RunError{Outcome: HaltOK, Msg: "halt"}
		}

	default:
		msg := fmt.Sprintf("bad instruction %T", ins)
		return func(m *Machine, frame int64) (int, *RunError) {
			return 0, &RunError{Outcome: Crashed, Msg: msg}
		}
	}
}

// ---------------------------------------------------------------- exprs

// compileExpr lowers one expression tree into a closure chain with all
// operator and width dispatch resolved.  Loads feed the taint
// accumulator and the pointer-shape decision hook, exactly mirroring
// evalConcrete.
func (c *Compiled) compileExpr(e ir.Expr) cexpr {
	switch e := e.(type) {
	case *ir.Const:
		v := e.V
		return func(m *Machine, frame int64) (int64, error) { return v, nil }

	case *ir.FrameAddr:
		slot := e.Slot
		return func(m *Machine, frame int64) (int64, error) { return frame + slot, nil }

	case *ir.GlobalAddr:
		off := e.Off
		return func(m *Machine, frame int64) (int64, error) { return m.globalBase + off, nil }

	case *ir.Load:
		addr := c.compileExpr(e.Addr)
		return func(m *Machine, frame int64) (int64, error) {
			a, err := addr(m, frame)
			if err != nil {
				return 0, err
			}
			v, sym, err := m.mem.Load(a)
			if err != nil {
				return 0, err
			}
			if sym != nil {
				m.taintHit = true
				if m.shapeSearch {
					if err := m.noteDecision(v, sym); err != nil {
						return 0, err
					}
				}
			}
			return v, nil
		}

	case *ir.Un:
		a := c.compileExpr(e.A)
		tr := truncFn(e.Ty)
		switch e.Op {
		case ir.Neg:
			return func(m *Machine, frame int64) (int64, error) {
				v, err := a(m, frame)
				if err != nil {
					return 0, err
				}
				return tr(-v), nil
			}
		case ir.Not:
			return func(m *Machine, frame int64) (int64, error) {
				v, err := a(m, frame)
				if err != nil {
					return 0, err
				}
				return tr(b2i(v == 0)), nil
			}
		case ir.Compl:
			return func(m *Machine, frame int64) (int64, error) {
				v, err := a(m, frame)
				if err != nil {
					return 0, err
				}
				return tr(^v), nil
			}
		case ir.Conv:
			return func(m *Machine, frame int64) (int64, error) {
				v, err := a(m, frame)
				if err != nil {
					return 0, err
				}
				return tr(v), nil
			}
		default:
			return errExpr("bad unary op " + e.Op.String())
		}

	case *ir.Bin:
		a := c.compileExpr(e.A)
		b := c.compileExpr(e.B)
		op := e.Op
		if op.IsComparison() {
			return func(m *Machine, frame int64) (int64, error) {
				x, err := a(m, frame)
				if err != nil {
					return 0, err
				}
				y, err := b(m, frame)
				if err != nil {
					return 0, err
				}
				switch op {
				case ir.Eq:
					return b2i(x == y), nil
				case ir.Ne:
					return b2i(x != y), nil
				case ir.Lt:
					return b2i(x < y), nil
				case ir.Le:
					return b2i(x <= y), nil
				case ir.Gt:
					return b2i(x > y), nil
				default: // Ge
					return b2i(x >= y), nil
				}
			}
		}
		tr := truncFn(e.Ty)
		var apply func(x, y int64) (int64, error)
		switch op {
		case ir.Add:
			apply = func(x, y int64) (int64, error) { return x + y, nil }
		case ir.Sub:
			apply = func(x, y int64) (int64, error) { return x - y, nil }
		case ir.Mul:
			apply = func(x, y int64) (int64, error) { return x * y, nil }
		case ir.Div:
			apply = func(x, y int64) (int64, error) {
				if y == 0 {
					return 0, errDivZero
				}
				return x / y, nil
			}
		case ir.Mod:
			apply = func(x, y int64) (int64, error) {
				if y == 0 {
					return 0, errDivZero
				}
				return x % y, nil
			}
		case ir.And:
			apply = func(x, y int64) (int64, error) { return x & y, nil }
		case ir.Or:
			apply = func(x, y int64) (int64, error) { return x | y, nil }
		case ir.Xor:
			apply = func(x, y int64) (int64, error) { return x ^ y, nil }
		case ir.Shl:
			apply = func(x, y int64) (int64, error) { return x << (uint64(y) & 63), nil }
		case ir.Shr:
			apply = func(x, y int64) (int64, error) { return x >> (uint64(y) & 63), nil }
		default:
			return errExpr("bad binary op " + op.String())
		}
		return func(m *Machine, frame int64) (int64, error) {
			x, err := a(m, frame)
			if err != nil {
				return 0, err
			}
			y, err := b(m, frame)
			if err != nil {
				return 0, err
			}
			v, err := apply(x, y)
			if err != nil {
				return 0, err
			}
			return tr(v), nil
		}
	}
	return errExpr("bad expression")
}

// truncFn resolves width truncation once; identity when untyped.
func truncFn(ty *types.Basic) func(int64) int64 {
	if ty == nil {
		return func(v int64) int64 { return v }
	}
	return func(v int64) int64 { return types.Truncate(ty, v) }
}

func errExpr(msg string) cexpr {
	return func(m *Machine, frame int64) (int64, error) {
		return 0, fmt.Errorf("%s", msg)
	}
}
