package machine

import (
	"errors"

	"dart/internal/ir"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// evalConcrete is the paper's evaluate_concrete(e, M): standard RAM-
// machine expression evaluation, with the operators' one definition in
// ir (C's wrapping integer semantics).
func (m *Machine) evalConcrete(e ir.Expr, frame int64) (int64, error) {
	switch e := e.(type) {
	case *ir.Const:
		return e.V, nil
	case *ir.FrameAddr:
		return frame + e.Slot, nil
	case *ir.GlobalAddr:
		return m.globalBase + e.Off, nil
	case *ir.Load:
		addr, err := m.evalConcrete(e.Addr, frame)
		if err != nil {
			return 0, err
		}
		v, sym, err := m.mem.Load(addr)
		if err != nil {
			return 0, err
		}
		if err := m.noteDecision(v, sym); err != nil {
			return 0, err
		}
		return v, nil
	case *ir.Un:
		a, err := m.evalConcrete(e.A, frame)
		if err != nil {
			return 0, err
		}
		return e.Op.EvalUnary(a, e.Ty)
	case *ir.Bin:
		a, err := m.evalConcrete(e.A, frame)
		if err != nil {
			return 0, err
		}
		b, err := m.evalConcrete(e.B, frame)
		if err != nil {
			return 0, err
		}
		return e.Op.Eval(a, b, e.Ty)
	}
	return 0, errors.New("bad expression")
}

// evalSym is Fig. 1's evaluate_symbolic(e, M, S): an affine form over
// input variables; whenever the expression leaves the linear theory it
// falls back to the concrete value and clears the corresponding
// completeness flag.  Constant forms are carried unboxed: the
// result is either a genuinely symbolic affine form (l != nil; never a
// constant — collapsed forms are normalized to the k representation), a
// constant (l == nil, value k), or a fault of the underlying concrete
// evaluation (fault == true).  Constants dominate real expression trees
// — literals, frame/global addresses, untainted loads, out-of-theory
// fallbacks — so keeping them out of Lin boxes removes the bulk of the
// shadow's allocation traffic; a box is materialized only where a
// constant meets a symbolic operand in +/−/neg (and then usually from
// the interned pool).
func (m *Machine) evalSym(e ir.Expr, frame int64) (l *symbolic.Lin, k int64, fault bool) {
	switch e := e.(type) {
	case *ir.Const:
		return nil, e.V, false
	case *ir.FrameAddr:
		return nil, frame + e.Slot, false
	case *ir.GlobalAddr:
		return nil, m.globalBase + e.Off, false
	case *ir.Load:
		la, ka, fa := m.evalSym(e.Addr, frame)
		if fa {
			return nil, 0, true
		}
		if la != nil {
			if !m.pointerShapeOnly(la) {
				// Dereference through an arithmetic-input-dependent
				// address: the paper's all_locs_definite case — fall
				// back to the concrete value.
				m.allLocsDefinite = false
				return m.concreteK(e, frame)
			}
			// Refinement (invited by Sec. 2.3): the address depends only
			// on pointer-shape inputs, whose values are pinned for the
			// duration of a run by the NULL-check predicates and the
			// input vector, so the concrete address is definite.
			addr, err := m.evalConcrete(e.Addr, frame)
			if err != nil {
				return nil, 0, true
			}
			return m.loadSymK(addr)
		}
		return m.loadSymK(ka)
	case *ir.Un:
		la, ka, fa := m.evalSym(e.A, frame)
		if fa {
			return nil, 0, true
		}
		switch e.Op {
		case ir.Neg:
			a := la
			if a == nil {
				a = m.lins.NewConst(ka)
			}
			if r := m.lins.Scale(a, -1); r != nil {
				return m.wrapK(r, e.Ty)
			}
			m.allLinear = false
			return m.concreteK(e, frame)
		case ir.Conv:
			if la == nil {
				k, err := e.Op.EvalUnary(ka, e.Ty)
				return nil, k, err != nil
			}
			// Width truncation of a symbolic value is non-linear; treat
			// the common no-op case (value provably in range is unknowable
			// here) conservatively.
			m.allLinear = false
			return m.concreteK(e, frame)
		default: // Not, Compl
			if la == nil {
				return m.concreteK(e, frame)
			}
			m.allLinear = false
			return m.concreteK(e, frame)
		}
	case *ir.Bin:
		la, ka, fa := m.evalSym(e.A, frame)
		if fa {
			return nil, 0, true
		}
		lb, kb, fb := m.evalSym(e.B, frame)
		if fb {
			return nil, 0, true
		}
		if la == nil && lb == nil {
			return m.concreteK(e, frame)
		}
		switch e.Op {
		case ir.Add:
			a, b := la, lb
			if a == nil {
				a = m.lins.NewConst(ka)
			}
			if b == nil {
				b = m.lins.NewConst(kb)
			}
			if r := m.lins.Add(a, b); r != nil {
				return m.wrapK(r, e.Ty)
			}
		case ir.Sub:
			a, b := la, lb
			if a == nil {
				a = m.lins.NewConst(ka)
			}
			if b == nil {
				b = m.lins.NewConst(kb)
			}
			if r := m.lins.Sub(a, b); r != nil {
				return m.wrapK(r, e.Ty)
			}
		case ir.Mul:
			// Fig. 1: symbolic*symbolic is outside the theory; constant
			// scaling stays inside.
			if la == nil {
				if r := m.lins.Scale(lb, ka); r != nil {
					return m.wrapK(r, e.Ty)
				}
			} else if lb == nil {
				if r := m.lins.Scale(la, kb); r != nil {
					return m.wrapK(r, e.Ty)
				}
			}
		case ir.Shl:
			// x << k with constant k is scaling by 2^k: still linear.
			if lb == nil && kb >= 0 && kb < 62 {
				if r := m.lins.Scale(la, int64(1)<<uint(kb)); r != nil {
					return m.wrapK(r, e.Ty)
				}
			}
		}
		// Division, modulus, bitwise operators, comparisons used as
		// values, shifts by symbolic amounts, symbolic*symbolic: all
		// outside linear integer arithmetic.
		m.allLinear = false
		return m.concreteK(e, frame)
	}
	return nil, 0, true
}

// wrapK applies width truncation when the affine form collapsed to a
// constant (normalizing it back to evalSym's unboxed representation);
// symbolic forms are left untruncated (the linear theory models
// unbounded integers, as the paper's lp_solve backend did).
func (m *Machine) wrapK(l *symbolic.Lin, ty *types.Basic) (*symbolic.Lin, int64, bool) {
	if l.IsConst() {
		k := l.ConstVal()
		if ty != nil {
			k = types.Truncate(ty, k)
		}
		return nil, k, false
	}
	return l, 0, false
}

// loadSymK reads the symbolic (or concrete) content of a definite
// address.  (Store keeps constant forms out of S, preserving
// evalSym's normalization.)
func (m *Machine) loadSymK(addr int64) (*symbolic.Lin, int64, bool) {
	v, sym, err := m.mem.Load(addr)
	if err != nil {
		return nil, 0, true
	}
	if sym != nil {
		return sym, 0, false
	}
	return nil, v, false
}

// pointerShapeOnly reports whether every variable of the form is a
// pointer input (so the form's value is fixed by shape decisions alone).
func (m *Machine) pointerShapeOnly(l *symbolic.Lin) bool {
	for v := range l.Coeffs {
		if !m.trie.isPointerVar(v) {
			return false
		}
	}
	return true
}

// concreteK is the fallback of Fig. 1: the expression's concrete value
// as an (unboxed) constant form.
func (m *Machine) concreteK(e ir.Expr, frame int64) (*symbolic.Lin, int64, bool) {
	v, err := m.evalConcrete(e, frame)
	if err != nil {
		return nil, 0, true
	}
	return nil, v, false
}
