package ir

import (
	"errors"

	"dart/internal/types"
)

// ErrDivZero is the fault of x/0 and x%0.
var ErrDivZero = errors.New("division by zero")

// BinFunc is a binary operator's meaning on two int64 operands, before
// the result is truncated to the expression's type.
type BinFunc func(a, b int64) (int64, error)

// binFuncs is MiniC's one definition of the binary operators, the
// concrete half of the RAM machine's evaluate_concrete (paper Sec. 2.2),
// indexed by Op.  Arithmetic wraps at 64 bits (MinInt64/-1 is MinInt64,
// MinInt64%-1 is 0), shift counts are taken mod 64, comparisons give 0
// or 1, and a zero divisor faults with ErrDivZero.  The optimizer folds
// with it, and both execution engines run it.
var binFuncs = [...]BinFunc{
	Add: func(a, b int64) (int64, error) { return a + b, nil },
	Sub: func(a, b int64) (int64, error) { return a - b, nil },
	Mul: func(a, b int64) (int64, error) { return a * b, nil },
	Div: func(a, b int64) (int64, error) {
		if b == 0 {
			return 0, ErrDivZero
		}
		return a / b, nil
	},
	Mod: func(a, b int64) (int64, error) {
		if b == 0 {
			return 0, ErrDivZero
		}
		return a % b, nil
	},
	And: func(a, b int64) (int64, error) { return a & b, nil },
	Or:  func(a, b int64) (int64, error) { return a | b, nil },
	Xor: func(a, b int64) (int64, error) { return a ^ b, nil },
	Shl: func(a, b int64) (int64, error) { return a << (uint64(b) & 63), nil },
	Shr: func(a, b int64) (int64, error) { return a >> (uint64(b) & 63), nil },
	Eq:  func(a, b int64) (int64, error) { return truth(a == b), nil },
	Ne:  func(a, b int64) (int64, error) { return truth(a != b), nil },
	Lt:  func(a, b int64) (int64, error) { return truth(a < b), nil },
	Le:  func(a, b int64) (int64, error) { return truth(a <= b), nil },
	Gt:  func(a, b int64) (int64, error) { return truth(a > b), nil },
	Ge:  func(a, b int64) (int64, error) { return truth(a >= b), nil },
}

// Lower resolves binary operator o on an expression of type ty once,
// for an engine that applies it many times: Eval(a, b, ty) is f(a, b)
// with the result truncated to rty, or left whole when rty is nil.
func (o Op) Lower(ty *types.Basic) (f BinFunc, rty *types.Basic) {
	if uint(o) >= uint(len(binFuncs)) {
		return func(int64, int64) (int64, error) {
			return 0, errors.New("bad binary op " + o.String())
		}, nil
	}
	if o.IsComparison() {
		ty = nil // a truth value keeps its 0 or 1
	}
	return binFuncs[o], ty
}

// Eval applies binary operator o to a and b, truncating every result
// but a comparison's to ty (a nil ty is 64-bit address arithmetic).
func (o Op) Eval(a, b int64, ty *types.Basic) (int64, error) {
	f, ty := o.Lower(ty)
	v, err := f(a, b)
	if err != nil || ty == nil {
		return v, err
	}
	return types.Truncate(ty, v), nil
}

// EvalUnary applies unary operator o to a, truncating the result to ty
// when ty is non-nil.
func (o Op) EvalUnary(a int64, ty *types.Basic) (int64, error) {
	switch o {
	case Neg:
		a = -a
	case Not:
		a = truth(a == 0)
	case Compl:
		a = ^a
	case Conv: // the truncation below is the conversion
	default:
		return 0, errors.New("bad unary op " + o.String())
	}
	if ty == nil {
		return a, nil
	}
	return types.Truncate(ty, a), nil
}

func truth(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
