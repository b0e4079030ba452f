// Package symbolic implements the symbolic expressions of DART's
// dynamic analysis (Fig. 1 of the paper).
//
// DART's default theory is linear integer arithmetic, so a symbolic value
// is an affine form  Σ cᵢ·xᵢ + k  over input variables xᵢ.  Anything
// outside the theory (a product of two non-constant forms, a division by
// a non-constant, a value produced by a library black box) has no
// representation here: evaluation falls back to the concrete value and a
// completeness flag is cleared, exactly as in the paper.
//
// Branch conditions become predicates  L ⋈ 0  with ⋈ ∈ {=, ≠, <, ≤, >, ≥};
// an executed path is summarized by a path constraint, the conjunction of
// the branch predicates observed in order.
package symbolic

import (
	"fmt"
	"sort"
	"strings"
)

// Var identifies a symbolic input variable.  In the paper a symbolic
// variable is named by the memory address of the input; the engine keeps
// the address-to-Var registry so that Vars stay stable across runs even
// when malloc returns different addresses.
type Var int

// VarKind distinguishes arithmetic inputs from pointer inputs, which are
// solved over the {NULL, fresh allocation} domain that random_init can
// realize.
type VarKind int

// Variable kinds.
const (
	ScalarVar VarKind = iota
	PointerVar
)

// Lin is an affine form Σ Coeffs[v]·v + Const.  A nil *Lin is "not in the
// theory"; callers must treat it as concrete-only.
type Lin struct {
	Coeffs map[Var]int64
	Const  int64
}

// Shared constant forms for the small values the shadow evaluator
// produces constantly (untainted leaves, literals, comparison results).
// Every Lin is immutable once published — all mutating operations work
// on clones — so interning is safe, and it removes an allocation from
// the machine's per-instruction shadow path.
const (
	internLo = -256
	internHi = 1024
)

var internedConsts [internHi - internLo + 1]Lin

func init() {
	for i := range internedConsts {
		internedConsts[i].Const = int64(i) + internLo
	}
}

// NewConst returns the constant form k.
func NewConst(k int64) *Lin {
	if k >= internLo && k <= internHi {
		return &internedConsts[k-internLo]
	}
	return &Lin{Const: k}
}

// NewVar returns the form 1·v + 0.
func NewVar(v Var) *Lin {
	return &Lin{Coeffs: map[Var]int64{v: 1}}
}

// Arena batch-allocates Lin headers for the machine's shadow and
// branch-predicate paths.  Published Lins are immutable and escape into
// BranchRec snapshots that outlive the run, so chunks are handed out
// once and never recycled — the arena amortizes allocation (one chunk
// allocation per arenaChunk forms), it does not reclaim memory; a chunk
// is collected when the last form in it dies.  The zero Arena is ready
// to use.  A nil *Arena falls back to individual heap allocation, which
// is how the package-level Add/Sub/Scale share the arithmetic below.
// Not safe for concurrent use; each machine owns one.
type Arena struct {
	chunk []Lin
}

const arenaChunk = 512

// alloc returns a Lin header housing (coeffs, k).  The map is shared,
// not copied — callers pass either a map they own or one borrowed from
// an immutable published form.
func (ar *Arena) alloc(coeffs map[Var]int64, k int64) *Lin {
	if ar == nil {
		return &Lin{Coeffs: coeffs, Const: k}
	}
	if len(ar.chunk) == 0 {
		ar.chunk = make([]Lin, arenaChunk)
	}
	l := &ar.chunk[0]
	ar.chunk = ar.chunk[1:]
	l.Coeffs = coeffs
	l.Const = k
	return l
}

// NewConst is NewConst through the arena; interned forms still shared.
func (ar *Arena) NewConst(k int64) *Lin {
	if k >= internLo && k <= internHi {
		return &internedConsts[k-internLo]
	}
	return ar.alloc(nil, k)
}

// NewVar is NewVar through the arena (the header; the coefficient map
// is still an individual allocation).
func (ar *Arena) NewVar(v Var) *Lin {
	return ar.alloc(map[Var]int64{v: 1}, 0)
}

// IsConst reports whether the form has no variables.
func (l *Lin) IsConst() bool { return len(l.Coeffs) == 0 }

// ConstVal returns the constant term; meaningful when IsConst.
func (l *Lin) ConstVal() int64 { return l.Const }

// Clone returns a deep copy.
func (l *Lin) Clone() *Lin {
	c := &Lin{Const: l.Const, Coeffs: make(map[Var]int64, len(l.Coeffs))}
	for v, k := range l.Coeffs {
		c.Coeffs[v] = k
	}
	return c
}

// Vars returns the variables of the form in ascending order.
func (l *Lin) Vars() []Var {
	vs := make([]Var, 0, len(l.Coeffs))
	for v := range l.Coeffs {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// Coeff returns the coefficient of v (0 when absent).
func (l *Lin) Coeff(v Var) int64 { return l.Coeffs[v] }

func (l *Lin) set(v Var, k int64) {
	if k == 0 {
		delete(l.Coeffs, v)
		return
	}
	if l.Coeffs == nil {
		l.Coeffs = map[Var]int64{}
	}
	l.Coeffs[v] = k
}

// Add returns a+b, or nil on coefficient overflow.
func Add(a, b *Lin) *Lin { return (*Arena)(nil).Add(a, b) }

// Add is the arena form of the package-level Add.
func (ar *Arena) Add(a, b *Lin) *Lin {
	// Constant operands share the other side's coefficient map (Lins
	// are immutable once published; see Sub).
	if len(b.Coeffs) == 0 {
		k, ok := CheckedAdd(a.Const, b.Const)
		if !ok {
			return nil
		}
		return ar.alloc(a.Coeffs, k)
	}
	if len(a.Coeffs) == 0 {
		k, ok := CheckedAdd(a.Const, b.Const)
		if !ok {
			return nil
		}
		return ar.alloc(b.Coeffs, k)
	}
	kc, ok := CheckedAdd(a.Const, b.Const)
	if !ok {
		return nil
	}
	coeffs := make(map[Var]int64, len(a.Coeffs)+len(b.Coeffs))
	for v, k := range a.Coeffs {
		coeffs[v] = k
	}
	for v, k := range b.Coeffs {
		nk, ok := CheckedAdd(coeffs[v], k)
		if !ok {
			return nil
		}
		if nk == 0 {
			delete(coeffs, v)
		} else {
			coeffs[v] = nk
		}
	}
	return ar.alloc(coeffs, kc)
}

// Sub returns a-b, or nil on overflow.  This sits on the machine's
// branch-predicate path (every tainted conditional computes lhs-rhs),
// so it builds the result in one allocation instead of going through
// Scale + Add's clone — and when b is constant (comparisons against
// literals, the overwhelmingly common branch shape) it shares a's
// coefficient map outright: published Lins are immutable, so two forms
// may alias one map.
func Sub(a, b *Lin) *Lin { return (*Arena)(nil).Sub(a, b) }

// Sub is the arena form of the package-level Sub.
func (ar *Arena) Sub(a, b *Lin) *Lin {
	if len(b.Coeffs) == 0 {
		k, ok := subOverflow(a.Const, b.Const)
		if !ok {
			return nil
		}
		return ar.alloc(a.Coeffs, k)
	}
	kc, ok := subOverflow(a.Const, b.Const)
	if !ok {
		return nil
	}
	coeffs := make(map[Var]int64, len(a.Coeffs)+len(b.Coeffs))
	for v, k := range a.Coeffs {
		coeffs[v] = k
	}
	for v, k := range b.Coeffs {
		nk, ok := subOverflow(coeffs[v], k)
		if !ok {
			return nil
		}
		if nk == 0 {
			delete(coeffs, v)
		} else {
			coeffs[v] = nk
		}
	}
	return ar.alloc(coeffs, kc)
}

// Scale returns k·a, or nil on overflow.
func Scale(a *Lin, k int64) *Lin { return (*Arena)(nil).Scale(a, k) }

// Scale is the arena form of the package-level Scale.
func (ar *Arena) Scale(a *Lin, k int64) *Lin {
	if k == 1 {
		return a
	}
	kc, ok := MulOverflow(a.Const, k)
	if !ok {
		return nil
	}
	coeffs := make(map[Var]int64, len(a.Coeffs))
	for v, cv := range a.Coeffs {
		nk, ok := MulOverflow(cv, k)
		if !ok {
			return nil
		}
		if nk != 0 {
			coeffs[v] = nk
		}
	}
	return ar.alloc(coeffs, kc)
}

// Eval evaluates the form under the assignment.
func (l *Lin) Eval(assign map[Var]int64) int64 {
	total := l.Const
	for v, k := range l.Coeffs {
		total += k * assign[v]
	}
	return total
}

// EvalChecked evaluates the form under the assignment with overflow
// detection: ok is false when any coefficient product or partial sum
// leaves int64.  Raw Eval wraps silently in that case, which can make a
// mathematically false predicate look satisfied; soundness-critical
// checks (the solver's candidate verification) must use this form.
// Whether a partial sum overflows depends on the order of the terms, so
// they are summed in ascending variable order, the order of Path.Verify.
func (l *Lin) EvalChecked(assign map[Var]int64) (total int64, ok bool) {
	total = l.Const
	for _, v := range l.Vars() {
		p, ok := CheckedMul(l.Coeffs[v], assign[v])
		if !ok {
			return 0, false
		}
		total, ok = CheckedAdd(total, p)
		if !ok {
			return 0, false
		}
	}
	return total, true
}

// Equal reports structural equality of two forms.
func (l *Lin) Equal(o *Lin) bool {
	if l.Const != o.Const || len(l.Coeffs) != len(o.Coeffs) {
		return false
	}
	for v, k := range l.Coeffs {
		if o.Coeffs[v] != k {
			return false
		}
	}
	return true
}

func (l *Lin) String() string {
	if l == nil {
		return "<fallback>"
	}
	var b strings.Builder
	first := true
	for _, v := range l.Vars() {
		k := l.Coeffs[v]
		switch {
		case first && k == 1:
			fmt.Fprintf(&b, "x%d", v)
		case first:
			fmt.Fprintf(&b, "%d*x%d", k, v)
		case k == 1:
			fmt.Fprintf(&b, " + x%d", v)
		case k == -1:
			fmt.Fprintf(&b, " - x%d", v)
		case k > 0:
			fmt.Fprintf(&b, " + %d*x%d", k, v)
		default:
			fmt.Fprintf(&b, " - %d*x%d", -k, v)
		}
		first = false
	}
	switch {
	case first:
		fmt.Fprintf(&b, "%d", l.Const)
	case l.Const > 0:
		fmt.Fprintf(&b, " + %d", l.Const)
	case l.Const < 0:
		fmt.Fprintf(&b, " - %d", -l.Const)
	}
	return b.String()
}

func subOverflow(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

// MulOverflow is the product Scale uses, ok false on overflow.  Its
// quotient check passes MinInt64·−1, which wraps back to MinInt64, so
// Scale(MinInt64·x, −1) returns MinInt64·x; the solver scales its rows
// with it too, so that a row scales exactly as its form would.
func MulOverflow(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

// CheckedAdd and CheckedMul are exact overflow-detecting int64 ops for
// EvalChecked, Add and the solver.  Unlike MulOverflow, CheckedMul also
// rejects MinInt64·−1.
func CheckedAdd(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func CheckedMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if (a == -1 && b == minInt64) || (b == -1 && a == minInt64) {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

const minInt64 = -1 << 63

// ---------------------------------------------------------------- preds

// Rel is a predicate relation against zero.
type Rel int

// Relations; the predicate is L Rel 0.
const (
	EQ Rel = iota
	NE
	LT
	LE
	GT
	GE
)

var relNames = [...]string{EQ: "==", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="}

func (r Rel) String() string { return relNames[r] }

// Negate returns the complementary relation.
func (r Rel) Negate() Rel {
	switch r {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	}
	panic("symbolic: bad relation")
}

// Pred is the atomic branch predicate L Rel 0.
type Pred struct {
	L   *Lin
	Rel Rel
}

// Negate returns the logical negation of the predicate.
func (p Pred) Negate() Pred { return Pred{L: p.L, Rel: p.Rel.Negate()} }

// Holds evaluates the predicate under an assignment.
func (p Pred) Holds(assign map[Var]int64) bool {
	v := p.L.Eval(assign)
	switch p.Rel {
	case EQ:
		return v == 0
	case NE:
		return v != 0
	case LT:
		return v < 0
	case LE:
		return v <= 0
	case GT:
		return v > 0
	case GE:
		return v >= 0
	}
	return false
}

func (p Pred) String() string { return fmt.Sprintf("%s %s 0", p.L, p.Rel) }

// StringNamed renders the form with name supplying each variable's
// display name (nil falls back to the x%d default).  Var numbering is
// first-use order and races across parallel workers, so any rendering
// that must be schedule-independent — the coverage explainer's unsat
// slices — names variables by their stable input keys instead.
func (l *Lin) StringNamed(name func(Var) string) string {
	if l == nil {
		return "<fallback>"
	}
	if name == nil {
		return l.String()
	}
	var b strings.Builder
	first := true
	for _, v := range l.Vars() {
		k := l.Coeffs[v]
		n := name(v)
		switch {
		case first && k == 1:
			b.WriteString(n)
		case first:
			fmt.Fprintf(&b, "%d*%s", k, n)
		case k == 1:
			fmt.Fprintf(&b, " + %s", n)
		case k == -1:
			fmt.Fprintf(&b, " - %s", n)
		case k > 0:
			fmt.Fprintf(&b, " + %d*%s", k, n)
		default:
			fmt.Fprintf(&b, " - %d*%s", -k, n)
		}
		first = false
	}
	switch {
	case first:
		fmt.Fprintf(&b, "%d", l.Const)
	case l.Const > 0:
		fmt.Fprintf(&b, " + %d", l.Const)
	case l.Const < 0:
		fmt.Fprintf(&b, " - %d", -l.Const)
	}
	return b.String()
}

// StringNamed renders the predicate with named variables.
func (p Pred) StringNamed(name func(Var) string) string {
	return fmt.Sprintf("%s %s 0", p.L.StringNamed(name), p.Rel)
}

// StringNamed renders the conjunction with named variables.
func (pc PathConstraint) StringNamed(name func(Var) string) string {
	parts := make([]string, len(pc))
	for i, p := range pc {
		parts[i] = p.StringNamed(name)
	}
	return "(" + strings.Join(parts, ") ∧ (") + ")"
}

// PathConstraint is the ordered conjunction of branch predicates observed
// along one execution.
type PathConstraint []Pred

func (pc PathConstraint) String() string {
	parts := make([]string, len(pc))
	for i, p := range pc {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, ") ∧ (") + ")"
}
