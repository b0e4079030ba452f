// Package solver decides conjunctions of DART path-constraint predicates
// over the integers, replacing the paper's use of lp_solve.
//
// The input is a conjunction of affine predicates  L ⋈ 0.  Scalar input
// variables range over their C type's value set (int32, int8, ...).
// Pointer input variables range over the two-point domain that the
// generated test driver's random_init can realize: NULL, or a fresh
// heap allocation (Sec. 3.2).  Two distinct fresh allocations are never
// equal, and no input can name a specific non-NULL address, so pointer
// reasoning reduces to a small case analysis.
//
// The integer fragment is decided by equality substitution followed by
// Fourier–Motzkin elimination with integer bound tightening and
// back-substitution; disequalities are handled by case splits.  Every
// candidate assignment is verified against the original predicates before
// being returned, so a returned solution always satisfies the path
// constraint (the property DART's Theorem 1(a) soundness rests on); the
// cost of the solver's incompleteness is only extra search, which DART
// already tolerates via its completeness flags.
package solver

import (
	"fmt"
	"sort"
	"strings"

	"dart/internal/symbolic"
)

// stripZeros removes explicit zero coefficients so that downstream
// var-counting logic sees only genuine occurrences.
func stripZeros(l *symbolic.Lin) *symbolic.Lin {
	clean := true
	for _, c := range l.Coeffs {
		if c == 0 {
			clean = false
			break
		}
	}
	if clean {
		return l
	}
	out := l.Clone()
	for v, c := range out.Coeffs {
		if c == 0 {
			delete(out.Coeffs, v)
		}
	}
	return out
}

// VarMeta describes one variable's domain.
type VarMeta struct {
	Kind symbolic.VarKind
	// Lo and Hi bound scalar variables (inclusive). Ignored for pointers.
	Lo, Hi int64
}

// PtrNull and PtrAlloc are the two pointer solution values: keep the
// pointer NULL, or make random_init allocate a fresh object for it.
const (
	PtrNull  int64 = 0
	PtrAlloc int64 = 1
)

// Limits bound the search; exceeding them fails conservatively.
const (
	maxNESplits    = 1 << 9
	maxConstraints = 1 << 12
	maxCombos      = 1 << 17
	maxPtrEnum     = 1 << 16
)

// Verdict classifies a SolveWork result.
type Verdict int

// Verdicts.
const (
	// Unsat: no assignment was found — the conjunction is infeasible, or
	// it lies beyond the solver's (incomplete) decision procedure.
	Unsat Verdict = iota
	// Sat: the returned assignment satisfies every predicate.
	Sat
	// BudgetExhausted: the work budget ran out before the search could
	// decide; the caller must treat the constraint as undecided (and, for
	// DART, give up completeness rather than hang).
	BudgetExhausted
)

func (v Verdict) String() string {
	switch v {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	case BudgetExhausted:
		return "budget-exhausted"
	}
	return "unknown"
}

// DefaultWork is the work budget Solve grants each call: large enough
// that ordinary path constraints never trip it, small enough that an
// adversarial system stops grinding within tens of milliseconds.
const DefaultWork = 1 << 22

// budgetState meters solver work.  One unit is roughly one row
// combination, candidate probe, or enumeration step; every potentially
// super-linear loop spends from the shared pool.
type budgetState struct {
	work      int64
	exhausted bool
}

// spend debits n units and reports whether work may continue.
func (b *budgetState) spend(n int64) bool {
	if b.exhausted {
		return false
	}
	b.work -= n
	if b.work < 0 {
		b.exhausted = true
		return false
	}
	return true
}

// Solve searches for an assignment satisfying every predicate in pc.
// meta supplies variable domains; hint carries the previous run's input
// values, which seed don't-care choices (the paper preserves inputs not
// involved in the path constraint, and nearby solutions keep the
// execution prefix stable).  The returned map assigns every variable that
// occurs in pc (pointer variables to PtrNull/PtrAlloc); variables not
// occurring are absent and keep their old values.
func Solve(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64) (map[symbolic.Var]int64, bool) {
	sol, verdict := SolveWork(pc, meta, hint, DefaultWork)
	return sol, verdict == Sat
}

// SolveWork is Solve under an explicit work budget (<= 0 selects
// DefaultWork).  On exhaustion it returns the distinct BudgetExhausted
// verdict instead of conflating "too expensive" with "infeasible", so
// callers can degrade gracefully (clear completeness, keep searching)
// rather than either hanging or silently over-claiming.
func SolveWork(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64, work int64) (map[symbolic.Var]int64, Verdict) {
	sol, verdict, _ := SolveWorkStats(pc, meta, hint, work)
	return sol, verdict
}

// Stats reports the resources one solve consumed.
type Stats struct {
	// Work is the number of work units spent (deterministic: it depends
	// only on the constraint system, never on the wall clock), the unit
	// the engine's Fourier–Motzkin-work histogram is measured in.
	Work int64
}

// SolveWorkStats is SolveWork, additionally reporting how much of the
// budget the solve consumed so callers can meter solver effort.
func SolveWorkStats(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64, work int64) (map[symbolic.Var]int64, Verdict, Stats) {
	if work <= 0 {
		work = DefaultWork
	}
	budget := &budgetState{work: work}
	sol, ok := solve(pc, meta, hint, budget)
	spent := work - budget.work
	if spent > work {
		spent = work // the last spend may overdraw past zero
	}
	stats := Stats{Work: spent}
	switch {
	case ok:
		return sol, Sat, stats
	case budget.exhausted:
		return nil, BudgetExhausted, stats
	default:
		return nil, Unsat, stats
	}
}

func solve(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64, budget *budgetState) (map[symbolic.Var]int64, bool) {
	var intPreds []symbolic.Pred
	var ptrPreds []symbolic.Pred
	ptrVars := map[symbolic.Var]bool{}

	for _, p := range pc {
		if p.L == nil {
			return nil, false
		}
		p = symbolic.Pred{L: stripZeros(p.L), Rel: p.Rel}
		hasPtr, hasScalar := false, false
		for v := range p.L.Coeffs {
			if meta(v).Kind == symbolic.PointerVar {
				hasPtr = true
				ptrVars[v] = true
			} else {
				hasScalar = true
			}
		}
		switch {
		case hasPtr && hasScalar:
			// A predicate mixing pointer and arithmetic inputs (e.g. a
			// pointer cast into an int and combined with another input)
			// is outside what random_init can steer; give up.
			return nil, false
		case hasPtr:
			ptrPreds = append(ptrPreds, p)
		default:
			intPreds = append(intPreds, p)
		}
	}

	ptrAssign, ok := solvePointers(ptrPreds, ptrVars, hint, budget)
	if !ok {
		return nil, false
	}
	intAssign, ok := solveIntegers(intPreds, meta, hint, budget)
	if !ok {
		return nil, false
	}

	solution := make(map[symbolic.Var]int64, len(ptrAssign)+len(intAssign))
	for v, x := range ptrAssign {
		solution[v] = x
	}
	for v, x := range intAssign {
		solution[v] = x
	}
	// Complete the solution with hint values for variables the solver
	// never had to constrain: that is the value they will actually have
	// at runtime (IM + IM' preserves uninvolved inputs), so verification
	// must use it.
	for _, p := range intPreds {
		for v := range p.L.Coeffs {
			if _, ok := solution[v]; !ok {
				solution[v] = hint[v]
			}
		}
	}
	// Verify integer predicates exactly, with overflow-checked
	// evaluation: a candidate whose affine forms wrap int64 is rejected
	// (conservative Unsat) rather than accepted on the strength of
	// arithmetic that wrapped the same way twice.  Pointer predicates
	// were decided by definite three-valued evaluation inside
	// solvePointers.
	for _, p := range intPreds {
		if !holdsChecked(p, solution) {
			return nil, false
		}
	}
	return solution, true
}

// holdsChecked is Pred.Holds with overflow-checked evaluation; an
// overflowing evaluation counts as not holding.
func holdsChecked(p symbolic.Pred, assign map[symbolic.Var]int64) bool {
	v, ok := p.L.EvalChecked(assign)
	return ok && cmpInt(v, p.Rel)
}

// ------------------------------------------------------------- pointers

// tri is a three-valued truth value.
type tri int

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

// solvePointers enumerates {NULL, Alloc} assignments over the pointer
// variables and returns the first under which every pointer predicate is
// definitely true.  Assignments agreeing with the hint are tried first so
// don't-care pointers keep their previous shape.
func solvePointers(preds []symbolic.Pred, vars map[symbolic.Var]bool, hint map[symbolic.Var]int64, budget *budgetState) (map[symbolic.Var]int64, bool) {
	if len(preds) == 0 {
		return map[symbolic.Var]int64{}, true
	}
	ordered := make([]symbolic.Var, 0, len(vars))
	for v := range vars {
		ordered = append(ordered, v)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	n := len(ordered)
	if n > 16 || (1<<uint(n)) > maxPtrEnum {
		return nil, false
	}

	// prefs[i] is the value to try first for ordered[i].
	prefs := make([]int64, n)
	for i, v := range ordered {
		if h, ok := hint[v]; ok && h != 0 {
			prefs[i] = PtrAlloc
		} else if ok {
			prefs[i] = PtrNull
		} else {
			prefs[i] = PtrAlloc
		}
	}

	assign := map[symbolic.Var]int64{}
	for mask := 0; mask < (1 << uint(n)); mask++ {
		if !budget.spend(int64(len(preds)) + 1) {
			return nil, false
		}
		for i, v := range ordered {
			val := prefs[i]
			if mask&(1<<uint(i)) != 0 {
				val = PtrAlloc + PtrNull - val // flip
			}
			assign[v] = val
		}
		ok := true
		for _, p := range preds {
			if evalPtrPred(p, assign) != triTrue {
				ok = false
				break
			}
		}
		if ok {
			out := make(map[symbolic.Var]int64, n)
			for v, x := range assign {
				out[v] = x
			}
			return out, true
		}
	}
	return nil, false
}

// evalPtrPred evaluates L ⋈ 0 when each pointer variable is NULL (0) or a
// fresh allocation (an unknown, pairwise-distinct, very large positive
// address).  Substituting NULLs leaves  Σ cᵢ·aᵢ + k  over alloc vars aᵢ:
//
//   - no alloc vars: definite integer comparison;
//   - alloc vars all of one sign: the value is ±∞, definite;
//   - the special anti-aliasing shape a - b (+0): nonzero but of unknown
//     sign, so == is false and != is true;
//   - anything else: unknown.
func evalPtrPred(p symbolic.Pred, assign map[symbolic.Var]int64) tri {
	var alloc []int64
	for v, c := range p.L.Coeffs {
		if assign[v] != PtrNull {
			alloc = append(alloc, c)
		}
	}
	return ptrTruth(p.L.Const, p.Rel, alloc)
}

// ptrTruth is evalPtrPred over the form's constant k and the
// coefficients of its allocated (non-NULL) variables.
func ptrTruth(k int64, rel symbolic.Rel, alloc []int64) tri {
	pos, neg := 0, 0
	for _, c := range alloc {
		if c > 0 {
			pos++
		} else {
			neg++
		}
	}
	switch {
	case len(alloc) == 0:
		return defTruth(cmpInt(k, rel))
	case pos > 0 && neg == 0:
		return defTruth(cmpInf(+1, rel))
	case neg > 0 && pos == 0:
		return defTruth(cmpInf(-1, rel))
	case len(alloc) == 2 && k == 0 &&
		((alloc[0] == 1 && alloc[1] == -1) ||
			(alloc[0] == -1 && alloc[1] == 1)):
		// a - b with distinct allocations: nonzero, unknown sign.
		switch rel {
		case symbolic.EQ:
			return triFalse
		case symbolic.NE:
			return triTrue
		}
		return triUnknown
	default:
		return triUnknown
	}
}

func defTruth(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

func cmpInt(v int64, rel symbolic.Rel) bool {
	switch rel {
	case symbolic.EQ:
		return v == 0
	case symbolic.NE:
		return v != 0
	case symbolic.LT:
		return v < 0
	case symbolic.LE:
		return v <= 0
	case symbolic.GT:
		return v > 0
	case symbolic.GE:
		return v >= 0
	}
	return false
}

// cmpInf compares ±∞ against 0.
func cmpInf(sign int, rel symbolic.Rel) bool {
	if sign > 0 {
		return rel == symbolic.NE || rel == symbolic.GT || rel == symbolic.GE
	}
	return rel == symbolic.NE || rel == symbolic.LT || rel == symbolic.LE
}

// ------------------------------------------------------------- integers

// cons is the canonical constraint  L ≤ 0  or  L = 0.
type cons struct {
	l  *symbolic.Lin
	eq bool
}

// solveIntegers decides a conjunction of affine predicates over bounded
// integer variables.
func solveIntegers(preds []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64, budget *budgetState) (map[symbolic.Var]int64, bool) {
	if len(preds) == 0 {
		return map[symbolic.Var]int64{}, true
	}
	base := make([]cons, 0, len(preds))
	var splits []*symbolic.Lin // NE constraints, split lazily

	for _, p := range preds {
		if p.Rel == symbolic.NE {
			splits = append(splits, p.L.Clone())
			continue
		}
		var c cons
		switch p.Rel {
		case symbolic.EQ:
			c = cons{l: p.L.Clone(), eq: true}
		case symbolic.LE:
			c = cons{l: p.L.Clone()}
		case symbolic.LT: // L < 0  ⇔  L + 1 ≤ 0 over ℤ
			c = cons{l: shiftConst(p.L, 1)}
		case symbolic.GE: // L ≥ 0  ⇔  -L ≤ 0
			c = cons{l: symbolic.Scale(p.L, -1)}
		case symbolic.GT: // L > 0  ⇔  -L + 1 ≤ 0
			c = cons{l: shiftConst(symbolic.Scale(p.L, -1), 1)}
		}
		if c.l == nil {
			return nil, false
		}
		base = append(base, c)
	}

	s := &intSolver{meta: meta, hint: hint, budget: maxNESplits, work: budget}
	return s.search(base, splits)
}

// violatedNE returns the index of the first disequality violated by the
// assignment (vars absent from the assignment read as their hint), or -1.
func violatedNE(splits []*symbolic.Lin, assign, hint map[symbolic.Var]int64) int {
	for i, l := range splits {
		total := l.Const
		for v, c := range l.Coeffs {
			val, ok := assign[v]
			if !ok {
				val = hint[v]
			}
			total += c * val
		}
		if total == 0 {
			return i
		}
	}
	return -1
}

func shiftConst(l *symbolic.Lin, d int64) *symbolic.Lin {
	if l == nil {
		return nil
	}
	c := l.Clone()
	c.Const += d
	return c
}

type intSolver struct {
	meta   func(symbolic.Var) VarMeta
	hint   map[symbolic.Var]int64
	budget int
	// nodes counts back-substitution search nodes across the whole
	// Solve call, bounding total work.
	nodes int
	// work is the caller's shared work budget; exhausting it makes the
	// whole solve fail with the BudgetExhausted verdict.
	work *budgetState
}

// search decides base ∧ splits with lazy disequality handling: the EQ/LE
// core is solved first (if it is UNSAT the disequalities cannot rescue
// it), and only disequalities actually violated by the core solution are
// split — each as L+1 ≤ 0 (L < 0) or -L+1 ≤ 0 (L > 0), hint branch
// first.  Generic solutions rarely land on excluded hyperplanes, so most
// solves never split at all.
func (s *intSolver) search(base []cons, splits []*symbolic.Lin) (map[symbolic.Var]int64, bool) {
	if s.budget <= 0 || !s.work.spend(int64(len(base)+len(splits))+1) {
		return nil, false
	}
	s.budget--
	sol, ok := s.solveCore(base)
	if !ok {
		return nil, false
	}
	i := violatedNE(splits, sol, s.hint)
	if i < 0 {
		return sol, true
	}
	l := splits[i]
	rest := make([]*symbolic.Lin, 0, len(splits)-1)
	rest = append(rest, splits[:i]...)
	rest = append(rest, splits[i+1:]...)
	negBranch := cons{l: shiftConst(l, 1)}                     // L < 0
	posBranch := cons{l: shiftConst(symbolic.Scale(l, -1), 1)} // L > 0
	first, second := negBranch, posBranch
	if l.Eval(s.hint) > 0 {
		first, second = posBranch, negBranch
	}
	if sol, ok := s.search(append(append([]cons{}, base...), first), rest); ok {
		return sol, true
	}
	return s.search(append(append([]cons{}, base...), second), rest)
}

// solveCore decides a conjunction of equalities and ≤-inequalities.
func (s *intSolver) solveCore(all []cons) (map[symbolic.Var]int64, bool) {
	// Phase 1: equality substitution.
	type substitution struct {
		v    symbolic.Var
		expr *symbolic.Lin // v = expr
	}
	var subs []substitution
	var ineqs []*symbolic.Lin
	eqs := []*symbolic.Lin{}
	for _, c := range all {
		if c.eq {
			eqs = append(eqs, c.l)
		} else {
			ineqs = append(ineqs, c.l)
		}
	}

	for len(eqs) > 0 {
		l := eqs[0]
		eqs = eqs[1:]
		if l.IsConst() {
			if l.Const != 0 {
				return nil, false
			}
			continue
		}
		// Find a ±1 coefficient to substitute on (smallest id for
		// determinism).
		var pivot symbolic.Var
		found := false
		for v, c := range l.Coeffs {
			if (c == 1 || c == -1) && (!found || v < pivot) {
				pivot, found = v, true
			}
		}
		if !found {
			// Check gcd feasibility, then relax into two inequalities.
			g := int64(0)
			for _, c := range l.Coeffs {
				g = gcd(g, abs64(c))
			}
			if g != 0 && l.Const%g != 0 {
				return nil, false
			}
			neg := symbolic.Scale(l, -1)
			if neg == nil {
				return nil, false
			}
			ineqs = append(ineqs, l, neg)
			continue
		}
		// pivot·c + rest = 0  ⇒  pivot = -rest/c  (c = ±1).
		c := l.Coeff(pivot)
		rest := l.Clone()
		delete(rest.Coeffs, pivot)
		expr := symbolic.Scale(rest, -c) // c = ±1 so -1/c == -c
		if expr == nil {
			return nil, false
		}
		// The pivot's own domain must still be honored after
		// substitution: Lo ≤ expr ≤ Hi.
		m := s.meta(pivot)
		up := shiftConst(expr, -m.Hi) // expr - Hi ≤ 0
		lo := symbolic.Scale(expr, -1)
		if up == nil || lo == nil {
			return nil, false
		}
		lo = shiftConst(lo, m.Lo) // Lo - expr ≤ 0
		ineqs = append(ineqs, up, lo)
		subs = append(subs, substitution{v: pivot, expr: expr})
		replace := func(t *symbolic.Lin) *symbolic.Lin {
			k := t.Coeff(pivot)
			if k == 0 {
				return t
			}
			t2 := t.Clone()
			delete(t2.Coeffs, pivot)
			scaled := symbolic.Scale(expr, k)
			if scaled == nil {
				return nil
			}
			return symbolic.Add(t2, scaled)
		}
		if !s.work.spend(int64(len(eqs) + len(ineqs))) {
			return nil, false
		}
		for i := range eqs {
			if eqs[i] = replace(eqs[i]); eqs[i] == nil {
				return nil, false
			}
		}
		for i := range ineqs {
			if ineqs[i] = replace(ineqs[i]); ineqs[i] == nil {
				return nil, false
			}
		}
	}

	// Phase 2: Fourier–Motzkin elimination over the inequalities.
	assign, ok := s.fourierMotzkin(ineqs)
	if !ok {
		return nil, false
	}

	// Phase 3: back-substitute eliminated equality variables (reverse
	// order so each expr only mentions already-assigned variables or
	// don't-cares, which default to their hints / zero).
	for i := len(subs) - 1; i >= 0; i-- {
		sub := subs[i]
		for v := range sub.expr.Coeffs {
			if _, have := assign[v]; !have {
				assign[v] = s.hint[v]
			}
		}
		assign[sub.v] = sub.expr.Eval(assign)
	}
	return assign, true
}

// varBounds is a variable's current integer interval.
type varBounds struct{ lo, hi int64 }

type fmStage struct {
	v    symbolic.Var
	rows []*symbolic.Lin // multi-var constraints mentioning v at elimination time
	// bnd is v's interval (domain + single-var rows) at elimination time.
	bnd varBounds
}

// fourierMotzkin decides a conjunction of ≤-rows over bounded integers.
//
// Single-variable rows are folded into per-variable intervals instead of
// participating in elimination — in DART path constraints the vast
// majority of predicates compare one input against constants, so this
// keeps the genuinely multi-variable system tiny.  Variables are then
// eliminated one at a time; each elimination pairs the variable's upper
// rows (plus its interval's upper bound) with its lower rows (plus the
// interval's lower bound), emits the gcd-normalized real-shadow
// combinations, and records the stage for back-substitution.
func (s *intSolver) fourierMotzkin(ineqs []*symbolic.Lin) (map[symbolic.Var]int64, bool) {
	bnd := map[symbolic.Var]varBounds{}
	getBnd := func(v symbolic.Var) varBounds {
		b, ok := bnd[v]
		if !ok {
			m := s.meta(v)
			b = varBounds{lo: m.Lo, hi: m.Hi}
			bnd[v] = b
		}
		return b
	}
	// tighten folds the single-var row c·v + k ≤ 0 into v's interval.
	tighten := func(l *symbolic.Lin) bool {
		var v symbolic.Var
		for w := range l.Coeffs {
			v = w
		}
		c := l.Coeff(v)
		b := getBnd(v)
		if c > 0 { // v ≤ ⌊-k/c⌋
			if u := floorDiv(-l.Const, c); u < b.hi {
				b.hi = u
			}
		} else { // v ≥ ⌈-k/c⌉
			if lo := ceilDiv(-l.Const, c); lo > b.lo {
				b.lo = lo
			}
		}
		bnd[v] = b
		return b.lo <= b.hi
	}

	var sys []*symbolic.Lin
	for _, l := range ineqs {
		switch len(l.Coeffs) {
		case 0:
			if l.Const > 0 {
				return nil, false
			}
		case 1:
			if !tighten(l) {
				return nil, false
			}
		default:
			sys = append(sys, l)
		}
	}
	sys = dedupe(sys)

	var stages []fmStage
	for {
		// Pick the variable occurring in the fewest rows (cheapest FM
		// step); ties break on the smaller id for determinism.
		occ := map[symbolic.Var]int{}
		for _, l := range sys {
			for v := range l.Coeffs {
				occ[v]++
			}
		}
		if len(occ) == 0 {
			break
		}
		var pick symbolic.Var
		best := int(^uint(0) >> 1)
		for v, n := range occ {
			if n < best || (n == best && v < pick) {
				best, pick = n, v
			}
		}

		var uppers, lowers, rest, mine []*symbolic.Lin
		for _, l := range sys {
			c := l.Coeff(pick)
			switch {
			case c > 0:
				uppers = append(uppers, l)
				mine = append(mine, l)
			case c < 0:
				lowers = append(lowers, l)
				mine = append(mine, l)
			default:
				rest = append(rest, l)
			}
		}
		pb := getBnd(pick)
		// The interval contributes one upper and one lower row.
		upBnd := symbolic.NewVar(pick)
		upBnd.Const = -pb.hi
		loBnd := symbolic.Scale(symbolic.NewVar(pick), -1)
		loBnd.Const = pb.lo
		uppers = append(uppers, upBnd)
		lowers = append(lowers, loBnd)
		stages = append(stages, fmStage{v: pick, rows: mine, bnd: pb})

		if len(uppers)*len(lowers) > maxCombos {
			return nil, false
		}
		// Each elimination step emits |uppers|·|lowers| row products; this
		// is the solver's super-linear core, so it is the main charge.
		if !s.work.spend(int64(len(uppers)) * int64(len(lowers))) {
			return nil, false
		}
		for _, u := range uppers {
			for _, lo := range lowers {
				a := u.Coeff(pick)   // a > 0
				b := -lo.Coeff(pick) // b > 0
				// b·u + a·lo ≤ 0 eliminates pick (real shadow).
				su := symbolic.Scale(u, b)
				sl := symbolic.Scale(lo, a)
				if su == nil || sl == nil {
					return nil, false
				}
				comb := symbolic.Add(su, sl)
				if comb == nil {
					return nil, false
				}
				delete(comb.Coeffs, pick)
				comb = normalizeRow(comb)
				switch len(comb.Coeffs) {
				case 0:
					if comb.Const > 0 {
						return nil, false
					}
				case 1:
					if !tighten(comb) {
						return nil, false
					}
				default:
					rest = append(rest, comb)
					if len(rest) > maxConstraints {
						return nil, false
					}
				}
			}
		}
		sys = dedupe(rest)
	}

	// Variables that were never eliminated — they appear in staged rows
	// or carry tightened intervals but dropped out of the multi-var
	// system — still need values, and those values interact with the
	// staged variables' intervals (the Diophantine alignment), so they
	// become rowless stages searched *before* the eliminated variables.
	staged := map[symbolic.Var]bool{}
	for _, st := range stages {
		staged[st.v] = true
	}
	var free []symbolic.Var
	for _, st := range stages {
		for _, row := range st.rows {
			for v := range row.Coeffs {
				if !staged[v] {
					staged[v] = true
					free = append(free, v)
				}
			}
		}
	}
	for v := range bnd {
		if !staged[v] {
			staged[v] = true
			free = append(free, v)
		}
	}
	sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
	for _, v := range free {
		stages = append(stages, fmStage{v: v, bnd: getBnd(v)})
	}

	// Back-substitution, last-eliminated first.  Fourier–Motzkin's real
	// shadow is necessary but not sufficient over the integers (e.g.
	// 3a - 2b = 17 constrains a's interval to a single rational that may
	// not be integral for the chosen b), so the assignment is searched
	// with bounded backtracking: each variable tries several candidate
	// values inside its interval before the previous choice is revised.
	assign := map[symbolic.Var]int64{}
	if !s.backSubst(stages, len(stages)-1, assign) {
		return nil, false
	}
	return assign, true
}

// backSubst assigns stages[i], stages[i-1], ..., stages[0] (reverse
// elimination order), backtracking over candidate values when a later
// interval turns out integer-empty.  The node budget is shared across
// the whole Solve call.
func (s *intSolver) backSubst(stages []fmStage, i int, assign map[symbolic.Var]int64) bool {
	if i < 0 {
		return true
	}
	st := stages[i]
	lo, hi, ok := interval(st.v, st.bnd, st.rows, assign, s.hint)
	if !ok || lo > hi {
		return false
	}
	for _, cand := range candidates(lo, hi, s.hint, st.v) {
		s.nodes++
		if s.nodes > maxNodes || !s.work.spend(int64(len(st.rows))+1) {
			return false
		}
		assign[st.v] = cand
		if s.backSubst(stages, i-1, assign) {
			return true
		}
	}
	delete(assign, st.v)
	return false
}

// backtracking budget for integer repair during back-substitution.
const (
	maxCandidates = 12
	maxNodes      = 20000
)

// candidates enumerates up to maxCandidates values in [lo, hi], starting
// from the hint and zero, then scanning adjacent values so that
// divisibility constraints with small moduli are always repaired.
func candidates(lo, hi int64, hint map[symbolic.Var]int64, v symbolic.Var) []int64 {
	var out []int64
	seen := map[int64]bool{}
	add := func(x int64) {
		if x >= lo && x <= hi && !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	if h, ok := hint[v]; ok {
		add(h)
	}
	add(0)
	// Scan outward from a base point inside the interval.
	base := lo
	if lo <= 0 && hi >= 0 {
		base = 0
	} else if hi < 0 {
		base = hi
	}
	for d := int64(0); len(out) < maxCandidates && d <= hi-lo; d++ {
		add(base + d)
		add(base - d)
	}
	return out
}

// interval computes the integer interval for v implied by its domain
// interval and rows, with all other variables read from assign (or hint
// for don't-cares).
func interval(v symbolic.Var, b varBounds, rows []*symbolic.Lin, assign, hint map[symbolic.Var]int64) (int64, int64, bool) {
	lo, hi := b.lo, b.hi
	for _, l := range rows {
		c := l.Coeff(v)
		restVal := l.Const
		for w, cw := range l.Coeffs {
			if w == v {
				continue
			}
			val, have := assign[w]
			if !have {
				val = hint[w]
				assign[w] = val
			}
			restVal += cw * val
		}
		// c·v + restVal ≤ 0.
		switch {
		case c > 0: // v ≤ floor(-restVal / c)
			if u := floorDiv(-restVal, c); u < hi {
				hi = u
			}
		case c < 0: // v ≥ ceil(-restVal / c)
			if l := ceilDiv(-restVal, c); l > lo {
				lo = l
			}
		default:
			if restVal > 0 {
				return 0, 0, false
			}
		}
	}
	return lo, hi, true
}

// normalizeRow divides a row Σc·x + k ≤ 0 by the gcd g of its
// coefficients, tightening the constant to the integer bound:
// Σ(c/g)·x ≤ ⌊-k/g⌋.  This is the classic integer strengthening that
// keeps Fourier–Motzkin coefficients small.
func normalizeRow(l *symbolic.Lin) *symbolic.Lin {
	g := int64(0)
	for _, c := range l.Coeffs {
		g = gcd(g, abs64(c))
	}
	if g <= 1 {
		return l
	}
	out := &symbolic.Lin{Coeffs: make(map[symbolic.Var]int64, len(l.Coeffs))}
	for v, c := range l.Coeffs {
		out.Coeffs[v] = c / g
	}
	out.Const = -floorDiv(-l.Const, g)
	return out
}

// dedupe collapses rows with identical coefficient vectors, keeping the
// tightest (largest) constant, via a hash key.
func dedupe(rows []*symbolic.Lin) []*symbolic.Lin {
	byKey := make(map[string]int, len(rows))
	out := rows[:0]
	var key strings.Builder
	for _, l := range rows {
		key.Reset()
		for _, v := range l.Vars() {
			fmt.Fprintf(&key, "%d:%d;", v, l.Coeffs[v])
		}
		k := key.String()
		if idx, ok := byKey[k]; ok {
			if l.Const > out[idx].Const {
				out[idx] = l
			}
			continue
		}
		byKey[k] = len(out)
		out = append(out, l)
	}
	return out
}

const (
	maxInt64 = int64(^uint64(0) >> 1)
	minInt64 = -maxInt64 - 1
)

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
