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
//
// A solve runs on dense rows over the constraint's own variables (see
// system) and visits them in ascending order, so its answer is a pure
// function of its input, never of Go's map iteration order.
package solver

import (
	"math"
	"slices"
	"sync"

	"dart/internal/symbolic"
)

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

// ----------------------------------------------------------- dense rows

// system is one solve in dense form.  The constraint's variables are
// numbered 0..n-1 in ascending Var order, and a row is their n
// coefficients followed by its constant.  Each predicate is read into a
// row once on entry and the model map is built once on exit; in between
// every row lies in rows, named by its offset and never changed once
// written, and systems are reused through a sync.Pool.  The steps,
// their order and the work they charge are those of the map-based core
// in oracle_test.go, the differential oracle.
type system struct {
	vars   []symbolic.Var // ascending
	meta   []VarMeta      // by variable
	hint   []int64        // by variable, 0 when unhinted
	hinted []bool
	w      int     // row width: n coefficients and the constant
	rows   []int64 // every row of the solve, w int64s each
	tmp    []int64 // the row being combined

	terms []term  // every predicate's nonzero terms, in entry order
	tend  []int32 // where each predicate's terms end
	preds []int32 // each predicate's row
	ptrs  []int32 // the pointer predicates, by index in pc
	ints  []int32 // the other predicates, by index in pc
	pvars []int32 // the pointer variables
	alloc []int64 // a pointer predicate's allocated-variable coefficients

	// The integer search: a stack of constraints and one of disequality
	// lists, pushed by splits and popped on return, and the limits the
	// whole solve shares.
	base   []cons
	stack  []int32
	splits int // disequality splits left
	nodes  int // back-substitution nodes taken
	work   *budgetState

	// One core solve.  val and has hold the assignment, by variable.
	val            []int64
	has            []bool
	eqs, ineqs     []int32
	subs           []sub
	bnd            []varBounds
	hasBnd         []bool
	sys, rest      []int32
	uppers, lowers []int32
	occ            []int32 // per variable: rows mentioning it, then a mark
	stages         []stage
	mine           []int32 // the stages' rows, stage by stage
	cands          []int64 // the candidate lists of the stages being tried
	table          []int32 // dedupe's hash table
}

// term is one nonzero term of a predicate, as read on entry.
type term struct {
	v symbolic.Var
	c int64
}

// cons is the canonical constraint  row ≤ 0  or  row = 0.
type cons struct {
	row int32
	eq  bool
}

// sub records one equality substitution: variable v = the row expr.
type sub struct{ v, expr int32 }

// stage is one variable's step of back-substitution: its interval at
// elimination time (domain plus single-variable rows), and the rows
// mine[from:to] that mentioned it then (none for a variable that was
// never eliminated).
type stage struct {
	v, from, to int32
	bnd         varBounds
}

var systems = sync.Pool{New: func() any { return new(system) }}

// maxPooledRows bounds the row memory a pooled system keeps: the
// scratch of an exceptional solve is left to the collector.
const maxPooledRows = 1 << 16

func solve(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64, budget *budgetState) (map[symbolic.Var]int64, bool) {
	s := systems.Get().(*system)
	defer func() {
		if cap(s.rows) <= maxPooledRows {
			systems.Put(s)
		}
	}()
	if !s.load(pc, meta, hint) || !s.solvePointers(pc, budget) || !s.solveIntegers(pc, budget) {
		return nil, false
	}
	// Verify integer predicates exactly, with overflow-checked
	// evaluation in ascending variable order: a candidate whose affine
	// forms wrap int64 is rejected (conservative Unsat) rather than
	// accepted on the strength of arithmetic that wrapped the same way
	// twice.  Pointer predicates were decided by definite three-valued
	// evaluation inside solvePointers.
	n := s.w - 1
	for _, i := range s.ints {
		row := s.row(s.preds[i])
		total, ok := row[n], true
		for j, c := range row[:n] {
			var p int64
			if p, ok = symbolic.CheckedMul(c, s.value(j)); !ok {
				break
			}
			if total, ok = symbolic.CheckedAdd(total, p); !ok {
				break
			}
		}
		if !ok || !cmpInt(total, pc[i].Rel) {
			return nil, false
		}
	}
	model := make(map[symbolic.Var]int64, n)
	for j, v := range s.vars {
		model[v] = s.value(j)
	}
	return model, true
}

// value is variable j's value in the model.  A variable the solver
// never had to constrain keeps its hint (0 when unhinted): that is the
// value it will actually have at runtime (IM + IM' preserves uninvolved
// inputs), so verification must use it.
func (s *system) value(j int) int64 {
	if s.has[j] || s.meta[j].Kind == symbolic.PointerVar {
		return s.val[j]
	}
	return s.hint[j]
}

// load reads pc into s: its variables, their domains and hints, and
// one row per predicate.  It reports false for the give-ups that need
// no search: a nil form, or a predicate mixing pointer and arithmetic
// inputs (e.g. a pointer cast into an int and combined with another
// input), which is outside what random_init can steer.
func (s *system) load(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64) bool {
	s.terms, s.tend, s.vars = s.terms[:0], s.tend[:0], s.vars[:0]
	for _, p := range pc {
		if p.L == nil {
			return false
		}
		for v, c := range p.L.Coeffs {
			if c != 0 {
				s.terms = append(s.terms, term{v, c})
				s.vars = append(s.vars, v)
			}
		}
		s.tend = append(s.tend, int32(len(s.terms)))
	}
	slices.Sort(s.vars)
	s.vars = slices.Compact(s.vars)
	n := len(s.vars)
	s.w = n + 1
	s.meta, s.hint, s.hinted = s.meta[:0], s.hint[:0], s.hinted[:0]
	for _, v := range s.vars {
		h, ok := hint[v]
		s.meta, s.hint, s.hinted = append(s.meta, meta(v)), append(s.hint, h), append(s.hinted, ok)
	}
	s.val, s.has, s.tmp = zeroed(s.val, n), zeroed(s.has, n), zeroed(s.tmp, s.w)
	s.rows, s.preds, s.ptrs, s.ints = s.rows[:0], s.preds[:0], s.ptrs[:0], s.ints[:0]
	from := int32(0)
	for i, p := range pc {
		r := s.newRow()
		row := s.row(r)
		ptr, scalar := false, false
		for _, t := range s.terms[from:s.tend[i]] {
			j, _ := slices.BinarySearch(s.vars, t.v)
			row[j] = t.c
			if s.meta[j].Kind == symbolic.PointerVar {
				ptr = true
			} else {
				scalar = true
			}
		}
		row[n], from = p.L.Const, s.tend[i]
		s.preds = append(s.preds, r)
		switch {
		case ptr && scalar:
			return false
		case ptr:
			s.ptrs = append(s.ptrs, int32(i))
		default:
			s.ints = append(s.ints, int32(i))
		}
	}
	return true
}

// row returns the row at offset r, valid until the next newRow.
func (s *system) row(r int32) []int64 { return s.rows[r : int(r)+s.w] }

// newRow appends a zero row and returns its offset.
func (s *system) newRow() int32 {
	r := int32(len(s.rows))
	s.rows = append(s.rows, make([]int64, s.w)...)
	return r
}

// zeroed returns b holding n zero elements, in b's array if it fits.
func zeroed[T any](b []T, n int) []T { return append(b[:0], make([]T, n)...) }

// affine appends the row k·r + d, with column drop (unless -1) zeroed:
// the products are checked as Scale checks them, and the shift of the
// constant by d is not checked.  It reports false on overflow.
func (s *system) affine(r int32, k, d int64, drop int) (int32, bool) {
	out := s.newRow()
	dst, src := s.row(out), s.row(r)
	for j, x := range src {
		if j == drop {
			continue
		}
		p, ok := symbolic.MulOverflow(x, k)
		if !ok {
			return 0, false
		}
		dst[j] = p
	}
	dst[s.w-1] += d
	return out, true
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
// variables and keeps, in val, the first under which every pointer
// predicate is definitely true.  Assignments agreeing with the hint are
// tried first so don't-care pointers keep their previous shape.
func (s *system) solvePointers(pc []symbolic.Pred, budget *budgetState) bool {
	if len(s.ptrs) == 0 {
		return true
	}
	n := s.w - 1
	s.pvars = s.pvars[:0]
	for j := range s.vars {
		if s.meta[j].Kind == symbolic.PointerVar {
			s.pvars = append(s.pvars, int32(j))
		}
	}
	if len(s.pvars) > 16 || 1<<len(s.pvars) > maxPtrEnum {
		return false
	}
	for mask := 0; mask < 1<<len(s.pvars); mask++ {
		if !budget.spend(int64(len(s.ptrs)) + 1) {
			return false
		}
		for k, j := range s.pvars {
			x := PtrAlloc // tried first unless the hint is NULL
			if s.hinted[j] && s.hint[j] == 0 {
				x = PtrNull
			}
			if mask&(1<<k) != 0 {
				x = PtrAlloc + PtrNull - x // flip
			}
			s.val[j] = x
		}
		ok := true
		for _, i := range s.ptrs {
			row := s.row(s.preds[i])
			alloc := s.alloc[:0]
			for _, j := range s.pvars {
				if row[j] != 0 && s.val[j] != PtrNull {
					alloc = append(alloc, row[j])
				}
			}
			s.alloc = alloc
			if ptrTruth(row[n], pc[i].Rel, alloc) != triTrue {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// ptrTruth evaluates L ⋈ 0 when each pointer variable is NULL (0) or a
// fresh allocation (an unknown, pairwise-distinct, very large positive
// address), from L's constant k and its allocated variables'
// coefficients alloc, in any order.  That leaves  Σ cᵢ·aᵢ + k:
//
//   - no alloc vars: definite integer comparison;
//   - alloc vars all of one sign: the value is ±∞, definite;
//   - the special anti-aliasing shape a - b (+0): nonzero but of unknown
//     sign, so == is false and != is true;
//   - anything else: unknown.
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

// solveIntegers decides the integer predicates over bounded variables,
// leaving the assignment in val and has.
func (s *system) solveIntegers(pc []symbolic.Pred, budget *budgetState) bool {
	if len(s.ints) == 0 {
		return true
	}
	s.base, s.stack = s.base[:0], s.stack[:0]
	for _, i := range s.ints {
		c, ok := cons{row: s.preds[i]}, true
		switch pc[i].Rel {
		case symbolic.NE: // split lazily
			s.stack = append(s.stack, c.row)
			continue
		case symbolic.EQ:
			c.eq = true
		case symbolic.LE:
		case symbolic.LT: // L < 0  ⇔  L + 1 ≤ 0 over ℤ
			c.row, ok = s.affine(c.row, 1, 1, -1)
		case symbolic.GE: // L ≥ 0  ⇔  -L ≤ 0
			c.row, ok = s.affine(c.row, -1, 0, -1)
		case symbolic.GT: // L > 0  ⇔  -L + 1 ≤ 0
			c.row, ok = s.affine(c.row, -1, 1, -1)
		default:
			ok = false
		}
		if !ok {
			return false
		}
		s.base = append(s.base, c)
	}
	s.splits, s.nodes, s.work = maxNESplits, 0, budget
	return s.search(len(s.base), s.stack)
}

// search decides base[:nb] ∧ splits with lazy disequality handling: the
// EQ/LE core is solved first (if it is UNSAT the disequalities cannot
// rescue it), and only disequalities actually violated by the core
// solution are split — each as L+1 ≤ 0 (L < 0) or -L+1 ≤ 0 (L > 0),
// hint branch first.  Generic solutions rarely land on excluded
// hyperplanes, so most solves never split at all.  A branch pushes its
// constraint on base and its remaining disequalities on stack, and the
// rows a step makes are dropped when it returns.
func (s *system) search(nb int, splits []int32) bool {
	if s.splits <= 0 || !s.work.spend(int64(nb+len(splits))+1) {
		return false
	}
	s.splits--
	mark := len(s.rows)
	ok := s.solveCore(s.base[:nb])
	s.rows = s.rows[:mark]
	if !ok {
		return false
	}
	i := s.violatedNE(splits)
	if i < 0 {
		return true
	}
	l, top := splits[i], len(s.stack)
	s.stack = append(append(s.stack, splits[:i]...), splits[i+1:]...)
	rest := s.stack[top:]
	neg, _ := s.affine(l, 1, 1, -1)   // L < 0
	pos, ok := s.affine(l, -1, 1, -1) // L > 0
	if !ok {
		return false
	}
	// The branch the hint satisfies goes first (unhinted variables
	// read as 0).
	row, n := s.row(l), s.w-1
	h, first, second := row[n], neg, pos
	for j, c := range row[:n] {
		h += c * s.hint[j]
	}
	if h > 0 {
		first, second = pos, neg
	}
	s.base = append(s.base[:nb], cons{row: first})
	if s.search(nb+1, rest) {
		return true
	}
	s.base = append(s.base[:nb], cons{row: second})
	ok = s.search(nb+1, rest)
	s.stack, s.rows = s.stack[:top], s.rows[:mark]
	return ok
}

// violatedNE returns the index of the first disequality violated by the
// assignment (unassigned variables read as their hint), or -1.
func (s *system) violatedNE(splits []int32) int {
	n := s.w - 1
	for i, r := range splits {
		row := s.row(r)
		total := row[n]
		for j, c := range row[:n] {
			total += c * s.value(j)
		}
		if total == 0 {
			return i
		}
	}
	return -1
}

// solveCore decides a conjunction of equalities and ≤-inequalities,
// leaving the solution in val and has.
func (s *system) solveCore(base []cons) bool {
	n := s.w - 1
	clear(s.has)
	// Phase 1: equality substitution.
	s.eqs, s.ineqs, s.subs = s.eqs[:0], s.ineqs[:0], s.subs[:0]
	for _, c := range base {
		if c.eq {
			s.eqs = append(s.eqs, c.row)
		} else {
			s.ineqs = append(s.ineqs, c.row)
		}
	}
	for k := 0; k < len(s.eqs); k++ {
		r := s.eqs[k]
		row := s.row(r)
		// Find a ±1 coefficient to substitute on (smallest variable for
		// determinism).
		p, isConst := -1, true
		for j, c := range row[:n] {
			isConst = isConst && c == 0
			if p < 0 && (c == 1 || c == -1) {
				p = j
			}
		}
		if isConst {
			if row[n] != 0 {
				return false
			}
			continue
		}
		if p < 0 {
			// Check gcd feasibility, then relax into two inequalities.
			// abs64(MinInt64) is negative, so the gcd depends on the
			// order of the terms: they are taken in ascending order.
			g := int64(0)
			for _, c := range row[:n] {
				g = gcd(g, abs64(c))
			}
			if g != 0 && row[n]%g != 0 {
				return false
			}
			neg, ok := s.affine(r, -1, 0, -1)
			if !ok {
				return false
			}
			s.ineqs = append(s.ineqs, r, neg)
			continue
		}
		// pivot·c + rest = 0  ⇒  pivot = -rest/c  (c = ±1, so -1/c = -c).
		expr, ok := s.affine(r, -row[p], 0, p)
		if !ok {
			return false
		}
		// The pivot's own domain must still be honored after
		// substitution: Lo ≤ expr ≤ Hi.
		m := s.meta[p]
		up, _ := s.affine(expr, 1, -m.Hi, -1)  // expr - Hi ≤ 0
		lo, ok := s.affine(expr, -1, m.Lo, -1) // Lo - expr ≤ 0
		if !ok {
			return false
		}
		s.ineqs = append(s.ineqs, up, lo)
		s.subs = append(s.subs, sub{int32(p), expr})
		if !s.work.spend(int64(len(s.eqs) - k - 1 + len(s.ineqs))) {
			return false
		}
		if !s.substitute(s.eqs[k+1:], p, expr) || !s.substitute(s.ineqs, p, expr) {
			return false
		}
	}

	// Phase 2: Fourier–Motzkin elimination over the inequalities.
	if !s.fourierMotzkin() {
		return false
	}

	// Phase 3: back-substitute eliminated equality variables (reverse
	// order so each expr only mentions already-assigned variables or
	// don't-cares, which take their hints, 0 when unhinted).
	for i := len(s.subs) - 1; i >= 0; i-- {
		sb := s.subs[i]
		row := s.row(sb.expr)
		x := row[n]
		for j, c := range row[:n] {
			if c == 0 {
				continue
			}
			if !s.has[j] {
				s.val[j], s.has[j] = s.hint[j], true
			}
			x += c * s.val[j]
		}
		s.val[sb.v], s.has[sb.v] = x, true
	}
	return true
}

// substitute replaces variable p by the row expr in each row of list
// that mentions it: t - t[p]·p + t[p]·expr, with the product and the
// sum checked as Scale and Add check them.  It reports false on
// overflow.
func (s *system) substitute(list []int32, p int, expr int32) bool {
	for i, t := range list {
		k := s.rows[int(t)+p]
		if k == 0 {
			continue
		}
		out := s.newRow()
		dst, src, e := s.row(out), s.row(t), s.row(expr)
		for j := range dst {
			x, ok := symbolic.MulOverflow(e[j], k) // e[p] is 0
			if ok && j != p {
				x, ok = symbolic.CheckedAdd(src[j], x)
			}
			if !ok {
				return false
			}
			dst[j] = x
		}
		list[i] = out
	}
	return true
}

// varBounds is a variable's current integer interval.
type varBounds struct{ lo, hi int64 }

// fourierMotzkin decides the conjunction of the ≤-rows in ineqs over
// bounded integers, leaving the assignment in val and has.
//
// Single-variable rows are folded into per-variable intervals instead of
// participating in elimination — in DART path constraints the vast
// majority of predicates compare one input against constants, so this
// keeps the genuinely multi-variable system tiny.  Variables are then
// eliminated one at a time; each elimination pairs the variable's upper
// rows (plus its interval's upper bound) with its lower rows (plus the
// interval's lower bound), emits the gcd-normalized real-shadow
// combinations, and records the stage for back-substitution.
func (s *system) fourierMotzkin() bool {
	n := s.w - 1
	s.bnd, s.hasBnd, s.occ = zeroed(s.bnd, n), zeroed(s.hasBnd, n), zeroed(s.occ, n)
	s.sys, s.stages, s.mine, s.cands = s.sys[:0], s.stages[:0], s.mine[:0], s.cands[:0]
	for _, r := range s.ineqs {
		keep, ok := s.classify(s.row(r))
		if !ok {
			return false
		}
		if keep {
			s.sys = append(s.sys, r)
		}
	}
	s.sys = s.dedupe(s.sys)

	for {
		// Pick the variable occurring in the fewest rows (cheapest FM
		// step); ties break on the smaller variable for determinism.
		clear(s.occ)
		for _, r := range s.sys {
			for j, c := range s.row(r)[:n] {
				if c != 0 {
					s.occ[j]++
				}
			}
		}
		pick := -1
		for j, k := range s.occ {
			if k > 0 && (pick < 0 || k < s.occ[pick]) {
				pick = j
			}
		}
		if pick < 0 {
			break
		}

		s.uppers, s.lowers, s.rest = s.uppers[:0], s.lowers[:0], s.rest[:0]
		from := int32(len(s.mine))
		for _, r := range s.sys {
			switch c := s.rows[int(r)+pick]; {
			case c > 0:
				s.uppers, s.mine = append(s.uppers, r), append(s.mine, r)
			case c < 0:
				s.lowers, s.mine = append(s.lowers, r), append(s.mine, r)
			default:
				s.rest = append(s.rest, r)
			}
		}
		pb := s.bounds(pick)
		// The interval contributes one upper and one lower row, except
		// a bound at the end of int64, which every value meets and whose
		// products overflow: leaving it out weakens the shadow, never a
		// verdict, since back-substitution keeps to the interval.
		if pb.hi < math.MaxInt64 {
			up := s.newRow()
			s.rows[int(up)+pick], s.rows[int(up)+n] = 1, -pb.hi
			s.uppers = append(s.uppers, up)
		}
		if pb.lo > math.MinInt64 {
			lo := s.newRow()
			s.rows[int(lo)+pick], s.rows[int(lo)+n] = -1, pb.lo
			s.lowers = append(s.lowers, lo)
		}
		s.stages = append(s.stages, stage{v: int32(pick), from: from, to: int32(len(s.mine)), bnd: pb})

		if len(s.uppers)*len(s.lowers) > maxCombos {
			return false
		}
		// Each elimination step emits |uppers|·|lowers| row products; this
		// is the solver's super-linear core, so it is the main charge.
		if !s.work.spend(int64(len(s.uppers)) * int64(len(s.lowers))) {
			return false
		}
		for _, u := range s.uppers {
			for _, l := range s.lowers {
				if !s.combine(u, l, pick) {
					return false
				}
				keep, ok := s.classify(s.tmp)
				if !ok {
					return false
				}
				if keep {
					r := s.newRow()
					copy(s.row(r), s.tmp)
					if s.rest = append(s.rest, r); len(s.rest) > maxConstraints {
						return false
					}
				}
			}
		}
		s.sys, s.rest = s.dedupe(s.rest), s.sys
	}

	// Variables that were never eliminated — they appear in staged rows
	// or carry tightened intervals but dropped out of the multi-var
	// system — still need values, and those values interact with the
	// staged variables' intervals (the Diophantine alignment), so they
	// become rowless stages, in ascending order, searched *before* the
	// eliminated variables.
	const eliminated, inRow = 1, 2
	mark := zeroed(s.occ, n)
	for _, st := range s.stages {
		mark[st.v] = eliminated
	}
	for _, r := range s.mine {
		for j, c := range s.row(r)[:n] {
			if c != 0 && mark[j] == 0 {
				mark[j] = inRow
			}
		}
	}
	for j, m := range mark {
		if m == inRow || (m == 0 && s.hasBnd[j]) {
			s.stages = append(s.stages, stage{v: int32(j), bnd: s.bounds(j)})
		}
	}

	// Back-substitution, last-eliminated first.  Fourier–Motzkin's real
	// shadow is necessary but not sufficient over the integers (e.g.
	// 3a - 2b = 17 constrains a's interval to a single rational that may
	// not be integral for the chosen b), so the assignment is searched
	// with bounded backtracking: each variable tries several candidate
	// values inside its interval before the previous choice is revised.
	return s.backSubst(len(s.stages) - 1)
}

// bounds returns variable j's interval: its domain until a row
// tightens it.
func (s *system) bounds(j int) varBounds {
	if !s.hasBnd[j] {
		s.bnd[j], s.hasBnd[j] = varBounds{lo: s.meta[j].Lo, hi: s.meta[j].Hi}, true
	}
	return s.bnd[j]
}

// classify sorts a ≤-row by its number of variables.  A constant row
// must hold and a single-variable row is folded into that variable's
// interval; keep reports any other.  ok is false on a contradiction.
func (s *system) classify(row []int64) (keep, ok bool) {
	n := s.w - 1
	v, vars := 0, 0
	for j, c := range row[:n] {
		if c != 0 {
			v, vars = j, vars+1
		}
	}
	switch vars {
	case 0:
		return false, row[n] <= 0
	case 1:
		// c·v + k ≤ 0.
		b, c, k := s.bounds(v), row[v], row[n]
		if c > 0 { // v ≤ ⌊-k/c⌋
			b.hi = min(b.hi, floorDiv(-k, c))
		} else { // v ≥ ⌈-k/c⌉
			b.lo = max(b.lo, ceilDiv(-k, c))
		}
		s.bnd[v] = b
		return false, b.lo <= b.hi
	}
	return true, true
}

// combine writes into tmp the normalized real-shadow combination
// b·u + a·l of an upper row u (a > 0 on pick) and a lower row l (-b on
// pick), checked as Scale and Add check; it reports false on overflow.
func (s *system) combine(u, l int32, pick int) bool {
	ur, lr := s.row(u), s.row(l)
	a, b := ur[pick], -lr[pick]
	for j := range s.tmp {
		x, ok1 := symbolic.MulOverflow(ur[j], b)
		y, ok2 := symbolic.MulOverflow(lr[j], a)
		z, ok3 := symbolic.CheckedAdd(x, y)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		s.tmp[j] = z
	}
	s.tmp[pick] = 0
	normalizeRow(s.tmp)
	return true
}

// backSubst assigns stages[i], stages[i-1], ..., stages[0] (reverse
// elimination order), backtracking over candidate values when a later
// interval turns out integer-empty.  The node budget is shared across
// the whole Solve call.
func (s *system) backSubst(i int) bool {
	if i < 0 {
		return true
	}
	st := s.stages[i]
	lo, hi, ok := s.interval(st)
	if !ok || lo > hi {
		return false
	}
	from := len(s.cands)
	s.candidates(lo, hi, int(st.v))
	for _, x := range s.cands[from:] {
		s.nodes++
		if s.nodes > maxNodes || !s.work.spend(int64(st.to-st.from)+1) {
			return false
		}
		s.val[st.v], s.has[st.v] = x, true
		if s.backSubst(i - 1) {
			return true
		}
	}
	s.cands = s.cands[:from]
	s.has[st.v] = false
	return false
}

// backtracking budget for integer repair during back-substitution.
const (
	maxCandidates = 12
	maxNodes      = 20000
)

// candidates appends to cands up to about maxCandidates values in
// [lo, hi] for variable j, starting from the hint and zero, then
// scanning adjacent values so that divisibility constraints with small
// moduli are always repaired.
func (s *system) candidates(lo, hi int64, j int) {
	from := len(s.cands)
	add := func(x int64) {
		if x >= lo && x <= hi && !slices.Contains(s.cands[from:], x) {
			s.cands = append(s.cands, x)
		}
	}
	if s.hinted[j] {
		add(s.hint[j])
	}
	add(0)
	// Scan outward from the point of the interval nearest 0.  The width
	// is taken in uint64, exact for lo <= hi: as an int64 it wraps
	// negative for an interval wider than MaxInt64.
	base := min(max(lo, 0), hi)
	width := uint64(hi) - uint64(lo)
	for d := uint64(0); len(s.cands)-from < maxCandidates && d <= width; d++ {
		add(base + int64(d))
		add(base - int64(d))
	}
}

// interval computes the integer interval of stage st's variable implied
// by its bounds and rows, with every other variable read from the
// assignment (or, unassigned, given its hint).
func (s *system) interval(st stage) (int64, int64, bool) {
	n := s.w - 1
	lo, hi := st.bnd.lo, st.bnd.hi
	for _, r := range s.mine[st.from:st.to] {
		row := s.row(r)
		c, rest := row[st.v], row[n]
		for w, cw := range row[:n] {
			if cw == 0 || w == int(st.v) {
				continue
			}
			if !s.has[w] {
				s.val[w], s.has[w] = s.hint[w], true
			}
			rest += cw * s.val[w]
		}
		// c·v + rest ≤ 0.
		switch {
		case c > 0: // v ≤ floor(-rest / c)
			hi = min(hi, floorDiv(-rest, c))
		case c < 0: // v ≥ ceil(-rest / c)
			lo = max(lo, ceilDiv(-rest, c))
		default:
			if rest > 0 {
				return 0, 0, false
			}
		}
	}
	return lo, hi, true
}

// normalizeRow divides a row Σc·x + k ≤ 0 by the gcd g of its
// coefficients, tightening the constant to the integer bound:
// Σ(c/g)·x ≤ ⌊-k/g⌋.  This is the classic integer strengthening that
// keeps Fourier–Motzkin coefficients small.  The gcd is taken in
// ascending order, as solveCore's is.
func normalizeRow(row []int64) {
	n := len(row) - 1
	g := int64(0)
	for _, c := range row[:n] {
		g = gcd(g, abs64(c))
	}
	if g <= 1 {
		return
	}
	for j := range row[:n] {
		row[j] /= g
	}
	row[n] = -floorDiv(-row[n], g)
}

// dedupe collapses rows with identical coefficients, keeping the first
// one's place and the tightest (largest) constant.  Rows are hashed on
// their coefficients and compared in full when their hashes meet, so
// the cost stays linear in the number of rows.
func (s *system) dedupe(rows []int32) []int32 {
	n := s.w - 1
	size := 1
	for size < 2*len(rows) {
		size <<= 1
	}
	s.table = zeroed(s.table, size)
	out := rows[:0]
	for _, r := range rows {
		row := s.row(r)
		h := uint64(14695981039346656037) // FNV-1a over the coefficients
		for _, c := range row[:n] {
			h = (h ^ uint64(c)) * 1099511628211
		}
		for k := int((h ^ h>>32) & uint64(size-1)); ; k = (k + 1) & (size - 1) {
			e := s.table[k]
			if e == 0 {
				s.table[k] = int32(len(out)) + 1
				out = append(out, r)
				break
			}
			if kept := s.row(out[e-1]); slices.Equal(kept[:n], row[:n]) {
				if row[n] > kept[n] {
					out[e-1] = r
				}
				break
			}
		}
	}
	return out
}

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
