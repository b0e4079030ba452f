package solver

// The map-based decision core that the dense rows of solver.go replaced,
// kept as the differential oracle: every solve must give the same
// verdict, model and Stats.Work under both.  It works on
// map[Var]int64 forms through symbolic's Clone, Scale and Add, and
// shares only the budget, the limits, the pointer truth table and the
// integer helpers with the production core.

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"dart/internal/symbolic"
)

// mapSolveWork is SolveWorkStats on the map core.
func mapSolveWork(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64, work int64) (map[symbolic.Var]int64, Verdict, Stats) {
	if work <= 0 {
		work = DefaultWork
	}
	budget := &budgetState{work: work}
	sol, ok := mapSolve(pc, meta, hint, budget)
	stats := Stats{Work: min(work-budget.work, work)}
	switch {
	case ok:
		return sol, Sat, stats
	case budget.exhausted:
		return nil, BudgetExhausted, stats
	default:
		return nil, Unsat, stats
	}
}

// sameAsOracle solves c with both cores and reports the verdict, or a
// difference in verdict, model or work (a BudgetExhausted verdict is
// the exhaustion).
func sameAsOracle(c oracleCase) (Verdict, error) {
	sol, v, st := SolveWorkStats(c.pc, c.meta, c.hint, c.work)
	msol, mv, mst := mapSolveWork(c.pc, c.meta, c.hint, c.work)
	if v != mv || st.Work != mst.Work || !maps.Equal(sol, msol) || (sol == nil) != (msol == nil) {
		return v, fmt.Errorf("dense %v %v work %d, map %v %v work %d\nsystem %v hint %v budget %d",
			v, sol, st.Work, mv, msol, mst.Work, symbolic.PathConstraint(c.pc), c.hint, c.work)
	}
	return v, nil
}

// oracleCase is one solve for both cores.
type oracleCase struct {
	pc   []symbolic.Pred
	meta func(symbolic.Var) VarMeta
	hint map[symbolic.Var]int64
	work int64
}

// extremes are the values the generators mix in to reach the overflow
// checks.
var extremes = []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	math.MinInt32, math.MaxInt32, 1 << 32, -1 << 32, 1 << 40, -1 << 40, 1 << 62, -1 << 62}

// domains are the variable domains the generators draw from, by kind
// code: the engine's int, char, unsigned and long domains, the full
// int64 range, and a pointer.
var domains = []VarMeta{
	{Kind: symbolic.ScalarVar, Lo: math.MinInt32, Hi: math.MaxInt32},
	{Kind: symbolic.ScalarVar, Lo: math.MinInt8, Hi: math.MaxInt8},
	{Kind: symbolic.ScalarVar, Lo: 0, Hi: math.MaxUint32},
	{Kind: symbolic.ScalarVar, Lo: -1 << 40, Hi: 1 << 40},
	{Kind: symbolic.ScalarVar, Lo: math.MinInt64, Hi: math.MaxInt64},
	{Kind: symbolic.PointerVar},
}

// metaOf returns the domain function for kind codes by variable.
func metaOf(kinds map[symbolic.Var]int) func(symbolic.Var) VarMeta {
	return func(v symbolic.Var) VarMeta { return domains[kinds[v]%len(domains)] }
}

// arbitraryCase draws a system with no witness: up to 6 variables and 9
// predicates over small and extreme coefficients and constants, any
// relation, pointer and mixed kinds, an occasional nil form, a partial
// hint and, often, a tight budget.
func arbitraryCase(r *rand.Rand) oracleCase {
	num := func() int64 {
		if r.Intn(8) == 0 {
			return extremes[r.Intn(len(extremes))]
		}
		return int64(r.Intn(19) - 9)
	}
	nv := 1 + r.Intn(6)
	ids := r.Perm(30)[:nv]
	kinds := map[symbolic.Var]int{}
	for _, id := range ids {
		if r.Intn(3) == 0 {
			kinds[symbolic.Var(id)] = r.Intn(len(domains))
		}
	}
	c := oracleCase{meta: metaOf(kinds), hint: map[symbolic.Var]int64{}}
	for i := 1 + r.Intn(9); i > 0; i-- {
		if r.Intn(60) == 0 {
			c.pc = append(c.pc, symbolic.Pred{Rel: symbolic.EQ})
			continue
		}
		l := &symbolic.Lin{Const: num(), Coeffs: map[symbolic.Var]int64{}}
		for _, id := range ids {
			if r.Intn(2) == 0 {
				l.Coeffs[symbolic.Var(id)] = num()
			}
		}
		c.pc = append(c.pc, symbolic.Pred{L: l, Rel: symbolic.Rel(r.Intn(6))})
	}
	for _, id := range ids {
		if r.Intn(2) == 0 {
			c.hint[symbolic.Var(id)] = num() * int64(1+r.Intn(40))
		}
	}
	if r.Intn(2) == 0 {
		c.work = 1 + r.Int63n(300)
	}
	return c
}

// witnessCase draws a system its witness satisfies, so mostly Sat: up
// to 8 int32 variables and 14 predicates with small coefficients, each
// constant set so that the witness satisfies the relation, and the
// witness or a nearby point as a partial hint.
func witnessCase(r *rand.Rand) oracleCase {
	nv := 1 + r.Intn(8)
	witness := make([]int64, nv)
	c := oracleCase{meta: intMeta, hint: map[symbolic.Var]int64{}}
	for v := range witness {
		witness[v] = int64(r.Intn(200) - 100)
		if r.Intn(2) == 0 {
			c.hint[symbolic.Var(v)] = witness[v] + int64(r.Intn(5)-2)
		}
	}
	for i := 1 + r.Intn(14); i > 0; i-- {
		l := &symbolic.Lin{Coeffs: map[symbolic.Var]int64{}}
		val := int64(0)
		for v := range witness {
			if r.Intn(3) == 0 {
				k := int64(r.Intn(9) - 4)
				l.Coeffs[symbolic.Var(v)] = k
				val += k * witness[v]
			}
		}
		rel := symbolic.Rel(r.Intn(6))
		switch slack := int64(r.Intn(5)); rel {
		case symbolic.EQ:
			l.Const = -val
		case symbolic.NE:
			l.Const = -val + 1 + slack
		case symbolic.LT:
			l.Const = -val - 1 - slack
		case symbolic.LE:
			l.Const = -val - slack
		case symbolic.GT:
			l.Const = -val + 1 + slack
		case symbolic.GE:
			l.Const = -val + slack
		}
		c.pc = append(c.pc, symbolic.Pred{L: l, Rel: rel})
	}
	return c
}

// capCases are systems at the solver's limits, which the generators
// seldom reach.  In fmStep(u, l, extra) the first elimination (of x0)
// pairs u+1 upper with l+1 lower rows, and all but the pair of interval
// rows keep x1 and x2, so it emits (u+1)(l+1)-1 rows after the extra
// row's one: exactly maxConstraints and one more, then exactly
// maxCombos products and one more.  The last system needs two search
// steps per disequality, more than maxNESplits allows.
func capCases() []oracleCase {
	fmStep := func(u, l int, extra bool) oracleCase {
		var pc []symbolic.Pred
		for i := 0; i < u+l; i++ {
			sign := int64(1)
			if i >= u {
				sign = -1
			}
			pc = append(pc, pred(symbolic.LE, -int64(1000+i), 0, sign, 1, int64(1+i%7), 2, int64(1+i/7)))
		}
		if extra {
			pc = append(pc, pred(symbolic.LE, -1000, 1, 1, 2, 1))
		}
		return oracleCase{pc: pc, meta: intMeta}
	}
	splits := []symbolic.Pred{pred(symbolic.GE, 0, 0, 1)}
	for k := int64(0); k < 300; k++ {
		splits = append(splits, pred(symbolic.NE, -k, 0, 1))
	}
	return []oracleCase{
		fmStep(16, 240, false), fmStep(16, 240, true),
		fmStep(255, 511, false), fmStep(256, 511, false),
		{pc: splits, meta: intMeta},
	}
}

// TestSolveMatchesOracle: on systems at the limits, and on arbitrary
// and witness-built ones, the dense core gives the map core's verdict,
// model and work.
func TestSolveMatchesOracle(t *testing.T) {
	for i, c := range capCases() {
		if _, err := sameAsOracle(c); err != nil {
			t.Fatalf("limit system %d: %v", i, err)
		}
	}
	arbitrary, witnessed := 50000, 10000
	if testing.Short() {
		arbitrary, witnessed = 10000, 2000
	}
	r := rand.New(rand.NewSource(21))
	var verdicts [3]int
	for i := 0; i < arbitrary+witnessed; i++ {
		c := arbitraryCase(r)
		if i >= arbitrary {
			c = witnessCase(r)
		}
		v, err := sameAsOracle(c)
		if err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		verdicts[v]++
	}
	// Each verdict must have been reached for the comparison to cover it.
	for v, n := range verdicts {
		if n == 0 {
			t.Errorf("no system gave %v", Verdict(v))
		}
	}
	t.Logf("verdicts: %d unsat, %d sat, %d budget-exhausted", verdicts[Unsat], verdicts[Sat], verdicts[BudgetExhausted])
}

// TestSolveConcurrent: solves on several goroutines at once, each
// taking its working memory from the shared pool, give what the same
// solves give one at a time.
func TestSolveConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cases := make([]oracleCase, 2000)
	want := make([]string, len(cases))
	for i := range cases {
		if cases[i] = arbitraryCase(r); i%2 == 1 {
			cases[i] = witnessCase(r)
		}
		sol, v, st := SolveWorkStats(cases[i].pc, cases[i].meta, cases[i].hint, cases[i].work)
		want[i] = fmt.Sprint(v, sol, st.Work)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cases {
				k := (i + g*len(cases)/4) % len(cases) // each starts elsewhere
				c := cases[k]
				sol, v, st := SolveWorkStats(c.pc, c.meta, c.hint, c.work)
				if got := fmt.Sprint(v, sol, st.Work); got != want[k] {
					t.Errorf("goroutine %d, system %d: %s, alone %s", g, k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fuzzReader decodes FuzzSolveOracle's bytes; past the end it reads
// zeros.
type fuzzReader []byte

func (d *fuzzReader) byte() byte {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return b
}

// int decodes a selector byte: below 128 a small value, below 192 an
// extreme, else eight big-endian bytes.
func (d *fuzzReader) int() int64 {
	switch s := d.byte(); {
	case s < 128:
		return int64(s) - 64
	case s < 192:
		return extremes[int(s-128)%len(extremes)]
	}
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(d.byte())
	}
	return int64(x)
}

// decodeCase reads a system: the variable count, then each variable's
// id and kind code, the budget, a hint mask and the hinted values, and
// up to 10 predicates, each a relation (6 is a nil form), a mask of
// the variables with a coefficient, those coefficients and the
// constant.
func decodeCase(data []byte) oracleCase {
	d := fuzzReader(data)
	nv := 1 + int(d.byte())%6
	ids := make([]symbolic.Var, nv)
	kinds := map[symbolic.Var]int{}
	for i := range ids {
		ids[i] = symbolic.Var(d.byte())
		kinds[ids[i]] = int(d.byte()) % len(domains)
	}
	c := oracleCase{meta: metaOf(kinds), work: d.int()}
	if mask := d.byte(); mask != 0 {
		c.hint = map[symbolic.Var]int64{}
		for i, v := range ids {
			if mask&(1<<i) != 0 {
				c.hint[v] = d.int()
			}
		}
	}
	for n := int(d.byte()) % 11; n > 0; n-- {
		rel, mask := d.byte()%7, d.byte()
		if rel == 6 {
			c.pc = append(c.pc, symbolic.Pred{Rel: symbolic.EQ})
			continue
		}
		l := &symbolic.Lin{Coeffs: map[symbolic.Var]int64{}}
		for i, v := range ids {
			if mask&(1<<i) != 0 {
				l.Coeffs[v] = d.int()
			}
		}
		l.Const = d.int()
		c.pc = append(c.pc, symbolic.Pred{L: l, Rel: symbolic.Rel(rel)})
	}
	return c
}

// encodeCase is decodeCase's inverse for the seeds: vars lists the
// system's variables (at most 6) with their kind codes.  Only the first
// 10 predicates are kept.
func encodeCase(vars []symbolic.Var, kinds []int, pc []symbolic.Pred, hint map[symbolic.Var]int64, work int64) []byte {
	b := []byte{byte(len(vars) - 1)}
	num := func(x int64) {
		if x >= -64 && x < 64 {
			b = append(b, byte(x+64))
			return
		}
		b = append(b, 255)
		for i := 56; i >= 0; i -= 8 {
			b = append(b, byte(uint64(x)>>i))
		}
	}
	for i, v := range vars {
		b = append(b, byte(v), byte(kinds[i]))
	}
	num(work)
	mask, hinted := byte(0), []int64{}
	for i, v := range vars {
		if h, ok := hint[v]; ok {
			mask |= 1 << i
			hinted = append(hinted, h)
		}
	}
	b = append(b, mask)
	for _, h := range hinted {
		num(h)
	}
	pc = pc[:min(len(pc), 10)]
	b = append(b, byte(len(pc)))
	for _, p := range pc {
		if p.L == nil {
			b = append(b, 6, 0)
			continue
		}
		mask, coeffs := byte(0), []int64{}
		for i, v := range vars {
			if k, ok := p.L.Coeffs[v]; ok {
				mask |= 1 << i
				coeffs = append(coeffs, k)
			}
		}
		b = append(b, byte(p.Rel), mask)
		for _, k := range coeffs {
			num(k)
		}
		num(p.L.Const)
	}
	return b
}

// FuzzSolveOracle: on any decoded system the dense core gives the map
// core's verdict, model and work.  It is seeded with the systems of
// solver_test.go and budget_test.go, the two map-order witnesses and
// MinInt64/MaxInt64 extremes.
func FuzzSolveOracle(f *testing.F) {
	const i32, char, ptr = 0, 1, 5
	v := func(ids ...symbolic.Var) []symbolic.Var { return ids }
	k := func(codes ...int) []int { return codes }
	seeds := []struct {
		vars  []symbolic.Var
		kinds []int
		pc    []symbolic.Pred
		hint  map[symbolic.Var]int64
		work  int64
	}{
		{v(0), k(i32), []symbolic.Pred{pred(symbolic.EQ, -10, 0, 1)}, nil, 0},
		{v(0, 1), k(i32, i32), []symbolic.Pred{pred(symbolic.EQ, 0, 0, 1, 1, -1), pred(symbolic.EQ, -10, 1, 1, 0, -1)}, nil, 0},
		{v(0), k(i32), []symbolic.Pred{pred(symbolic.GT, -5, 0, 1), pred(symbolic.LT, -8, 0, 1), pred(symbolic.NE, -7, 0, 1)}, nil, 0},
		{v(0, 1), k(i32, i32), []symbolic.Pred{pred(symbolic.EQ, -17, 0, 3, 1, -2)}, nil, 0},
		{v(0, 1), k(i32, i32), []symbolic.Pred{pred(symbolic.EQ, -5, 0, 2, 1, 4)}, nil, 0},
		{v(0), k(char), []symbolic.Pred{pred(symbolic.GT, -127, 0, 1)}, nil, 0},
		{v(0), k(char), []symbolic.Pred{pred(symbolic.GT, -100, 0, 1)}, nil, 0},
		{v(0, 1), k(i32, i32), []symbolic.Pred{pred(symbolic.EQ, -50, 0, 1, 1, 1)}, map[symbolic.Var]int64{1: 30}, 0},
		{v(0), k(i32), []symbolic.Pred{pred(symbolic.NE, 0, 0, 1), pred(symbolic.NE, -1, 0, 1), pred(symbolic.NE, -2, 0, 1),
			pred(symbolic.NE, -3, 0, 1), pred(symbolic.GE, 0, 0, 1), pred(symbolic.LE, -4, 0, 1)}, nil, 0},
		{v(0), k(ptr), []symbolic.Pred{pred(symbolic.EQ, 0, 0, 1)}, nil, 0},
		{v(0), k(ptr), []symbolic.Pred{pred(symbolic.NE, 0, 0, 1)}, nil, 0},
		{v(0, 1), k(ptr, ptr), []symbolic.Pred{pred(symbolic.EQ, 0, 0, 1, 1, -1)}, nil, 0},
		{v(0, 1), k(ptr, ptr), []symbolic.Pred{pred(symbolic.EQ, 0, 0, 1, 1, -1), pred(symbolic.NE, 0, 0, 1)}, nil, 0},
		{v(0, 1), k(ptr, ptr), []symbolic.Pred{pred(symbolic.NE, 0, 0, 1, 1, -1)}, nil, 0},
		{v(0), k(ptr), []symbolic.Pred{pred(symbolic.EQ, -1234, 0, 1)}, nil, 0},
		{v(0), k(ptr), []symbolic.Pred{pred(symbolic.GT, 0, 0, 1)}, nil, 0},
		{v(0, 1), k(i32, ptr), []symbolic.Pred{pred(symbolic.EQ, 0, 0, 1, 1, 1)}, nil, 0},
		{v(0), k(i32), []symbolic.Pred{{Rel: symbolic.EQ}}, nil, 0},
		{v(0), k(i32), nil, nil, 0},
		{v(0), k(i32), []symbolic.Pred{pred(symbolic.EQ, 1)}, nil, 0},
		{v(0), k(i32), []symbolic.Pred{pred(symbolic.LE, -1)}, nil, 0},
		{v(0, 1, 2), k(i32, i32, i32), []symbolic.Pred{pred(symbolic.LE, 0, 0, 1, 1, -1), pred(symbolic.LE, 0, 1, 1, 2, -1),
			pred(symbolic.LE, -5, 2, 1), pred(symbolic.GE, 5, 0, 1)}, nil, 1},
		{v(0, 1), k(i32, i32), []symbolic.Pred{pred(symbolic.EQ, 0, 0, 1, 1, -1), pred(symbolic.EQ, 10, 0, 1, 1, -1)}, nil, 0},
		// The map-order witnesses of TestSolveIndependentOfMapOrder.
		{v(12, 18), k(i32, i32), []symbolic.Pred{pred(symbolic.NE, math.MinInt64, 12, -1, 18, -4)},
			map[symbolic.Var]int64{12: 181, 18: -297}, 0},
		{v(0, 6, 12, 24, 25), k(i32, i32, i32, i32, i32), []symbolic.Pred{
			pred(symbolic.GE, -17, 0, -6, 12, 4, 24, -6, 25, math.MinInt64),
			pred(symbolic.LT, -169, 24, 6), pred(symbolic.GT, math.MinInt64, 6, 3)},
			map[symbolic.Var]int64{0: 207, 25: 297}, 101},
		// Extremes: MinInt64·x ≥ 0 (Scale by -1 keeps MinInt64), and
		// sums that overflow only in some orders.
		{v(0), k(i32), []symbolic.Pred{pred(symbolic.GE, 0, 0, math.MinInt64)}, map[symbolic.Var]int64{0: 5}, 0},
		{v(0), k(i32), []symbolic.Pred{pred(symbolic.GE, 0, 0, math.MinInt64)}, map[symbolic.Var]int64{0: 0}, 0},
		{v(0, 1), k(4, 4), []symbolic.Pred{pred(symbolic.EQ, math.MaxInt64, 0, math.MaxInt64, 1, math.MinInt64)},
			map[symbolic.Var]int64{0: -1, 1: 1}, 0},
		{v(0, 1), k(4, 4), []symbolic.Pred{pred(symbolic.LE, math.MinInt64, 0, math.MaxInt64, 1, 2),
			pred(symbolic.GT, math.MaxInt64, 0, -1, 1, math.MinInt64)}, nil, 0},
	}
	for _, s := range seeds {
		f.Add(encodeCase(s.vars, s.kinds, s.pc, s.hint, s.work))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := sameAsOracle(decodeCase(data)); err != nil {
			t.Fatal(err)
		}
	})
}

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

func mapSolve(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64, budget *budgetState) (map[symbolic.Var]int64, bool) {
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

	ptrAssign, ok := mapSolvePointers(ptrPreds, ptrVars, hint, budget)
	if !ok {
		return nil, false
	}
	intAssign, ok := mapSolveIntegers(intPreds, meta, hint, budget)
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

// mapSolvePointers enumerates {NULL, Alloc} assignments over the pointer
// variables and returns the first under which every pointer predicate is
// definitely true.  Assignments agreeing with the hint are tried first so
// don't-care pointers keep their previous shape.
func mapSolvePointers(preds []symbolic.Pred, vars map[symbolic.Var]bool, hint map[symbolic.Var]int64, budget *budgetState) (map[symbolic.Var]int64, bool) {
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

// mapCons is the canonical constraint  L ≤ 0  or  L = 0.
type mapCons struct {
	l  *symbolic.Lin
	eq bool
}

// mapSolveIntegers decides a conjunction of affine predicates over bounded
// integer variables.
func mapSolveIntegers(preds []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64, budget *budgetState) (map[symbolic.Var]int64, bool) {
	if len(preds) == 0 {
		return map[symbolic.Var]int64{}, true
	}
	base := make([]mapCons, 0, len(preds))
	var splits []*symbolic.Lin // NE constraints, split lazily

	for _, p := range preds {
		if p.Rel == symbolic.NE {
			splits = append(splits, p.L.Clone())
			continue
		}
		var c mapCons
		switch p.Rel {
		case symbolic.EQ:
			c = mapCons{l: p.L.Clone(), eq: true}
		case symbolic.LE:
			c = mapCons{l: p.L.Clone()}
		case symbolic.LT: // L < 0  ⇔  L + 1 ≤ 0 over ℤ
			c = mapCons{l: shiftConst(p.L, 1)}
		case symbolic.GE: // L ≥ 0  ⇔  -L ≤ 0
			c = mapCons{l: symbolic.Scale(p.L, -1)}
		case symbolic.GT: // L > 0  ⇔  -L + 1 ≤ 0
			c = mapCons{l: shiftConst(symbolic.Scale(p.L, -1), 1)}
		}
		if c.l == nil {
			return nil, false
		}
		base = append(base, c)
	}

	s := &mapIntSolver{meta: meta, hint: hint, budget: maxNESplits, work: budget}
	return s.search(base, splits)
}

// mapViolatedNE returns the index of the first disequality violated by the
// assignment (vars absent from the assignment read as their hint), or -1.
func mapViolatedNE(splits []*symbolic.Lin, assign, hint map[symbolic.Var]int64) int {
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

type mapIntSolver struct {
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
func (s *mapIntSolver) search(base []mapCons, splits []*symbolic.Lin) (map[symbolic.Var]int64, bool) {
	if s.budget <= 0 || !s.work.spend(int64(len(base)+len(splits))+1) {
		return nil, false
	}
	s.budget--
	sol, ok := s.solveCore(base)
	if !ok {
		return nil, false
	}
	i := mapViolatedNE(splits, sol, s.hint)
	if i < 0 {
		return sol, true
	}
	l := splits[i]
	rest := make([]*symbolic.Lin, 0, len(splits)-1)
	rest = append(rest, splits[:i]...)
	rest = append(rest, splits[i+1:]...)
	negBranch := mapCons{l: shiftConst(l, 1)}                     // L < 0
	posBranch := mapCons{l: shiftConst(symbolic.Scale(l, -1), 1)} // L > 0
	first, second := negBranch, posBranch
	if l.Eval(s.hint) > 0 {
		first, second = posBranch, negBranch
	}
	if sol, ok := s.search(append(append([]mapCons{}, base...), first), rest); ok {
		return sol, true
	}
	return s.search(append(append([]mapCons{}, base...), second), rest)
}

// solveCore decides a conjunction of equalities and ≤-inequalities.
func (s *mapIntSolver) solveCore(all []mapCons) (map[symbolic.Var]int64, bool) {
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
			// abs64(MinInt64) is negative, so the gcd depends on the
			// order of the terms: take them in ascending variable order.
			g := int64(0)
			for _, v := range l.Vars() {
				g = gcd(g, abs64(l.Coeffs[v]))
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

type mapStage struct {
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
func (s *mapIntSolver) fourierMotzkin(ineqs []*symbolic.Lin) (map[symbolic.Var]int64, bool) {
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
	sys = mapDedupe(sys)

	var stages []mapStage
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
		stages = append(stages, mapStage{v: pick, rows: mine, bnd: pb})

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
				comb = mapNormalizeRow(comb)
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
		sys = mapDedupe(rest)
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
		stages = append(stages, mapStage{v: v, bnd: getBnd(v)})
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
func (s *mapIntSolver) backSubst(stages []mapStage, i int, assign map[symbolic.Var]int64) bool {
	if i < 0 {
		return true
	}
	st := stages[i]
	lo, hi, ok := mapInterval(st.v, st.bnd, st.rows, assign, s.hint)
	if !ok || lo > hi {
		return false
	}
	for _, cand := range mapCandidates(lo, hi, s.hint, st.v) {
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

// mapCandidates enumerates up to maxCandidates values in [lo, hi], starting
// from the hint and zero, then scanning adjacent values so that
// divisibility constraints with small moduli are always repaired.
func mapCandidates(lo, hi int64, hint map[symbolic.Var]int64, v symbolic.Var) []int64 {
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

// mapInterval computes the integer interval for v implied by its domain
// interval and rows, with all other variables read from assign (or hint
// for don't-cares).
func mapInterval(v symbolic.Var, b varBounds, rows []*symbolic.Lin, assign, hint map[symbolic.Var]int64) (int64, int64, bool) {
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

// mapNormalizeRow divides a row Σc·x + k ≤ 0 by the gcd g of its
// coefficients, tightening the constant to the integer bound:
// Σ(c/g)·x ≤ ⌊-k/g⌋.  This is the classic integer strengthening that
// keeps Fourier–Motzkin coefficients small.
func mapNormalizeRow(l *symbolic.Lin) *symbolic.Lin {
	g := int64(0)
	for _, v := range l.Vars() { // ascending, as in solveCore
		g = gcd(g, abs64(l.Coeffs[v]))
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

// mapDedupe collapses rows with identical coefficient vectors, keeping the
// tightest (largest) constant, via a hash key.
func mapDedupe(rows []*symbolic.Lin) []*symbolic.Lin {
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
