package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dart/internal/symbolic"
)

func lin(k int64, pairs ...int64) *symbolic.Lin {
	l := &symbolic.Lin{Const: k, Coeffs: map[symbolic.Var]int64{}}
	for i := 0; i+1 < len(pairs); i += 2 {
		l.Coeffs[symbolic.Var(pairs[i])] = pairs[i+1]
	}
	return l
}

func pred(rel symbolic.Rel, k int64, pairs ...int64) symbolic.Pred {
	return symbolic.Pred{L: lin(k, pairs...), Rel: rel}
}

// intMeta treats every variable as a 32-bit integer.
func intMeta(symbolic.Var) VarMeta {
	return VarMeta{Kind: symbolic.ScalarVar, Lo: math.MinInt32, Hi: math.MaxInt32}
}

// mixedMeta makes even variables integers and odd variables pointers.
func mixedMeta(v symbolic.Var) VarMeta {
	if v%2 == 1 {
		return VarMeta{Kind: symbolic.PointerVar}
	}
	return VarMeta{Kind: symbolic.ScalarVar, Lo: math.MinInt32, Hi: math.MaxInt32}
}

func mustSolve(t *testing.T, pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, hint map[symbolic.Var]int64) map[symbolic.Var]int64 {
	t.Helper()
	sol, ok := Solve(pc, meta, hint)
	if !ok {
		t.Fatalf("no solution for %v", symbolic.PathConstraint(pc))
	}
	for _, p := range pc {
		if meta(firstVar(p)).Kind == symbolic.PointerVar {
			continue // pointer predicates checked by their own semantics
		}
		if !p.Holds(sol) {
			t.Fatalf("solution %v violates %v", sol, p)
		}
	}
	return sol
}

func firstVar(p symbolic.Pred) symbolic.Var {
	for v := range p.L.Coeffs {
		return v
	}
	return 0
}

func TestSimpleEquality(t *testing.T) {
	// The paper's intro constraint: 2x == x + 10, i.e. x - 10 == 0.
	sol := mustSolve(t, []symbolic.Pred{pred(symbolic.EQ, -10, 0, 1)}, intMeta, nil)
	if sol[0] != 10 {
		t.Errorf("x = %d, want 10", sol[0])
	}
}

func TestTwoVarEquality(t *testing.T) {
	// x == y ∧ y == x + 10 is UNSAT (Sec. 2.4).
	pc := []symbolic.Pred{
		pred(symbolic.EQ, 0, 0, 1, 1, -1),   // x - y == 0
		pred(symbolic.EQ, -10, 1, 1, 0, -1), // y - x - 10 == 0
	}
	if _, ok := Solve(pc, intMeta, nil); ok {
		t.Fatal("unsatisfiable system solved")
	}
}

func TestInequalityChain(t *testing.T) {
	// 5 < x < 8 ∧ x != 7  ⇒  x == 6.
	pc := []symbolic.Pred{
		pred(symbolic.GT, -5, 0, 1), // x - 5 > 0
		pred(symbolic.LT, -8, 0, 1), // x - 8 < 0
		pred(symbolic.NE, -7, 0, 1), // x - 7 != 0
	}
	sol := mustSolve(t, pc, intMeta, nil)
	if sol[0] != 6 {
		t.Errorf("x = %d, want 6", sol[0])
	}
}

func TestDiophantineRepair(t *testing.T) {
	// 3a - 2b == 17 needs integer alignment between a and b.
	sol := mustSolve(t, []symbolic.Pred{pred(symbolic.EQ, -17, 0, 3, 1, -2)}, intMeta, nil)
	if 3*sol[0]-2*sol[1] != 17 {
		t.Errorf("3*%d - 2*%d != 17", sol[0], sol[1])
	}
}

// wideMeta gives every variable the whole int64 range.
func wideMeta(symbolic.Var) VarMeta {
	return VarMeta{Kind: symbolic.ScalarVar, Lo: math.MinInt64, Hi: math.MaxInt64}
}

// TestSolveWideDomain: 2x - 3y - 1 == 0 over all of int64.  The
// candidate scan of an interval wider than MaxInt64 must still run.
func TestSolveWideDomain(t *testing.T) {
	sol := mustSolve(t, []symbolic.Pred{pred(symbolic.EQ, -1, 0, 2, 1, -3)}, wideMeta, nil)
	if 2*sol[0]-3*sol[1]-1 != 0 {
		t.Errorf("2*%d - 3*%d - 1 != 0", sol[0], sol[1])
	}
}

func TestGCDInfeasible(t *testing.T) {
	// 2x + 4y == 5 has no integer solution.
	pc := []symbolic.Pred{pred(symbolic.EQ, -5, 0, 2, 1, 4)}
	if _, ok := Solve(pc, intMeta, nil); ok {
		t.Fatal("gcd-infeasible equality solved")
	}
}

func TestDomainBounds(t *testing.T) {
	charMeta := func(symbolic.Var) VarMeta {
		return VarMeta{Kind: symbolic.ScalarVar, Lo: -128, Hi: 127}
	}
	// x > 127 is outside a char's domain.
	if _, ok := Solve([]symbolic.Pred{pred(symbolic.GT, -127, 0, 1)}, charMeta, nil); ok {
		t.Fatal("solved outside the char domain")
	}
	// x > 100 within it.
	sol := mustSolve(t, []symbolic.Pred{pred(symbolic.GT, -100, 0, 1)}, charMeta, nil)
	if sol[0] <= 100 || sol[0] > 127 {
		t.Errorf("x = %d", sol[0])
	}
}

func TestHintPreserved(t *testing.T) {
	// x + y == 50 with hint y = 30: y keeps its value, x adapts.
	pc := []symbolic.Pred{pred(symbolic.EQ, -50, 0, 1, 1, 1)}
	sol := mustSolve(t, pc, intMeta, map[symbolic.Var]int64{1: 30})
	if sol[0]+sol[1] != 50 {
		t.Fatalf("solution %v", sol)
	}
	if sol[1] != 30 {
		t.Errorf("hint for y not preserved: %v", sol)
	}
}

func TestManyDisequalities(t *testing.T) {
	// x != 0..9 ∧ 0 <= x <= 10  ⇒  x == 10.
	var pc []symbolic.Pred
	for k := int64(0); k < 10; k++ {
		pc = append(pc, pred(symbolic.NE, -k, 0, 1))
	}
	pc = append(pc, pred(symbolic.GE, 0, 0, 1))
	pc = append(pc, pred(symbolic.LE, -10, 0, 1))
	sol := mustSolve(t, pc, intMeta, nil)
	if sol[0] != 10 {
		t.Errorf("x = %d, want 10", sol[0])
	}
}

func TestPointerNullAndAlloc(t *testing.T) {
	ptrMeta := func(symbolic.Var) VarMeta { return VarMeta{Kind: symbolic.PointerVar} }
	sol, ok := Solve([]symbolic.Pred{pred(symbolic.EQ, 0, 0, 1)}, ptrMeta, nil)
	if !ok || sol[0] != PtrNull {
		t.Fatalf("p == 0: %v ok=%v", sol, ok)
	}
	sol, ok = Solve([]symbolic.Pred{pred(symbolic.NE, 0, 0, 1)}, ptrMeta, nil)
	if !ok || sol[0] != PtrAlloc {
		t.Fatalf("p != 0: %v ok=%v", sol, ok)
	}
}

func TestPointerAliasing(t *testing.T) {
	ptrMeta := func(symbolic.Var) VarMeta { return VarMeta{Kind: symbolic.PointerVar} }
	// p == q is only realizable with both NULL.
	sol, ok := Solve([]symbolic.Pred{pred(symbolic.EQ, 0, 0, 1, 1, -1)}, ptrMeta, nil)
	if !ok || sol[0] != PtrNull || sol[1] != PtrNull {
		t.Fatalf("p == q: %v ok=%v", sol, ok)
	}
	// p == q ∧ p != 0 cannot be realized by fresh allocations.
	pc := []symbolic.Pred{
		pred(symbolic.EQ, 0, 0, 1, 1, -1),
		pred(symbolic.NE, 0, 0, 1),
	}
	if _, ok := Solve(pc, ptrMeta, nil); ok {
		t.Fatal("aliasing of two fresh allocations should be unsolvable")
	}
	// p != q is realizable (two distinct allocations).
	if _, ok := Solve([]symbolic.Pred{pred(symbolic.NE, 0, 0, 1, 1, -1)}, ptrMeta, nil); !ok {
		t.Fatal("p != q should be solvable")
	}
}

func TestPointerAgainstConstant(t *testing.T) {
	ptrMeta := func(symbolic.Var) VarMeta { return VarMeta{Kind: symbolic.PointerVar} }
	// p == 1234 cannot be targeted by random_init.
	if _, ok := Solve([]symbolic.Pred{pred(symbolic.EQ, -1234, 0, 1)}, ptrMeta, nil); ok {
		t.Fatal("pointer equality with a literal address should fail")
	}
	// p > 0 is satisfied by an allocation (addresses are positive).
	sol, ok := Solve([]symbolic.Pred{pred(symbolic.GT, 0, 0, 1)}, ptrMeta, nil)
	if !ok || sol[0] != PtrAlloc {
		t.Fatalf("p > 0: %v ok=%v", sol, ok)
	}
}

func TestMixedPointerScalarRejected(t *testing.T) {
	// var0 scalar + var1 pointer in one predicate: conservatively fail.
	pc := []symbolic.Pred{pred(symbolic.EQ, 0, 0, 1, 1, 1)}
	if _, ok := Solve(pc, mixedMeta, nil); ok {
		t.Fatal("mixed pointer/scalar predicate should be rejected")
	}
}

func TestNilLinRejected(t *testing.T) {
	if _, ok := Solve([]symbolic.Pred{{L: nil, Rel: symbolic.EQ}}, intMeta, nil); ok {
		t.Fatal("nil form accepted")
	}
}

func TestEmptyConstraint(t *testing.T) {
	sol, ok := Solve(nil, intMeta, nil)
	if !ok || len(sol) != 0 {
		t.Fatalf("empty constraint: %v ok=%v", sol, ok)
	}
}

func TestContradictoryConstants(t *testing.T) {
	// A constant predicate that is false: 1 == 0.
	if _, ok := Solve([]symbolic.Pred{pred(symbolic.EQ, 1)}, intMeta, nil); ok {
		t.Fatal("1 == 0 solved")
	}
	// A true one is fine.
	if _, ok := Solve([]symbolic.Pred{pred(symbolic.LE, -1)}, intMeta, nil); !ok {
		t.Fatal("-1 <= 0 rejected")
	}
}

// TestRandomSystemsSoundness is the solver's core property test: on
// random constraint systems, whenever Solve returns an assignment it
// satisfies every predicate; and whenever the system was generated from a
// known witness, Solve finds some solution.
func TestRandomSystemsSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rels := []symbolic.Rel{symbolic.EQ, symbolic.NE, symbolic.LT, symbolic.LE, symbolic.GT, symbolic.GE}

	for trial := 0; trial < 400; trial++ {
		nVars := 1 + r.Intn(4)
		witness := map[symbolic.Var]int64{}
		for v := 0; v < nVars; v++ {
			witness[symbolic.Var(v)] = int64(r.Intn(200) - 100)
		}
		// Build predicates that the witness satisfies, so the system is
		// guaranteed satisfiable.
		var pc []symbolic.Pred
		nPreds := 1 + r.Intn(6)
		for i := 0; i < nPreds; i++ {
			l := &symbolic.Lin{Coeffs: map[symbolic.Var]int64{}}
			for v := 0; v < nVars; v++ {
				if r.Intn(2) == 0 {
					l.Coeffs[symbolic.Var(v)] = int64(r.Intn(9) - 4)
				}
			}
			val := l.Eval(witness)
			// Choose a relation satisfied at the witness by adjusting
			// the constant.
			rel := rels[r.Intn(len(rels))]
			switch rel {
			case symbolic.EQ:
				l.Const = -val
			case symbolic.NE:
				l.Const = -val + 1
			case symbolic.LT:
				l.Const = -val - 1 - int64(r.Intn(5))
			case symbolic.LE:
				l.Const = -val - int64(r.Intn(5))
			case symbolic.GT:
				l.Const = -val + 1 + int64(r.Intn(5))
			case symbolic.GE:
				l.Const = -val + int64(r.Intn(5))
			}
			l.Const += 0
			pc = append(pc, symbolic.Pred{L: l, Rel: rel})
		}
		sol, ok := Solve(pc, intMeta, nil)
		if !ok {
			t.Fatalf("trial %d: satisfiable system rejected: %v (witness %v)",
				trial, symbolic.PathConstraint(pc), witness)
		}
		for _, p := range pc {
			if !p.Holds(sol) {
				t.Fatalf("trial %d: solution %v violates %v", trial, sol, p)
			}
		}
	}
}

// TestRandomUnsatNeverLies: when Solve does return on arbitrary random
// systems (satisfiable or not), the assignment must verify.
func TestRandomUnsatNeverLies(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	rels := []symbolic.Rel{symbolic.EQ, symbolic.NE, symbolic.LT, symbolic.LE, symbolic.GT, symbolic.GE}
	for trial := 0; trial < 400; trial++ {
		var pc []symbolic.Pred
		for i := 0; i < 1+r.Intn(5); i++ {
			l := &symbolic.Lin{Const: int64(r.Intn(40) - 20), Coeffs: map[symbolic.Var]int64{}}
			for v := 0; v < 3; v++ {
				if r.Intn(2) == 0 {
					l.Coeffs[symbolic.Var(v)] = int64(r.Intn(7) - 3)
				}
			}
			pc = append(pc, symbolic.Pred{L: l, Rel: rels[r.Intn(len(rels))]})
		}
		if sol, ok := Solve(pc, intMeta, nil); ok {
			for _, p := range pc {
				if !p.Holds(sol) {
					t.Fatalf("trial %d: lying solution %v for %v", trial, sol, p)
				}
			}
		}
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct{ a, b, fl, ce int64 }{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{7, -2, -4, -3},
		{-7, -2, 3, 4},
		{6, 3, 2, 2},
		{0, 5, 0, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.fl {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fl)
		}
		if got := ceilDiv(c.a, c.b); got != c.ce {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ce)
		}
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{12, 18, 6}, {7, 13, 1}, {0, 5, 5}, {5, 0, 5}, {48, 36, 12},
	}
	for _, c := range cases {
		if got := gcd(c.a, c.b); got != c.want {
			t.Errorf("gcd(%d,%d) = %d", c.a, c.b, got)
		}
	}
}

// TestSolveIndependentOfMapOrder: the solver is a pure function of its
// input, so repeated calls on one system give one verdict, model and
// work count.  Each system has a MinInt64 term whose treatment once
// depended on Go's map iteration order: the first through the
// overflow-checked partial sums of the final verification, the second
// through the gcd of a row (abs64(MinInt64) is negative).
func TestSolveIndependentOfMapOrder(t *testing.T) {
	cases := []struct {
		name string
		pc   []symbolic.Pred
		hint map[symbolic.Var]int64
		work int64
	}{
		{"verify", []symbolic.Pred{
			pred(symbolic.NE, math.MinInt64, 12, -1, 18, -4),
		}, map[symbolic.Var]int64{12: 181, 18: -297}, 0},
		{"gcd", []symbolic.Pred{
			pred(symbolic.GE, -17, 0, -6, 12, 4, 24, -6, 25, math.MinInt64),
			pred(symbolic.LT, -169, 24, 6),
			pred(symbolic.GT, math.MinInt64, 6, 3),
		}, map[symbolic.Var]int64{0: 207, 25: 297}, 101},
	}
	for _, c := range cases {
		first, v0, st0 := SolveWorkStats(c.pc, intMeta, c.hint, c.work)
		want := fmt.Sprint(v0, first, st0.Work)
		for i := 0; i < 500; i++ {
			sol, v, st := SolveWorkStats(c.pc, intMeta, c.hint, c.work)
			if got := fmt.Sprint(v, sol, st.Work); got != want {
				t.Fatalf("%s: call %d gave %s, the first gave %s", c.name, i, got, want)
			}
		}
	}
}
