package solver

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dart/internal/symbolic"
)

// clusterPC is a conjunction with two independent components — {v0} and
// {v2, v3} — plus a v1 predicate, targeting a second v0 predicate.
func clusterPC() []symbolic.Pred {
	return []symbolic.Pred{
		pred(symbolic.GT, 0, 0, 1),         // v0 > 0
		pred(symbolic.GT, 0, 1, 1),         // v1 > 0
		pred(symbolic.GT, -10, 2, 1, 3, 1), // v2 + v3 > 10
		pred(symbolic.LT, -5, 0, 1),        // v0 < 5  (the negated branch)
	}
}

func TestCanonicalSliceIndependentClusters(t *testing.T) {
	slice, pruned := sliceOf(clusterPC())
	if pruned != 2 {
		t.Fatalf("pruned = %d, want 2 (the v1 and v2+v3 predicates)", pruned)
	}
	if len(slice) != 2 {
		t.Fatalf("slice length = %d, want 2", len(slice))
	}
	for _, p := range slice {
		if len(p.L.Coeffs) != 1 || p.L.Coeffs[0] == 0 {
			t.Errorf("slice predicate %v mentions variables outside the v0 component", p)
		}
	}
}

func TestCanonicalSlicePreservesOrder(t *testing.T) {
	// The slice must keep pc's own predicate order: the solver's
	// substitution and elimination order follows predicate order, so
	// reordering would change (and in practice slow) the solve.
	pc := clusterPC()
	slice, _ := sliceOf(pc)
	want := []symbolic.Pred{pc[0], pc[3]} // the v0 component, in pc order
	if len(slice) != len(want) || predKey(slice[0]) != predKey(want[0]) || predKey(slice[1]) != predKey(want[1]) {
		t.Errorf("slice = %v, want the v0 predicates in pc order %v", slice, want)
	}
	// And the identical pc must slice to the identical key — the solves
	// the directed loop actually repeats.
	again, _ := sliceOf(clusterPC())
	if CacheKey(slice, nil) != CacheKey(again, nil) {
		t.Error("identical conjunctions produced different cache keys")
	}
}

func TestCacheKeyOrderSensitive(t *testing.T) {
	// The key encodes the predicate *sequence*, not the set: key equality
	// must imply the solver sees the byte-identical input, which is what
	// makes a cache hit provably identical to a fresh solve.
	a := []symbolic.Pred{pred(symbolic.GT, 0, 0, 1), pred(symbolic.LT, -5, 0, 1)}
	b := []symbolic.Pred{a[1], a[0]}
	if CacheKey(a, nil) == CacheKey(b, nil) {
		t.Error("reordered slices must not share a cache key")
	}
}

func TestCanonicalSliceConstantTarget(t *testing.T) {
	pc := []symbolic.Pred{
		pred(symbolic.GT, 0, 0, 1),
		pred(symbolic.GE, -4), // constant: -4 >= 0, variable-free
	}
	slice, pruned := sliceOf(pc)
	if pruned != 1 || len(slice) != 1 || len(slice[0].L.Coeffs) != 0 {
		t.Errorf("constant target: slice %v pruned %d, want just the constant", slice, pruned)
	}
}

func TestCanonicalSliceFallbackKeepsAll(t *testing.T) {
	// An out-of-theory predicate (nil form) disables slicing: the solver
	// must see the full conjunction and report the failure itself.
	pc := []symbolic.Pred{
		pred(symbolic.GT, 0, 0, 1),
		{L: nil, Rel: symbolic.EQ},
		pred(symbolic.LT, -5, 1, 1),
	}
	slice, pruned := sliceOf(pc)
	if pruned != 0 || len(slice) != len(pc) {
		t.Errorf("fallback pred: slice %v pruned %d, want full conjunction", slice, pruned)
	}
}

func TestCacheKeyIncludesHintOfSliceVars(t *testing.T) {
	slice, _ := sliceOf(clusterPC())
	k1 := CacheKey(slice, map[symbolic.Var]int64{0: 1})
	k2 := CacheKey(slice, map[symbolic.Var]int64{0: 2})
	if k1 == k2 {
		t.Error("different hints for a slice variable must produce different keys")
	}
	// Hints for variables outside the slice are irrelevant to the solve
	// and must not fragment the key space.
	k3 := CacheKey(slice, map[symbolic.Var]int64{0: 1, 2: 99, 3: -7})
	if k1 != k3 {
		t.Error("hints of non-slice variables must not change the key")
	}
}

func TestVerifyAssignmentFullConjunction(t *testing.T) {
	pc := clusterPC()
	sol := map[symbolic.Var]int64{0: 3}
	hint := map[symbolic.Var]int64{1: 5, 2: 20, 3: 0}
	if !verifyOf(pc, intMeta, sol, hint) {
		t.Error("a satisfying slice solution completed by a satisfying hint must verify")
	}
	// A pruned-component violation must fail verification even though the
	// solved slice is satisfied.
	bad := map[symbolic.Var]int64{1: -5, 2: 20, 3: 0}
	if verifyOf(pc, intMeta, sol, bad) {
		t.Error("a violated pruned predicate must fail full-conjunction verification")
	}
}

func TestVerifyAssignmentRejectsOverflow(t *testing.T) {
	// 2*v0 > 0 under v0 = MaxInt64 wraps to -2: a wrapping evaluation
	// would accept the candidate, the checked one must reject it.
	pc := []symbolic.Pred{pred(symbolic.GT, 0, 0, 2)}
	if verifyOf(pc, intMeta, map[symbolic.Var]int64{0: math.MaxInt64}, nil) {
		t.Error("overflowing multiplication accepted")
	}
	// -1 * MinInt64 is the one product the quotient check misses.
	pc = []symbolic.Pred{pred(symbolic.GT, 0, 0, -1)}
	if verifyOf(pc, intMeta, map[symbolic.Var]int64{0: math.MinInt64}, nil) {
		t.Error("-1 * MinInt64 accepted")
	}
	// Sanity: the same shapes without overflow verify.
	pc = []symbolic.Pred{pred(symbolic.GT, 0, 0, 2)}
	if !verifyOf(pc, intMeta, map[symbolic.Var]int64{0: 5}, nil) {
		t.Error("in-range candidate rejected")
	}
}

func TestSlicedSolveVerifiesAgainstFullPC(t *testing.T) {
	// End to end across the fast-path pieces: solve only the slice, then
	// check the full conjunction with the parent run's hint.
	pc := clusterPC()
	hint := map[symbolic.Var]int64{0: 7, 1: 5, 2: 20, 3: 0} // parent run: v0 >= 5 branch not yet flipped
	slice, _ := sliceOf(pc)
	sol, verdict, _ := SolveWorkStats(slice, intMeta, hint, 0)
	if verdict != Sat {
		t.Fatalf("slice verdict = %v, want sat", verdict)
	}
	if !verifyOf(pc, intMeta, sol, hint) {
		t.Errorf("sliced solution %v (hint %v) fails the full conjunction", sol, hint)
	}
}

// flipPath indexes pc as a flip constraint: pc's last predicate is the
// negated branch, so the path holds it un-negated and the flip is n.
func flipPath(pc []symbolic.Pred) (p *Path, n int) {
	p = new(Path)
	for _, q := range pc[:len(pc)-1] {
		p.Add(q)
	}
	p.Add(pc[len(pc)-1].Negate())
	return p, len(pc) - 1
}

// sliceOf slices the flip constraint pc through a Path.
func sliceOf(pc []symbolic.Pred) ([]symbolic.Pred, int) {
	p, n := flipPath(pc)
	return p.Slice(n, new(PathScratch))
}

// verifyOf verifies sol against the flip constraint pc through a Path
// hinted with hint.
func verifyOf(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, sol, hint map[symbolic.Var]int64) bool {
	p, n := flipPath(pc)
	p.SetHint(hintFrom(hint))
	return p.Verify(n, meta, sol, new(PathScratch))
}

// hintFrom is a map hint as Path.SetHint reads it.
func hintFrom(hint map[symbolic.Var]int64) func(symbolic.Var) (int64, bool) {
	return func(v symbolic.Var) (int64, bool) {
		x, ok := hint[v]
		return x, ok
	}
}

// oracleKey is the map-based CacheKey rendering the Path renderer
// replaced, kept as the differential oracle: every predicate's
// coefficient map walked and sorted on every call.
func oracleKey(slice []symbolic.Pred, hint map[symbolic.Var]int64) string {
	var b strings.Builder
	var vs []symbolic.Var // every slice variable, with repeats
	for _, p := range slice {
		vs = appendPredKey(&b, p, vs)
		b.WriteByte('&')
	}
	b.WriteByte('#')
	sortVars(vs)
	for i, v := range vs {
		if i > 0 && vs[i-1] == v {
			continue
		}
		b.WriteString(strconv.Itoa(int(v)))
		b.WriteByte('=')
		if h, ok := hint[v]; ok {
			b.WriteString(strconv.FormatInt(h, 10))
		} else {
			b.WriteByte('?')
		}
		b.WriteByte(';')
	}
	return b.String()
}

func sortVars(vs []symbolic.Var) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// appendPredKey appends p's oracle rendering to b — relation code,
// constant, then var:coeff pairs in ascending variable order (zero
// coefficients skipped) — and appends p's variables to vs, which it
// returns.
func appendPredKey(b *strings.Builder, p symbolic.Pred, vs []symbolic.Var) []symbolic.Var {
	b.WriteByte('r')
	b.WriteString(strconv.Itoa(int(p.Rel)))
	if p.L == nil {
		b.WriteString("|<fallback>")
		return vs
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(p.L.Const, 10))
	start := len(vs)
	for v, c := range p.L.Coeffs {
		if c != 0 {
			vs = append(vs, v)
		}
	}
	own := vs[start:]
	sortVars(own)
	for _, v := range own {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(int(v)))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(p.L.Coeffs[v], 10))
	}
	return vs
}

// predKey renders one predicate in its oracle key form.
func predKey(p symbolic.Pred) string {
	var b strings.Builder
	appendPredKey(&b, p, nil)
	return b.String()
}

// oracleSlice is the map-based independence slicer Path.Slice replaced,
// kept as the differential oracle: union-find over a map, every
// predicate's coefficient map walked on every call.
func oracleSlice(pc []symbolic.Pred) (slice []symbolic.Pred, pruned int) {
	if len(pc) <= 1 {
		return pc, 0
	}
	for _, p := range pc {
		if p.L == nil {
			return pc, 0
		}
	}
	parent := map[symbolic.Var]symbolic.Var{}
	var find func(v symbolic.Var) symbolic.Var
	find = func(v symbolic.Var) symbolic.Var {
		r, ok := parent[v]
		if !ok {
			parent[v] = v
			return v
		}
		if r != v {
			r = find(r)
			parent[v] = r
		}
		return r
	}
	for _, p := range pc {
		var first symbolic.Var
		seen := false
		for v, c := range p.L.Coeffs {
			if c == 0 {
				continue
			}
			if !seen {
				first, seen = v, true
				find(v)
				continue
			}
			if ra, rb := find(first), find(v); ra != rb {
				parent[ra] = rb
			}
		}
	}
	target := pc[len(pc)-1]
	var root symbolic.Var
	hasVars := false
	for v, c := range target.L.Coeffs {
		if c != 0 {
			root, hasVars = find(v), true
			break
		}
	}
	if !hasVars {
		return pc[len(pc)-1:], len(pc) - 1
	}
	for _, p := range pc {
		for v, c := range p.L.Coeffs {
			if c != 0 && find(v) == root {
				slice = append(slice, p)
				break
			}
		}
	}
	return slice, len(pc) - len(slice)
}

// oracleVerify is the map-based full-conjunction check Path.Verify
// replaced, kept as the differential oracle.
func oracleVerify(pc []symbolic.Pred, meta func(symbolic.Var) VarMeta, sol, hint map[symbolic.Var]int64) bool {
	assign := map[symbolic.Var]int64{}
	for _, p := range pc {
		if p.L == nil {
			return false
		}
		hasPtr, hasScalar := false, false
		for v, c := range p.L.Coeffs {
			if c == 0 {
				continue
			}
			if meta(v).Kind == symbolic.PointerVar {
				hasPtr = true
			} else {
				hasScalar = true
			}
			if _, ok := assign[v]; !ok {
				if x, ok := sol[v]; ok {
					assign[v] = x
				} else {
					assign[v] = hint[v]
				}
			}
		}
		switch {
		case hasPtr && hasScalar:
			return false
		case hasPtr:
			if evalPtrPred(symbolic.Pred{L: stripZeros(p.L), Rel: p.Rel}, assign) != triTrue {
				return false
			}
		default:
			if !holdsChecked(p, assign) {
				return false
			}
		}
	}
	return true
}

// randPreds draws a predicate list over vars 0..nvars-1 covering shared
// and disjoint variables, zero coefficients, variable-free forms and nil
// forms.  With oneVar, every form has at most one variable, so a checked
// evaluation cannot depend on the (map-ordered) summation order and
// extreme values may be assigned.
func randPreds(r *rand.Rand, nvars int, oneVar bool) []symbolic.Pred {
	preds := make([]symbolic.Pred, 1+r.Intn(7))
	for i := range preds {
		rel := symbolic.Rel(r.Intn(int(symbolic.GE) + 1))
		if r.Intn(10) == 0 {
			preds[i] = symbolic.Pred{Rel: rel} // outside the theory
			continue
		}
		l := &symbolic.Lin{Const: int64(r.Intn(21) - 10), Coeffs: map[symbolic.Var]int64{}}
		terms := r.Intn(4)
		if oneVar && terms > 1 {
			terms = 1
		}
		for ; terms > 0; terms-- {
			l.Coeffs[symbolic.Var(r.Intn(nvars))] = int64(r.Intn(7) - 3) // zero included
		}
		preds[i] = symbolic.Pred{L: l, Rel: rel}
	}
	return preds
}

// randAssign draws a partial assignment; pointer variables (odd, under
// mixedMeta) get NULL or an allocation.
func randAssign(r *rand.Rand, nvars int, extreme bool) map[symbolic.Var]int64 {
	m := map[symbolic.Var]int64{}
	for v := 0; v < nvars; v++ {
		switch {
		case r.Intn(3) == 0:
			continue
		case v%2 == 1:
			m[symbolic.Var(v)] = int64(r.Intn(2))
		case extreme && r.Intn(4) == 0:
			m[symbolic.Var(v)] = []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 / 2}[r.Intn(3)]
		default:
			m[symbolic.Var(v)] = int64(r.Intn(21) - 10)
		}
	}
	return m
}

// flipOf is the flip constraint preds[:n] ∧ ¬preds[n] as one list.
func flipOf(preds []symbolic.Pred, n int) []symbolic.Pred {
	return append(append([]symbolic.Pred{}, preds[:n]...), preds[n].Negate())
}

func samePreds(a, b []symbolic.Pred) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].L != b[i].L || a[i].Rel != b[i].Rel {
			return false
		}
	}
	return true
}

func TestPathMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s PathScratch // one scratch across every path, as an engine keeps it
	ns := map[int]int{}
	for iter := 0; iter < 4000; iter++ {
		nvars := 1 + r.Intn(6)
		oneVar := iter%4 == 0
		preds := randPreds(r, nvars, oneVar)
		p := new(Path)
		for _, q := range preds {
			p.Add(q)
		}
		for n := range preds {
			ns[n]++
			pc := flipOf(preds, n)
			want, wantPruned := oracleSlice(pc)
			got, gotPruned := p.Slice(n, &s)
			if gotPruned != wantPruned || !samePreds(got, want) {
				t.Fatalf("iter %d n=%d: Slice = %v (pruned %d), oracle %v (pruned %d); preds %v",
					iter, n, got, gotPruned, want, wantPruned, preds)
			}
			for k := 0; k < 3; k++ {
				sol, hint := randAssign(r, nvars, oneVar), randAssign(r, nvars, oneVar)
				p.SetHint(hintFrom(hint))
				if got, want := p.Verify(n, mixedMeta, sol, &s), oracleVerify(pc, mixedMeta, sol, hint); got != want {
					t.Fatalf("iter %d n=%d: Verify = %v, oracle %v; preds %v sol %v hint %v",
						iter, n, got, want, preds, sol, hint)
				}
			}
		}
	}
	for n := 0; n <= 2; n++ {
		if ns[n] == 0 {
			t.Errorf("no flip at n=%d was checked", n)
		}
	}
}

// TestPathKeyMatchesOracle: for every flip of the random predicate
// lists, the key Path renders from its index (and CacheKey, which
// indexes its slice) equals the map-based oracle rendering.  The lists
// carry nil forms, constant targets and explicit zero coefficients, and
// the hints leave variables absent.
func TestPathKeyMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var s PathScratch // one scratch across every path, as an engine keeps it
	seen := map[string]int{}
	for iter := 0; iter < 4000; iter++ {
		nvars := 1 + r.Intn(6)
		preds := randPreds(r, nvars, iter%4 == 0)
		hint := randAssign(r, nvars, false)
		p := new(Path)
		for _, q := range preds {
			p.Add(q)
		}
		p.SetHint(hintFrom(hint))
		for n := range preds {
			slice, _ := p.Slice(n, &s)
			want := oracleKey(slice, hint)
			if got := p.Key(&s); got != want {
				t.Fatalf("iter %d n=%d: Key = %q, oracle %q; preds %v hint %v", iter, n, got, want, preds, hint)
			}
			if got := CacheKey(slice, hint); got != want {
				t.Fatalf("iter %d n=%d: CacheKey = %q, oracle %q", iter, n, got, want)
			}
			for _, q := range slice {
				if q.L == nil {
					seen["nil form"]++
					continue
				}
				for v, c := range q.L.Coeffs {
					if c == 0 {
						seen["zero coefficient"]++
					} else if _, ok := hint[v]; !ok {
						seen["absent hint"]++
					}
				}
			}
			if l := preds[n].L; l != nil {
				constant := true
				for _, c := range l.Coeffs {
					constant = constant && c == 0
				}
				if constant {
					seen["constant target"]++
				}
			}
		}
	}
	for _, c := range []string{"nil form", "zero coefficient", "absent hint", "constant target"} {
		if seen[c] == 0 {
			t.Errorf("no keyed slice had a %s", c)
		}
	}
}

func TestPathNilFormPlacement(t *testing.T) {
	// A nil form before or at the flip disables slicing and fails
	// verification; one after the flip is not part of it.
	x := pred(symbolic.GT, 0, 0, 1)  // v0 > 0
	y := pred(symbolic.GT, 0, 1, 1)  // v1 > 0
	z := pred(symbolic.LT, -5, 0, 1) // v0 < 5
	bad := symbolic.Pred{Rel: symbolic.EQ}
	sol := map[symbolic.Var]int64{0: 7, 1: 1}
	for _, c := range []struct {
		name     string
		preds    []symbolic.Pred
		n        int
		pruned   int
		verifies bool
	}{
		{"before", []symbolic.Pred{bad, y, z}, 2, 0, false},
		{"at", []symbolic.Pred{x, y, bad}, 2, 0, false},
		{"after", []symbolic.Pred{x, y, z, bad}, 2, 1, true},
	} {
		p := new(Path)
		for _, q := range c.preds {
			p.Add(q)
		}
		var s PathScratch
		if _, pruned := p.Slice(c.n, &s); pruned != c.pruned {
			t.Errorf("%s: pruned %d, want %d", c.name, pruned, c.pruned)
		}
		if got := p.Verify(c.n, intMeta, sol, &s); got != c.verifies {
			t.Errorf("%s: Verify = %v, want %v", c.name, got, c.verifies)
		}
	}
}

// TestPathVars: the path's variables are those with a nonzero
// coefficient; SetHint asks for exactly them, and a slice's hint holds
// the hinted ones among them.
func TestPathVars(t *testing.T) {
	p := new(Path)
	p.Add(pred(symbolic.GT, 0, 3, 1, 0, 0)) // v0 has a zero coefficient
	p.Add(pred(symbolic.GT, 0, 1, 1, 3, 2))
	asked := map[symbolic.Var]bool{}
	p.SetHint(func(v symbolic.Var) (int64, bool) {
		asked[v] = true
		return 7, v == 3
	})
	if len(asked) != 2 || !asked[1] || !asked[3] {
		t.Errorf("SetHint asked for %v, want vars 1 and 3", asked)
	}
	var s PathScratch
	p.Slice(1, &s)
	if h := p.Hint(&s); len(h) != 1 || h[3] != 7 {
		t.Errorf("Hint = %v, want map[3:7]", h)
	}
}

// Sibling flips of one run share its Path across workers: each slices
// and verifies with its own scratch, concurrently (run under -race).
func TestPathConcurrentSiblings(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var preds []symbolic.Pred
	for len(preds) < 24 {
		preds = append(preds, randPreds(r, 8, false)...)
	}
	p := new(Path)
	for _, q := range preds {
		p.Add(q)
	}
	sol, hint := randAssign(r, 8, false), randAssign(r, 8, false)
	p.SetHint(hintFrom(hint))
	type answer struct {
		slice  []symbolic.Pred
		pruned int
		ok     bool
		key    string
	}
	want := make([]answer, len(preds))
	for n := range preds {
		pc := flipOf(preds, n)
		sl, pr := oracleSlice(pc)
		want[n] = answer{sl, pr, oracleVerify(pc, mixedMeta, sol, hint), oracleKey(sl, hint)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s PathScratch
			for rep := 0; rep < 50; rep++ {
				for i := range preds {
					n := i
					if w == 1 {
						n = len(preds) - 1 - i // the other end of the siblings
					}
					sl, pr := p.Slice(n, &s)
					if pr != want[n].pruned || !samePreds(sl, want[n].slice) {
						t.Errorf("worker %d n=%d: slice differs from the oracle", w, n)
						return
					}
					if p.Key(&s) != want[n].key {
						t.Errorf("worker %d n=%d: key differs from the oracle", w, n)
						return
					}
					if p.Verify(n, mixedMeta, sol, &s) != want[n].ok {
						t.Errorf("worker %d n=%d: verify differs from the oracle", w, n)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
