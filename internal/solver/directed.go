// The directed-search fast path: constraint independence slicing,
// canonical keying, and full-conjunction verification.
//
// DART's inner loop (Fig. 5 / Sec. 3.3) solves the path-constraint
// prefix with only the final predicate negated, so successive solver
// calls see highly redundant conjunctions.  Two classic reductions make
// this cheap without changing any result, both done per flip from the
// run's one Path index (path.go):
//
//   - Independence slicing.  Partition the conjunction into connected
//     components under the "shares a variable" relation and hand the
//     solver only the component containing the negated predicate.  The
//     other components are satisfied for free: their predicates were
//     observed true on the parent run, and IM + IM' preserves the
//     concrete values of every variable the solver does not touch.
//   - Solve memoization.  Key each sliced solve on an exact rendering
//     of the solver's input — the slice's predicate sequence plus the
//     hint values it depends on — and reuse the verdict and model when
//     the identical solve recurs.  Because key equality implies the
//     solver would see the byte-identical input, a cache hit is
//     indistinguishable from re-running the solver: caching can change
//     how fast a search runs, never what it finds.
//
// The slice preserves the path constraint's own predicate order.  An
// earlier design sorted slices into an order-insensitive canonical form
// so permuted prefixes could share cache entries; measurements showed
// the reordering made the solver materially slower (its substitution
// and elimination order follows predicate order, which in a path
// constraint mirrors the program's own structure) while the directed
// loop re-solves identical prefixes in identical order anyway, so
// cross-order sharing bought nothing.
//
// Soundness is preserved by construction: the package-doc contract that
// every returned assignment is verified against the original predicates
// is re-established at the full-conjunction level by Path.Verify,
// which callers run against the *unsliced* constraint (overflow-checked)
// whenever slicing actually pruned predicates.  (When nothing was
// pruned, the solver's own final verification already covered the full
// conjunction.)
package solver

import (
	"strconv"
	"strings"

	"dart/internal/symbolic"
)

// CacheKey is the identity of one sliced solve: the slice's predicates
// rendered in solve order, plus the hint values of every variable they
// mention.  The key deliberately encodes the predicate *sequence*, not
// just the set — key equality therefore means the solver would see the
// byte-identical input (same predicates, same order, same hint), so a
// cache hit returns exactly what a fresh solve would, and the
// determinism of cache-on versus cache-off searches reduces to the
// solver being a pure function of its input.  The hint belongs in the
// key because Solve seeds candidate enumeration and disequality splits
// from it; variables absent from the hint are recorded as such.
func CacheKey(slice []symbolic.Pred, hint map[symbolic.Var]int64) string {
	var b strings.Builder
	b.Grow(32 * (len(slice) + 1))
	vs := make([]symbolic.Var, 0, 16) // every slice variable, with repeats
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

// sortVars is an allocation-free insertion sort: key building sits on
// the solve path and the var lists are short, so reflection-based
// sort.Slice (closure + swapper allocations per call) costs more than
// the sort itself.
func sortVars(vs []symbolic.Var) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// appendPredKey appends p's canonical rendering to b — relation code,
// constant, then var:coeff pairs in ascending variable order (zero
// coefficients skipped) — and appends p's variables to vs, which it
// returns.  Structurally equal predicates, and only those, render
// identically.
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

// predKey renders one predicate in its CacheKey form (test hook).
func predKey(p symbolic.Pred) string {
	var b strings.Builder
	appendPredKey(&b, p, nil)
	return b.String()
}
