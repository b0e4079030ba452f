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
//   - Solve memoization.  Key each sliced solve on an exact encoding
//     of the solver's input — the slice's predicate sequence plus the
//     hint values it depends on, as self-delimiting binary rendered into
//     the caller's scratch — and reuse the verdict and model when the
//     identical solve recurs.  A lookup indexes the memo by those bytes
//     without copying them and hands back the stored model itself,
//     shared and read-only, so a hit allocates nothing; only a store
//     copies the key and the model.  Because key equality implies the
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
// whenever slicing actually pruned predicates, and on every answer a
// persistent (disk) layer gave.  (When nothing was pruned and the
// solver, or a memo of its answer in this process, answered, the
// solver's own final verification already covered the full
// conjunction.)
package solver

import "dart/internal/symbolic"

// CacheKey is the identity of one sliced solve: the slice's predicates
// in solve order, plus the hint values of every variable they mention,
// in the self-delimiting varint encoding Path.Key renders.  The key
// deliberately encodes the predicate *sequence*, not just the set —
// key equality therefore means the solver would see the byte-identical
// input (same predicates, same order, same hint), so a
// cache hit returns exactly what a fresh solve would, and the
// determinism of cache-on versus cache-off searches reduces to the
// solver being a pure function of its input.  The hint belongs in the
// key because Solve seeds candidate enumeration and disequality splits
// from it; variables absent from the hint are recorded as such.
//
// CacheKey indexes slice into a Path, so its variables must be
// non-negative and dense; the engines render the same bytes from their
// run's Path directly (Path.Key) and look them up without a string.
func CacheKey(slice []symbolic.Pred, hint map[symbolic.Var]int64) string {
	p := NewPath(len(slice))
	idx := make([]int32, len(slice))
	for i, q := range slice {
		p.Add(q)
		idx[i] = int32(i)
	}
	p.SetHint(func(v symbolic.Var) (int64, bool) {
		x, ok := hint[v]
		return x, ok
	})
	return string(p.render(slice, idx, new(PathScratch)))
}
