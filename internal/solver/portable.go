// Cross-process solve memoization: the portable rendering of a solve
// and the contract a disk-backed cache layer implements.
//
// CacheKey (directed.go) renders variables by their symbolic.Var
// numbers, which are assigned in first-use order *within one search* —
// perfectly sound for the per-search LRU, and meaningless outside it:
// the same bytes can denote different constraints in another search,
// another function, another process.  A persistent layer therefore
// needs a key that renders the solver's entire semantic input with no
// search-local state: every variable appears as its stable input key
// (the "d0.x" naming scheme shared by the engine, Replay, and recorded
// input vectors) together with its full domain, the predicate sequence
// keeps solve order exactly like CacheKey, the hint travels by name,
// and the work budget is part of the key (a BudgetExhausted verdict is
// only reusable under the same budget).  Key equality then means any
// solver anywhere would see the byte-identical input, so a persistent
// hit returns precisely what a fresh solve would — the same argument
// that makes the in-memory memo invisible to search results.
package solver

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"dart/internal/symbolic"
)

// PortableResult is a persisted solve outcome: the verdict plus, for
// Sat, the model keyed by stable input-key names.
type PortableResult struct {
	Verdict Verdict
	Model   map[string]int64
}

// PersistentCache is the contract of a disk-backed solve memo shared
// across searches and processes.  Implementations must be safe for
// concurrent use (parallel audit workers consult one cache) and must
// treat any unreadable or corrupt persisted record as absent — a
// degraded cache costs solver time, never a wrong verdict.
//
// A key is the caller's scratch, valid only during the call: the engine
// renders each key into a buffer it reuses for the next solve, so an
// implementation copies the key bytes it stores.
type PersistentCache interface {
	// GetPortable returns the persisted result for key, if any.  The
	// returned model is shared with the cache and read-only: the caller
	// must not write it.
	GetPortable(key []byte) (PortableResult, bool)
	// PutPortable records one solve outcome.  It takes ownership of
	// model, which the caller must not use after the call.
	PutPortable(key []byte, verdict Verdict, model map[string]int64)
}

// portableKeyVersion stamps every portable key so a future change to
// the rendering (or to solver semantics that the rendering cannot see)
// invalidates old entries wholesale instead of aliasing them.
const portableKeyVersion = "pk1"

// PortableScratch is a caller's reusable working memory for
// AppendPortableKey.  The zero value is ready; it must not be shared
// between goroutines.
type PortableScratch struct {
	// terms holds the nonzero terms of the slice, each predicate's run
	// in name order while its section renders, then all of them
	// deduplicated by variable for the hint section.
	terms []namedTerm
}

type namedTerm struct {
	name string
	v    symbolic.Var
	c    int64
}

// byName orders terms by name, then by variable, so a variable's
// repeats are adjacent for deduplication.
func byName(a, b namedTerm) int {
	if c := strings.Compare(a.name, b.name); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// PortableKey renders one sliced solve with no search-local state:
// version, work budget, the predicate sequence in solve order (each
// variable as name + domain, coefficient pairs in name order), and the
// hint values by name.  name and meta resolve a variable to its stable
// input key and solver domain; both must be total over the slice's
// variables, and name must be one-to-one on them (distinct variables
// rendered alike would alias distinct solves).  It returns
// AppendPortableKey's bytes as a string.
func PortableKey(slice []symbolic.Pred, hint map[symbolic.Var]int64, budget int64, name func(symbolic.Var) string, meta func(symbolic.Var) VarMeta) string {
	var s PortableScratch
	return string(AppendPortableKey(make([]byte, 0, 64*(len(slice)+1)), &s, slice, hint, budget, name, meta))
}

// AppendPortableKey appends PortableKey's rendering of the solve to dst
// and returns the extended buffer, using s for working memory: into a
// buffer and scratch with room from earlier keys it allocates nothing.
func AppendPortableKey(dst []byte, s *PortableScratch, slice []symbolic.Pred, hint map[symbolic.Var]int64, budget int64, name func(symbolic.Var) string, meta func(symbolic.Var) VarMeta) []byte {
	dst = append(dst, portableKeyVersion+"!b"...)
	dst = strconv.AppendInt(dst, budget, 10)
	dst = append(dst, '!')
	terms := s.terms[:0]
	for _, p := range slice {
		dst = append(dst, 'r')
		dst = strconv.AppendInt(dst, int64(p.Rel), 10)
		if p.L == nil {
			dst = append(dst, "|<fallback>&"...)
			continue
		}
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, p.L.Const, 10)
		start := len(terms)
		for v, c := range p.L.Coeffs {
			if c != 0 {
				terms = append(terms, namedTerm{name(v), v, c})
			}
		}
		pred := terms[start:]
		slices.SortFunc(pred, byName)
		for _, t := range pred {
			m := meta(t.v)
			dst = append(dst, '|')
			dst = appendName(dst, t.name)
			dst = append(dst, '{')
			dst = strconv.AppendInt(dst, int64(m.Kind), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, m.Lo, 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, m.Hi, 10)
			dst = append(dst, "}:"...)
			dst = strconv.AppendInt(dst, t.c, 10)
		}
		dst = append(dst, '&')
	}

	// Hint section: the slice's variables in name order, each with its
	// hint value (or '?' when absent), exactly mirroring CacheKey.
	dst = append(dst, '#')
	slices.SortFunc(terms, byName)
	terms = slices.CompactFunc(terms, func(a, b namedTerm) bool { return a.v == b.v })
	for _, t := range terms {
		dst = appendName(dst, t.name)
		dst = append(dst, '=')
		if h, ok := hint[t.v]; ok {
			dst = strconv.AppendInt(dst, h, 10)
		} else {
			dst = append(dst, '?')
		}
		dst = append(dst, ';')
	}
	s.terms = terms
	return dst
}

// appendName appends a length-prefixed name, so names can never collide
// with the key's own delimiters no matter what characters they contain.
func appendName(dst []byte, n string) []byte {
	dst = strconv.AppendInt(dst, int64(len(n)), 10)
	dst = append(dst, ':')
	return append(dst, n...)
}
