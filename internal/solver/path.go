package solver

import (
	"encoding/binary"

	"dart/internal/symbolic"
)

// Path is the index of one run's path constraint.  Every flip of the
// run solves preds[:n] ∧ ¬preds[n] for some n, so all of them share the
// run's predicates; a Path flattens each predicate's nonzero
// (variable, coefficient) terms once, sorted by variable, into arrays
// that Slice, Key and Verify walk without touching a coefficient map
// again.  It also holds the hint: the run's input value of each of its
// variables, set once by SetHint after the last Add and before the
// path is shared.
//
// Variables are used as array indices: they must be non-negative and
// dense (the engine's registry numbers them 0, 1, 2, ...).  A built Path
// is read-only, so the sibling flips of one run may be sliced, keyed
// and verified concurrently, each caller with its own PathScratch.
type Path struct {
	preds []symbolic.Pred
	// off[i]..off[i+1] delimit predicate i's terms in vars and coefs.
	off   []int32
	vars  []int32
	coefs []int64
	// firstNil is the first predicate outside the theory (nil form), if
	// hasNil.
	hasNil   bool
	firstNil int
	// nvars exceeds every variable of the path.
	nvars int32
	// hint[v] is path variable v's hint value when hinted[v]; both are
	// empty until SetHint, and every variable reads as unhinted.
	hint   []int64
	hinted []bool
}

// PathScratch is a caller's reusable working memory for Path.Slice,
// Key, Hint and Verify.  The zero value is ready; it must not be shared
// between goroutines.
type PathScratch struct {
	parent []int32         // union-find forest over variables
	val    []int64         // the completed assignment, by variable
	kind   []uint8         // per variable: 0 unread, scalarVal, pointerVal, keyVar
	alloc  []int64         // a pointer predicate's allocated-var coefficients
	out    []symbolic.Pred // the returned slice
	idx    []int32         // out's predicates, by index on the path
	key    []byte          // the last key rendered
	kvars  []int32         // the key's variables
}

const (
	scalarVal uint8 = 1 + iota
	pointerVal
	// keyVar marks a variable the key being rendered has listed; no
	// entry of kind holds it between calls.
	keyVar
)

// NewPath returns an empty path with room for about n predicates.
func NewPath(n int) *Path {
	return &Path{
		preds: make([]symbolic.Pred, 0, n),
		off:   make([]int32, 0, n+1),
		vars:  make([]int32, 0, 2*n),
		coefs: make([]int64, 0, 2*n),
	}
}

// Reset empties the path for re-indexing, keeping its arrays.
func (p *Path) Reset() {
	p.preds = p.preds[:0]
	p.off = p.off[:0]
	p.vars = p.vars[:0]
	p.coefs = p.coefs[:0]
	p.hasNil, p.firstNil, p.nvars = false, 0, 0
	p.hint, p.hinted = p.hint[:0], p.hinted[:0]
}

// Add appends the next predicate of the path constraint.
func (p *Path) Add(q symbolic.Pred) {
	if len(p.off) == 0 {
		p.off = append(p.off, 0)
	}
	if q.L == nil && !p.hasNil {
		p.hasNil, p.firstNil = true, len(p.preds)
	}
	p.preds = append(p.preds, q)
	if q.L != nil {
		start := len(p.vars)
		for v, c := range q.L.Coeffs {
			if c == 0 {
				continue
			}
			// Insertion into the predicate's sorted run: forms are short.
			p.vars = append(p.vars, int32(v))
			p.coefs = append(p.coefs, c)
			for i := len(p.vars) - 1; i > start && p.vars[i] < p.vars[i-1]; i-- {
				p.vars[i], p.vars[i-1] = p.vars[i-1], p.vars[i]
				p.coefs[i], p.coefs[i-1] = p.coefs[i-1], p.coefs[i]
			}
			if int32(v) >= p.nvars {
				p.nvars = int32(v) + 1
			}
		}
	}
	p.off = append(p.off, int32(len(p.vars)))
}

// Len is the number of predicates on the path.
func (p *Path) Len() int { return len(p.preds) }

// SetHint records the hint of every path variable: get returns the
// run's input value of v, or false when the run has none.  It is called
// once, after the last Add and before the path is shared; flips of the
// path mention no other variable, so no other can reach their solve,
// key or verification.
func (p *Path) SetHint(get func(symbolic.Var) (int64, bool)) {
	p.hint = append(p.hint[:0], make([]int64, p.nvars)...)
	p.hinted = append(p.hinted[:0], make([]bool, p.nvars)...)
	for _, v := range p.vars {
		p.hint[v], p.hinted[v] = get(symbolic.Var(v))
	}
}

// hintOf returns variable v's hint value, and whether it has one.
func (p *Path) hintOf(v int32) (int64, bool) {
	if int(v) < len(p.hinted) && p.hinted[v] {
		return p.hint[v], true
	}
	return 0, false
}

// terms returns predicate i's variables and coefficients.
func (p *Path) terms(i int) ([]int32, []int64) {
	a, b := p.off[i], p.off[i+1]
	return p.vars[a:b], p.coefs[a:b]
}

// grow sizes s for variables below n.
func (s *PathScratch) grow(n int32) {
	if int(n) > len(s.parent) {
		s.parent = make([]int32, n)
		s.val = make([]int64, n)
		s.kind = make([]uint8, n)
	}
}

// Slice returns the flip constraint preds[:n] ∧ ¬preds[n] reduced to
// the connected component of its final (negated) predicate, in path
// order, plus the number of predicates pruned away.  Components are
// taken under the "shares a variable" relation (zero coefficients
// ignored); variable-free predicates belong to no component and are
// pruned unless they are the target itself.  When any predicate of the
// flip is outside the theory (nil form), nothing is pruned, so the
// solver reports the failure on the full conjunction.
//
// The pruned predicates depend only on variables the solve will not
// touch, whose concrete parent-run values IM + IM' preserves; Verify
// re-checks them against the model.  The returned slice lives in s and
// is valid until s is next used.
func (p *Path) Slice(n int, s *PathScratch) (slice []symbolic.Pred, pruned int) {
	out, idx := s.out[:0], s.idx[:0]
	target := p.preds[n].Negate()
	if n == 0 || (p.hasNil && p.firstNil <= n) {
		for i := 0; i <= n; i++ {
			idx = append(idx, int32(i))
		}
		s.out, s.idx = append(append(out, p.preds[:n]...), target), idx
		return s.out, 0
	}
	tvars, _ := p.terms(n)
	if len(tvars) == 0 {
		// A constant target shares no variables with anything; solving
		// it alone decides the flip, and Verify re-checks the prefix.
		s.out, s.idx = append(out, target), append(idx, int32(n))
		return s.out, n
	}

	// Union-find over the flip's variables: each predicate unions its
	// own.  (Any root choice yields the same partition, which is all the
	// slice depends on.)
	s.grow(p.nvars)
	parent := s.parent
	for _, v := range p.vars[:p.off[n+1]] {
		parent[v] = v
	}
	for i := 0; i <= n; i++ {
		vs, _ := p.terms(i)
		if len(vs) < 2 {
			continue
		}
		r := find(parent, vs[0])
		for _, v := range vs[1:] {
			if rv := find(parent, v); rv != r {
				parent[rv] = r
			}
		}
	}
	// A predicate's variables all share one root, so its first variable
	// decides its membership.
	root := find(parent, tvars[0])
	for i := 0; i < n; i++ {
		if vs, _ := p.terms(i); len(vs) > 0 && find(parent, vs[0]) == root {
			out = append(out, p.preds[i])
			idx = append(idx, int32(i))
		}
	}
	s.out, s.idx = append(out, target), append(idx, int32(n))
	return s.out, n + 1 - len(s.out)
}

// Key renders the solve-cache key of the slice the last Slice call
// returned in s (CacheKey's bytes) from the flat arrays and the hint.
// The bytes live in s and are valid until s renders the next key.
func (p *Path) Key(s *PathScratch) []byte {
	return p.render(s.out, s.idx, s)
}

// render is CacheKey's one encoder: slice[k] is path predicate idx[k],
// up to its relation.  The encoding is self-delimiting, so equal bytes
// mean an equal slice and hint: the predicate count; per predicate its
// relation, then 0 for a form outside the theory, or its term count
// plus one, its constant and its (variable, coefficient) pairs in
// ascending variable order (zero coefficients skipped); then, for each
// of the slice's variables in ascending order, 0 when it has no hint or
// 1 and its hint value.  Counts and variables are unsigned varints;
// relations, constants, coefficients and hints are zig-zag varints.
func (p *Path) render(slice []symbolic.Pred, idx []int32, s *PathScratch) []byte {
	s.grow(p.nvars)
	b, kv := binary.AppendUvarint(s.key[:0], uint64(len(slice))), s.kvars[:0]
	for k, q := range slice {
		b = binary.AppendVarint(b, int64(q.Rel))
		if q.L == nil {
			b = append(b, 0)
			continue
		}
		vs, cs := p.terms(int(idx[k]))
		b = binary.AppendUvarint(b, uint64(len(vs))+1)
		b = binary.AppendVarint(b, q.L.Const)
		for t, v := range vs {
			b = binary.AppendUvarint(b, uint64(v))
			b = binary.AppendVarint(b, cs[t])
			if s.kind[v] != keyVar {
				s.kind[v] = keyVar
				kv = append(kv, v)
			}
		}
	}
	// Insertion sort: a slice's variables are few.
	for i := 1; i < len(kv); i++ {
		for j := i; j > 0 && kv[j] < kv[j-1]; j-- {
			kv[j], kv[j-1] = kv[j-1], kv[j]
		}
	}
	for _, v := range kv {
		s.kind[v] = 0
		if h, ok := p.hintOf(v); ok {
			b = binary.AppendVarint(append(b, 1), h)
		} else {
			b = append(b, 0)
		}
	}
	s.key, s.kvars = b, kv
	return b
}

// Hint returns the hint of the slice the last Slice call returned in s
// as a map, the form PortableKey and the solver take: the hinted values
// of the slice's variables.  Neither looks up any other variable.
func (p *Path) Hint(s *PathScratch) map[symbolic.Var]int64 {
	h := make(map[symbolic.Var]int64)
	for _, i := range s.idx {
		vs, _ := p.terms(int(i))
		for _, v := range vs {
			if x, ok := p.hintOf(v); ok {
				h[symbolic.Var(v)] = x
			}
		}
	}
	return h
}

// find returns v's root, halving the path as it goes.
func find(parent []int32, v int32) int32 {
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}

// Verify reports whether sol, completed by the path's hint for
// variables it does not assign (absent from both reads as 0), satisfies
// every predicate of the full flip constraint preds[:n] ∧ ¬preds[n].
// Integer predicates are evaluated with overflow checking (a wrapping
// evaluation counts as unsatisfied); pointer predicates must be
// definitely true under three-valued evaluation; predicates outside the
// theory, or mixing pointer and scalar variables, fail conservatively —
// the same classes the solver itself refuses.  Callers of sliced solves
// run this whenever Slice pruned predicates or a disk layer answered,
// re-establishing the package-doc soundness contract at the
// full-conjunction level.
func (p *Path) Verify(n int, meta func(symbolic.Var) VarMeta, sol map[symbolic.Var]int64, s *PathScratch) bool {
	if p.hasNil && p.firstNil <= n {
		return false
	}
	s.grow(p.nvars)
	for _, v := range p.vars[:p.off[n+1]] {
		s.kind[v] = 0
	}
	for i := 0; i <= n; i++ {
		rel := p.preds[i].Rel
		if i == n {
			rel = rel.Negate()
		}
		vs, cs := p.terms(i)
		hasPtr, hasScalar := false, false
		for _, v := range vs {
			if s.kind[v] == 0 {
				x, ok := sol[symbolic.Var(v)]
				if !ok {
					x, _ = p.hintOf(v)
				}
				s.val[v] = x
				s.kind[v] = scalarVal
				if meta(symbolic.Var(v)).Kind == symbolic.PointerVar {
					s.kind[v] = pointerVal
				}
			}
			if s.kind[v] == pointerVal {
				hasPtr = true
			} else {
				hasScalar = true
			}
		}
		k := p.preds[i].L.Const
		switch {
		case hasPtr && hasScalar:
			return false
		case hasPtr:
			alloc := s.alloc[:0]
			for t, v := range vs {
				if s.val[v] != PtrNull {
					alloc = append(alloc, cs[t])
				}
			}
			s.alloc = alloc[:0]
			if ptrTruth(k, rel, alloc) != triTrue {
				return false
			}
		default:
			total, ok := k, true
			for t, v := range vs {
				var prod int64
				if prod, ok = symbolic.CheckedMul(cs[t], s.val[v]); !ok {
					break
				}
				if total, ok = symbolic.CheckedAdd(total, prod); !ok {
					break
				}
			}
			if !ok || !cmpInt(total, rel) {
				return false
			}
		}
	}
	return true
}
