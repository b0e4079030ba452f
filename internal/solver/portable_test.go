package solver

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dart/internal/symbolic"
)

// portableEnv is a tiny variable universe for key tests: names and
// domains indexed by Var.
type portableEnv struct {
	names []string
	metas []VarMeta
}

func (e portableEnv) name(v symbolic.Var) string { return e.names[v] }
func (e portableEnv) meta(v symbolic.Var) VarMeta {
	return e.metas[v]
}

func intMetaFor(lo, hi int64) VarMeta {
	return VarMeta{Kind: symbolic.ScalarVar, Lo: lo, Hi: hi}
}

// pred builds c + sum(coeff*var) rel 0.
func portablePred(rel symbolic.Rel, c int64, terms map[symbolic.Var]int64) symbolic.Pred {
	l := &symbolic.Lin{Coeffs: terms, Const: c}
	return symbolic.Pred{L: l, Rel: rel}
}

// TestPortableKeyNumberingIndependent is the soundness property the
// persistent cache rests on: two searches that registered the same
// inputs in different first-use orders (different Var numbers, same
// names and domains) render the same solve to the same key.
func TestPortableKeyNumberingIndependent(t *testing.T) {
	// Search A: x = var 0, y = var 1.
	a := portableEnv{
		names: []string{"d0.x", "d0.y"},
		metas: []VarMeta{intMetaFor(-100, 100), intMetaFor(-100, 100)},
	}
	// Search B: y = var 0, x = var 1.
	b := portableEnv{
		names: []string{"d0.y", "d0.x"},
		metas: []VarMeta{intMetaFor(-100, 100), intMetaFor(-100, 100)},
	}
	// x + 2y - 7 == 0 in both numberings, with hint x=3, y=2.
	pcA := []symbolic.Pred{portablePred(symbolic.EQ, -7, map[symbolic.Var]int64{0: 1, 1: 2})}
	pcB := []symbolic.Pred{portablePred(symbolic.EQ, -7, map[symbolic.Var]int64{1: 1, 0: 2})}
	hintA := map[symbolic.Var]int64{0: 3, 1: 2}
	hintB := map[symbolic.Var]int64{1: 3, 0: 2}

	ka := PortableKey(pcA, hintA, DefaultWork, a.name, a.meta)
	kb := PortableKey(pcB, hintB, DefaultWork, b.name, b.meta)
	if ka != kb {
		t.Errorf("same semantic solve rendered to different portable keys:\n  %s\n  %s", ka, kb)
	}
}

func TestPortableKeyDiscriminates(t *testing.T) {
	env := portableEnv{
		names: []string{"d0.x"},
		metas: []VarMeta{intMetaFor(-100, 100)},
	}
	pc := []symbolic.Pred{portablePred(symbolic.EQ, -7, map[symbolic.Var]int64{0: 1})}
	hint := map[symbolic.Var]int64{0: 3}
	base := PortableKey(pc, hint, DefaultWork, env.name, env.meta)

	// A different domain for the same name must change the key: the
	// solver's answer depends on it.
	narrow := portableEnv{
		names: []string{"d0.x"},
		metas: []VarMeta{intMetaFor(0, 5)},
	}
	if k := PortableKey(pc, hint, DefaultWork, narrow.name, narrow.meta); k == base {
		t.Error("portable key ignored the variable domain")
	}
	// A different budget must change the key: BudgetExhausted verdicts
	// are budget-relative.
	if k := PortableKey(pc, hint, DefaultWork/2, env.name, env.meta); k == base {
		t.Error("portable key ignored the work budget")
	}
	// A different hint must change the key, like CacheKey.
	if k := PortableKey(pc, map[symbolic.Var]int64{0: 4}, DefaultWork, env.name, env.meta); k == base {
		t.Error("portable key ignored the hint")
	}
	// A different predicate must change the key.
	pc2 := []symbolic.Pred{portablePred(symbolic.EQ, -8, map[symbolic.Var]int64{0: 1})}
	if k := PortableKey(pc2, hint, DefaultWork, env.name, env.meta); k == base {
		t.Error("portable key ignored the predicate")
	}
}

// oraclePortableKey is the map-and-sort rendering PortableKey had before
// it rendered into reusable scratch: the reference AppendPortableKey
// must match byte for byte, because the keys of every existing solve
// log were written by it.
func oraclePortableKey(slice []symbolic.Pred, hint map[symbolic.Var]int64, budget int64, name func(symbolic.Var) string, meta func(symbolic.Var) VarMeta) string {
	var b strings.Builder
	b.Grow(64 * (len(slice) + 1))
	b.WriteString(portableKeyVersion)
	b.WriteString("!b")
	b.WriteString(strconv.FormatInt(budget, 10))
	b.WriteByte('!')

	seen := map[symbolic.Var]bool{}
	var vars []symbolic.Var
	type pair struct {
		n string
		v symbolic.Var
	}
	var pairs []pair
	for _, p := range slice {
		b.WriteByte('r')
		b.WriteString(strconv.Itoa(int(p.Rel)))
		if p.L == nil {
			b.WriteString("|<fallback>&")
			continue
		}
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(p.L.Const, 10))
		pairs = pairs[:0]
		for v, c := range p.L.Coeffs {
			if c != 0 {
				pairs = append(pairs, pair{name(v), v})
				if !seen[v] {
					seen[v] = true
					vars = append(vars, v)
				}
			}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].n < pairs[j].n })
		for _, pr := range pairs {
			b.WriteByte('|')
			oracleWriteName(&b, pr.n)
			m := meta(pr.v)
			b.WriteByte('{')
			b.WriteString(strconv.Itoa(int(m.Kind)))
			b.WriteByte(',')
			b.WriteString(strconv.FormatInt(m.Lo, 10))
			b.WriteByte(',')
			b.WriteString(strconv.FormatInt(m.Hi, 10))
			b.WriteString("}:")
			b.WriteString(strconv.FormatInt(p.L.Coeffs[pr.v], 10))
		}
		b.WriteByte('&')
	}

	b.WriteByte('#')
	names := make([]string, len(vars))
	byName := make(map[string]symbolic.Var, len(vars))
	for i, v := range vars {
		names[i] = name(v)
		byName[names[i]] = v
	}
	sort.Strings(names)
	for _, n := range names {
		oracleWriteName(&b, n)
		b.WriteByte('=')
		if h, ok := hint[byName[n]]; ok {
			b.WriteString(strconv.FormatInt(h, 10))
		} else {
			b.WriteByte('?')
		}
		b.WriteByte(';')
	}
	return b.String()
}

func oracleWriteName(b *strings.Builder, n string) {
	b.WriteString(strconv.Itoa(len(n)))
	b.WriteByte(':')
	b.WriteString(n)
}

// keyEnv is the variable universe of the key property test: names that
// sort in another order than the Vars (and hold the key's own
// delimiters), and scalar, pointer and extreme domains.
var keyEnv = struct {
	vars  []symbolic.Var
	names map[symbolic.Var]string
	metas map[symbolic.Var]VarMeta
}{
	vars: []symbolic.Var{0, 1, 2, 3, 127, 300},
	names: map[symbolic.Var]string{
		0: "d1.z", 1: "d0.b", 2: "d0.a->next", 3: "d0.|#{1}:&;",
		127: "d0.a", 300: "",
	},
	metas: map[symbolic.Var]VarMeta{
		0:   intMetaFor(math.MinInt32, math.MaxInt32),
		1:   {Kind: symbolic.PointerVar},
		2:   intMetaFor(math.MinInt64, math.MaxInt64),
		3:   intMetaFor(math.MinInt8, math.MaxInt8),
		127: intMetaFor(0, math.MaxUint32),
		300: intMetaFor(-(1 << 40), 1<<40),
	},
}

func keyEnvName(v symbolic.Var) string  { return keyEnv.names[v] }
func keyEnvMeta(v symbolic.Var) VarMeta { return keyEnv.metas[v] }

// drawKeySolve draws one (slice, hint, budget) for the key property
// test from a small alphabet: nil forms, zero coefficients, variables
// repeated within and across predicates, unhinted variables, extreme
// constants, coefficients, hints and budgets.
func drawKeySolve(r *rand.Rand) ([]symbolic.Pred, map[symbolic.Var]int64, int64) {
	nums := []int64{0, 1, -1, 7, 64, -65, math.MinInt64, math.MaxInt64}
	var slice []symbolic.Pred
	for k := r.Intn(5); k > 0; k-- {
		rel := symbolic.Rel(r.Intn(int(symbolic.GE) + 1))
		if r.Intn(8) == 0 {
			slice = append(slice, symbolic.Pred{Rel: rel})
			continue
		}
		l := &symbolic.Lin{Const: nums[r.Intn(len(nums))], Coeffs: map[symbolic.Var]int64{}}
		for terms := r.Intn(5); terms > 0; terms-- {
			l.Coeffs[keyEnv.vars[r.Intn(len(keyEnv.vars))]] = nums[r.Intn(len(nums))]
		}
		slice = append(slice, symbolic.Pred{L: l, Rel: rel})
	}
	hint := map[symbolic.Var]int64{}
	for _, v := range keyEnv.vars {
		if r.Intn(3) > 0 {
			hint[v] = nums[r.Intn(len(nums))]
		}
	}
	return slice, hint, []int64{DefaultWork, 0, 1, math.MaxInt64}[r.Intn(4)]
}

// TestAppendPortableKeyMatchesOracle: rendered into one reused buffer
// and scratch, every drawn solve's key is the oracle's bytes, and so is
// PortableKey's string.
func TestAppendPortableKeyMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s PortableScratch
	var buf []byte
	seen := map[string]int{}
	for iter := 0; iter < 20000; iter++ {
		slice, hint, budget := drawKeySolve(r)
		want := oraclePortableKey(slice, hint, budget, keyEnvName, keyEnvMeta)
		buf = AppendPortableKey(buf[:0], &s, slice, hint, budget, keyEnvName, keyEnvMeta)
		if string(buf) != want {
			t.Fatalf("draw %d: AppendPortableKey rendered\n  %q\nthe oracle\n  %q", iter, buf, want)
		}
		if got := PortableKey(slice, hint, budget, keyEnvName, keyEnvMeta); got != want {
			t.Fatalf("draw %d: PortableKey rendered\n  %q\nthe oracle\n  %q", iter, got, want)
		}
		uses := map[symbolic.Var]int{}
		for _, p := range slice {
			if p.L == nil {
				seen["nil form"]++
				continue
			}
			for v, c := range p.L.Coeffs {
				if c == 0 {
					seen["zero coefficient"]++
					continue
				}
				uses[v]++
				if _, ok := hint[v]; !ok {
					seen["unhinted variable"]++
				}
				if keyEnv.metas[v].Kind == symbolic.PointerVar {
					seen["pointer domain"]++
				}
				if keyEnv.metas[v].Lo == math.MinInt64 {
					seen["extreme domain"]++
				}
			}
		}
		for _, n := range uses {
			if n > 1 {
				seen["repeated variable"]++
			}
		}
	}
	for _, c := range []string{"nil form", "zero coefficient", "unhinted variable", "pointer domain", "extreme domain", "repeated variable"} {
		if seen[c] == 0 {
			t.Errorf("no draw had a %s", c)
		}
	}
}
