package main

import (
	"testing"

	"dart/internal/solver"
)

// TestPK1RoundTrip parses every committed captured key and renders it
// again with solver.PortableKey: the parser must rebuild exactly the
// input the engine rendered.
func TestPK1RoundTrip(t *testing.T) {
	cases, err := loadSolves("")
	if err != nil {
		t.Fatal(err)
	}
	sets := map[string]int{}
	for _, c := range cases {
		sets[c.set]++
		if got := solver.PortableKey(c.slice, c.hint, c.budget, c.name, c.meta); got != c.key {
			t.Fatalf("round trip changed the key:\n in  %s\n out %s", c.key, got)
		}
	}
	if sets["minisip"] == 0 || sets["dolev-yao"] == 0 || len(sets) != 2 {
		t.Fatalf("captured sets = %v, want minisip and dolev-yao", sets)
	}
}

func TestPK1RejectsMalformedKeys(t *testing.T) {
	for _, k := range []string{
		"",
		"pk2!b0!#",
		"pk1!b0!r9|0&#",                  // no such relation
		"pk1!b0!r0|1|3:d0.x{0,-5,5}:0&#", // zero coefficient
		"pk1!b0!r0|1|9:d0.x{0,-5,5}:1&#", // name runs past its length
		"pk1!b0!r0|1|4:d0.x{0,-5,5}:1&#4:d0.y=1;",             // hint for an absent variable
		"pk1!b0!r0|1|4:d0.x{0,-5,5}:1&r0|0|4:d0.x{1,0,0}:1&#", // two domains
	} {
		if _, err := parsePK1(k); err == nil {
			t.Errorf("parsePK1(%q) accepted a malformed key", k)
		}
	}
	if _, err := parsePK1("pk1!b0!r2|<fallback>&r0|-3|4:d0.x{0,-5,5}:2&#4:d0.x=?;"); err != nil {
		t.Fatal(err)
	}
}

// TestCapturedSolvesReplay solves every captured input again: each must
// reach its logged verdict, with a model that solves the slice.
func TestCapturedSolvesReplay(t *testing.T) {
	cases, err := loadSolves("")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if sol, verdict := solver.SolveWork(c.slice, c.meta, c.hint, c.budget); !sameOutcome(c, sol, verdict) {
			t.Fatalf("replay of %s: verdict %v, want %v (model %v)", c.key, verdict, c.verdict, sol)
		}
	}
}
