package main

import (
	"math"
	"reflect"
	"testing"
)

func TestFreshSequenceDeterministic(t *testing.T) {
	a, b := freshSequence(7, 2000), freshSequence(7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two job sequences")
	}
	if reflect.DeepEqual(a, freshSequence(8, 2000)) {
		t.Fatal("seeds 7 and 8 gave the same job sequence")
	}
}

// TestFreshSequenceIsFresh: no submission of a sequence repeats, none
// is set-up's warm-up job, and the programs are picked uniformly.
func TestFreshSequenceIsFresh(t *testing.T) {
	const seed, n = 3, 14000
	warmUp := jobSpec{prog: 0, seed: seed * 10_000_000}
	seen := map[string]bool{warmUp.key(): true}
	count := make([]int, len(smallPrograms))
	for i, s := range freshSequence(seed, n) {
		if seen[s.key()] {
			t.Fatalf("job %d: submission %s was already submitted", i, s.key())
		}
		seen[s.key()] = true
		count[s.prog]++
	}
	want := 1 / float64(len(smallPrograms))
	for prog, c := range count {
		if got := float64(c) / n; math.Abs(got-want) > 0.01 {
			t.Errorf("program %d: share %.3f, want %.3f ± 0.01", prog, got, want)
		}
	}
}
