package symbolic

import (
	"math"
	"testing"
)

func TestEvalCheckedAgreesInRange(t *testing.T) {
	l := &Lin{Const: 3, Coeffs: map[Var]int64{1: 2, 2: -4}}
	assign := map[Var]int64{1: 4, 2: 10}
	got, ok := l.EvalChecked(assign)
	if !ok || got != l.Eval(assign) {
		t.Errorf("EvalChecked = %d/%v, want %d/true", got, ok, l.Eval(assign))
	}
}

func TestEvalCheckedRejectsOverflow(t *testing.T) {
	cases := []struct {
		name   string
		l      *Lin
		assign map[Var]int64
	}{
		{"mul", &Lin{Coeffs: map[Var]int64{1: 2}}, map[Var]int64{1: math.MaxInt64}},
		{"mul-min-neg1", &Lin{Coeffs: map[Var]int64{1: -1}}, map[Var]int64{1: math.MinInt64}},
		{"add", &Lin{Const: math.MaxInt64, Coeffs: map[Var]int64{1: 1}}, map[Var]int64{1: 1}},
		{"sum-of-terms", &Lin{Coeffs: map[Var]int64{1: 1, 2: 1}},
			map[Var]int64{1: math.MaxInt64, 2: math.MaxInt64}},
	}
	for _, c := range cases {
		if _, ok := c.l.EvalChecked(c.assign); ok {
			t.Errorf("%s: wrapping evaluation reported ok", c.name)
		}
	}
}

// TestEvalCheckedOrderIndependent: whether a partial sum overflows
// depends on the order of the terms, so EvalChecked sums them in
// ascending variable order.  MinInt64 - 181 + 1188 overflows at its
// first step in that order, and would stay in range in the other.
func TestEvalCheckedOrderIndependent(t *testing.T) {
	l := &Lin{Const: math.MinInt64, Coeffs: map[Var]int64{12: -1, 18: -4}}
	assign := map[Var]int64{12: 181, 18: -297}
	for i := 0; i < 200; i++ {
		if got, ok := l.EvalChecked(assign); ok {
			t.Fatalf("call %d: %d/true, want an overflow at x12's term", i, got)
		}
	}
}
