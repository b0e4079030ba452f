package corpus

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"dart/internal/solver"
	"dart/internal/symbolic"
)

// marshalLine is the log line json.Marshal renders for rec: the oracle
// the append encoder must match byte for byte.
func marshalLine(t testing.TB, rec solveRecord) string {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %08x %s\n", solveLineVersion, crc32.ChecksumIEEE(payload), payload)
}

// hostileStrings are keys and model names that reach every escape of
// the encoder: the HTML-sensitive and quoting bytes, every control byte
// and DEL, invalid UTF-8, U+2028 and U+2029, and U+FFFD itself.
func hostileStrings() []string {
	s := []string{
		"pk1!b1000000!r0|-7|4:d0.x{0,-2147483648,2147483647}:1&#4:d0.x=3;",
		"d0.x", `&<>"\`, `a&b<c>d"e\f`, "\x7f", "\ufffd", "\u2028", "\u2029",
		"x\u2028y\u2029z", "\xff", "\xc3", "\xe2\x80", "é\xffé", "\xed\xa0\x80",
		"日本\U0001F600", "\x00", "\\u0026",
	}
	var all strings.Builder
	for b := 0; b < 0x20; b++ {
		s = append(s, "c"+string(rune(b))+"c")
		all.WriteByte(byte(b))
	}
	return append(s, all.String())
}

// TestSolveLineMatchesMarshal: every rendered line is the line
// fmt.Sprintf and json.Marshal make of the same record, and reads back,
// over hostile keys and names, nil, empty and multi-name models,
// extreme values and every verdict, rendered through one reused line.
func TestSolveLineMatchesMarshal(t *testing.T) {
	hostile := hostileStrings()
	models := []map[string]int64{nil, {}, {"d0.x": 10}}
	multi := map[string]int64{}
	for i, n := range hostile {
		multi[n] = []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}[i%5]
	}
	models = append(models, multi, map[string]int64{"d0.y": math.MinInt64, "d0.x": math.MaxInt64, "d0.x[1]": -3})
	var line solveLine
	lines := 0
	for _, k := range hostile {
		for _, m := range models {
			for v := int(solver.Unsat); v <= int(solver.BudgetExhausted); v++ {
				checkSolveLine(t, &line, solveRecord{K: k, V: v, M: m})
				lines++
			}
		}
	}
	if lines < 100 {
		t.Fatalf("only %d lines compared", lines)
	}
}

// TestDiskLookupAllocs: a disk key rendered into warmed scratch, and a
// solve-log hit looked up by its bytes, allocate nothing.
func TestDiskLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"d0.y", "d0.x"}
	name := func(v symbolic.Var) string { return names[v] }
	meta := func(symbolic.Var) solver.VarMeta {
		return solver.VarMeta{Kind: symbolic.ScalarVar, Lo: math.MinInt32, Hi: math.MaxInt32}
	}
	slice := []symbolic.Pred{
		{L: &symbolic.Lin{Const: -7, Coeffs: map[symbolic.Var]int64{0: 1, 1: 2}}, Rel: symbolic.EQ},
		{L: &symbolic.Lin{Const: 1, Coeffs: map[symbolic.Var]int64{1: -1}}, Rel: symbolic.GE},
		{Rel: symbolic.NE},
	}
	hint := map[symbolic.Var]int64{1: 3}
	var s solver.PortableScratch
	key := solver.AppendPortableKey(nil, &s, slice, hint, solver.DefaultWork, name, meta)
	c.PutPortable(key, solver.Sat, map[string]int64{"d0.x": 5, "d0.y": 1})
	want := string(key)
	if allocs := testing.AllocsPerRun(100, func() {
		key = solver.AppendPortableKey(key[:0], &s, slice, hint, solver.DefaultWork, name, meta)
	}); allocs != 0 {
		t.Errorf("%v allocations per key rendered into warmed scratch, want 0", allocs)
	}
	if string(key) != want {
		t.Fatalf("re-rendered key %q, first render %q", key, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if r, ok := c.GetPortable(key); !ok || r.Model["d0.x"] != 5 {
			t.Fatalf("held key missed: %+v, %v", r, ok)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations per solve-log hit, want 0", allocs)
	}
}

// checkSolveLine compares the rendered line of rec with json.Marshal's
// and requires parseSolveLine to read it back as encoding/json decodes
// the oracle's payload (invalid UTF-8 becomes U+FFFD); a record with an
// empty key or an out-of-range verdict must be rejected instead.
func checkSolveLine(t *testing.T, line *solveLine, rec solveRecord) {
	t.Helper()
	got, want := string(line.render(rec)), marshalLine(t, rec)
	if got != want {
		t.Fatalf("record %+v rendered\n  %q\njson.Marshal renders\n  %q", rec, got, want)
	}
	back, ok := parseSolveLine(strings.TrimSuffix(got, "\n"))
	if rec.K == "" || rec.V < 0 || rec.V > int(solver.BudgetExhausted) {
		if ok {
			t.Fatalf("parseSolveLine accepted %q", got)
		}
		return
	}
	if !ok {
		t.Fatalf("parseSolveLine rejected %q", got)
	}
	var decoded solveRecord
	if err := json.Unmarshal([]byte(want[len(solveLineVersion)+10:len(want)-1]), &decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, decoded) {
		t.Fatalf("line %q read back as %+v, want %+v", got, back, decoded)
	}
}
