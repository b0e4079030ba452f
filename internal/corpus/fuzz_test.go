package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"dart/internal/solver"
)

// FuzzSolveLog feeds arbitrary lines to the solve-log parser.  The log
// is untrusted input (a corpus directory may be corrupt or hostile), so
// parseSolveLine must return on every line without panicking, and may
// accept one only when its version, CRC, JSON payload and verdict range
// all hold.  The seeds are a valid line and the single-byte flips of
// TestSolveLogByteFlipFaultInjection.
func FuzzSolveLog(f *testing.F) {
	var valid []string
	for _, rec := range []solveRecord{
		{K: "key-a", V: int(solver.Sat), M: map[string]int64{"d0.x": 10}},
		{K: "key-b", V: int(solver.Unsat)},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, fmt.Sprintf("%s %08x %s", solveLineVersion, crc32.ChecksumIEEE(payload), payload))
	}
	log := strings.Join(valid, "\n") + "\n"
	seeds := map[string]bool{valid[0]: true}
	f.Add(valid[0])
	for i := range log {
		mut := []byte(log)
		mut[i] ^= 0x40
		for _, line := range strings.Split(string(mut), "\n") {
			if !seeds[line] {
				seeds[line] = true
				f.Add(line)
			}
		}
	}
	f.Fuzz(func(t *testing.T, line string) {
		rec, ok := parseSolveLine(line)
		if !ok {
			return
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 || parts[0] != solveLineVersion {
			t.Fatalf("accepted a line without the %s version: %q", solveLineVersion, line)
		}
		if want := fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(parts[2]))); parts[1] != want {
			t.Fatalf("accepted a line whose CRC %q is not %q: %q", parts[1], want, line)
		}
		var again solveRecord
		if err := json.Unmarshal([]byte(parts[2]), &again); err != nil {
			t.Fatalf("accepted a line whose payload is not a record (%v): %q", err, line)
		}
		if rec.V < 0 || rec.V > int(solver.BudgetExhausted) {
			t.Fatalf("accepted verdict %d out of range: %q", rec.V, line)
		}
	})
}

// FuzzSolveLineWriter runs TestSolveLineMatchesMarshal's comparison on
// fuzzed (key, name, value, verdict) tuples: the rendered line must be
// json.Marshal's, byte for byte, and parseSolveLine must read it back
// to its record.  Each record holds a two-name model, or none when value
// is 0.  The seeds are TestSolveLineMatchesMarshal's hostile strings.
func FuzzSolveLineWriter(f *testing.F) {
	for i, s := range hostileStrings() {
		f.Add(s, hostileStrings()[(i+1)%len(hostileStrings())], int64(i)-1, i%4)
	}
	f.Add("key", "d0.x", int64(math.MinInt64), int(solver.Sat))
	f.Add("", "", int64(math.MaxInt64), -1)
	var line solveLine
	f.Fuzz(func(t *testing.T, key, name string, value int64, verdict int) {
		rec := solveRecord{K: key, V: verdict}
		if value != 0 {
			rec.M = map[string]int64{name: value, "d0." + name: ^value}
		}
		checkSolveLine(t, &line, rec)
	})
}

// FuzzCorpusEntry feeds arbitrary payloads to LoadEntry, each written
// under a valid version header and SHA-256 so that it reaches the entry
// decoder.  An entry file is untrusted input, so LoadEntry must return
// on every payload without panicking, and may accept one only when
// json.Unmarshal decodes it to a deeply equal entry for the requested
// function.  The seeds are TestEntryRoundTrip's entries renamed to the
// requested function, escapes json.Marshal never writes, and every
// single-byte flip of testEntry's payload.
func FuzzCorpusEntry(f *testing.F) {
	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	for _, tc := range roundTripEntries() {
		e := *tc.e
		e.Function = "h"
		payload, err := json.Marshal(&e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{"function":"\u0068","ir_hash":"\/\u00E9\ud83d\ude00","options_sig":"","suite":[{"-0":-0}],` +
		`"cover":null,"flags":{"complete":false,"all_linear":false,"all_locs_definite":false,"solver_complete":false},"runs":0}`))
	first, err := json.Marshal(testEntry())
	if err != nil {
		f.Fatal(err)
	}
	for i := range first {
		mut := bytes.Clone(first)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := c.writeChecksummed(c.entryPath("h"), payload); err != nil {
			t.Fatal(err)
		}
		got, reason := c.LoadEntry("h")
		c.Notes() // drain, or the notes grow with every execution
		if got == nil {
			if reason != "invalid" {
				t.Fatalf("rejected payload read as %q, want invalid: %q", reason, payload)
			}
			return
		}
		var want Entry
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("accepted a payload json.Unmarshal rejects (%v): %q", err, payload)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("accepted %q as\n%#v\njson.Unmarshal decodes\n%#v", payload, got, &want)
		}
		if got.Function != "h" {
			t.Fatalf("served an entry for %q under h: %q", got.Function, payload)
		}
	})
}
