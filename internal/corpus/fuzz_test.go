package corpus

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
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
