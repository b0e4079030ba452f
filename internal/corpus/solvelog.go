// The persistent solve cache: an append-only, checksummed log of
// portable solver results layered under the engines' in-memory LRU.
// Each line is "s1 <crc32-hex> <json>\n".  The whole log is read on
// first use (the first GetPortable, PutPortable or SolveCount), so an
// audit answered entirely from corpus entries never reads it.  Bad
// lines — truncated tails from a crash, flipped bytes, records from an
// unknown format version — are skipped and noted, never trusted; the
// rest is served from memory, and new solves are appended on Flush.
// Append-only keeps the flush path crash-tolerant: an interrupted
// append corrupts at most the final line, which the next load discards.
package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"dart/internal/solver"
)

// solveLineVersion prefixes every solve-log line.
const solveLineVersion = "s1"

// maxSolveLine bounds one log line; portable keys grow with path-
// constraint length, so allow generous room.
const maxSolveLine = 16 << 20

type solveRecord struct {
	K string           `json:"k"`
	V int              `json:"v"`
	M map[string]int64 `json:"m,omitempty"`
}

func (c *Corpus) solveLogPath() string { return filepath.Join(c.dir, "solve.log") }

// loadSolveLog populates the in-memory image from disk.  It runs once,
// under c.loadSolves; every reader of c.solves waits for it there.
func (c *Corpus) loadSolveLog() {
	f, err := os.Open(c.solveLogPath())
	if err != nil {
		if !os.IsNotExist(err) {
			c.note("corpus: solve log: %v", err)
		}
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxSolveLine)
	dropped := 0
	for sc.Scan() {
		rec, ok := parseSolveLine(sc.Text())
		if !ok {
			dropped++
			continue
		}
		// First-wins on duplicate keys: the solver is deterministic, so
		// later duplicates are identical anyway.
		if _, exists := c.solves[rec.K]; !exists {
			c.solves[rec.K] = solver.PortableResult{Verdict: solver.Verdict(rec.V), Model: rec.M}
		}
	}
	if err := sc.Err(); err != nil {
		dropped++
	}
	if dropped > 0 {
		c.note("corpus: solve log: discarded %d corrupt line(s)", dropped)
	}
}

// parseSolveLine validates one "s1 <crc32-hex> <json>" line.
func parseSolveLine(line string) (solveRecord, bool) {
	var rec solveRecord
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || parts[0] != solveLineVersion {
		return rec, false
	}
	if fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(parts[2]))) != parts[1] {
		return rec, false
	}
	if err := json.Unmarshal([]byte(parts[2]), &rec); err != nil {
		return rec, false
	}
	if rec.K == "" || rec.V < 0 || rec.V > int(solver.BudgetExhausted) {
		return rec, false
	}
	return rec, true
}

// GetPortable implements solver.PersistentCache.
func (c *Corpus) GetPortable(key string) (solver.PortableResult, bool) {
	c.loadSolves.Do(c.loadSolveLog)
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.solves[key]
	return r, ok
}

// PutPortable implements solver.PersistentCache.  New results are kept
// in memory and queued for the next FlushSolves; re-puts of a known key
// are dropped (equal by solver determinism).
func (c *Corpus) PutPortable(key string, verdict solver.Verdict, model map[string]int64) {
	c.loadSolves.Do(c.loadSolveLog)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.solves[key]; exists {
		return
	}
	c.solves[key] = solver.PortableResult{Verdict: verdict, Model: model}
	c.pending = append(c.pending, solveRecord{K: key, V: int(verdict), M: model})
}

// SolveCount returns how many distinct solves the cache holds.
func (c *Corpus) SolveCount() int {
	c.loadSolves.Do(c.loadSolveLog)
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.solves)
}

// FlushSolves appends every queued solve to the log.  Called once when
// an audit (or search) completes; a failure leaves the queue intact for
// a retry and the in-memory image stays authoritative either way.
func (c *Corpus) FlushSolves() error {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	f, err := os.OpenFile(c.solveLogPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		c.requeue(pending)
		return fmt.Errorf("corpus: solve log: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, rec := range pending {
		payload, merr := json.Marshal(rec)
		if merr != nil {
			continue
		}
		fmt.Fprintf(w, "%s %08x %s\n", solveLineVersion, crc32.ChecksumIEEE(payload), payload)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		c.requeue(pending)
		return fmt.Errorf("corpus: solve log: %w", err)
	}
	if err := f.Close(); err != nil {
		c.requeue(pending)
		return fmt.Errorf("corpus: solve log: %w", err)
	}
	return nil
}

func (c *Corpus) requeue(pending []solveRecord) {
	c.mu.Lock()
	c.pending = append(pending, c.pending...)
	c.mu.Unlock()
}
