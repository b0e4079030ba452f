// The persistent solve cache: an append-only, checksummed log of
// portable solver results layered under the engines' in-memory LRU.
// Each line is "s1 <crc32-hex> <json>\n".  The whole log is read on
// first use (the first GetPortable, PutPortable or SolveCount), so an
// audit answered entirely from corpus entries never reads it.  Bad
// lines — truncated tails from a crash, flipped bytes, records from an
// unknown format version — are skipped and noted, never trusted; the
// rest is served from memory, and new solves are appended on Flush, by
// an append encoder that writes json.Marshal's bytes without
// reflection (solveLine).  Append-only keeps the flush path
// crash-tolerant: an interrupted append corrupts at most the final
// line, which the next load discards.
package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

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

// GetPortable implements solver.PersistentCache.  The lookup indexes
// the image with the key's bytes and copies nothing.
func (c *Corpus) GetPortable(key []byte) (solver.PortableResult, bool) {
	c.loadSolves.Do(c.loadSolveLog)
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.solves[string(key)]
	return r, ok
}

// PutPortable implements solver.PersistentCache.  New results are kept
// in memory (the key copied, the model kept as given) and queued for the
// next FlushSolves; re-puts of a known key are dropped (equal by solver
// determinism).
func (c *Corpus) PutPortable(key []byte, verdict solver.Verdict, model map[string]int64) {
	c.loadSolves.Do(c.loadSolveLog)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.solves[string(key)]; exists {
		return
	}
	k := string(key)
	c.solves[k] = solver.PortableResult{Verdict: verdict, Model: model}
	c.pending = append(c.pending, solveRecord{K: k, V: int(verdict), M: model})
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
	// A cold audit appends about a megabyte; a large buffer keeps the
	// write calls few.
	w := bufio.NewWriterSize(f, 64<<10)
	var line solveLine
	for _, rec := range pending {
		// A failed write sticks to w, and Flush reports it.
		w.Write(line.render(rec))
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

// solveLine renders solve-log lines into memory it reuses from one line
// to the next.
type solveLine struct {
	buf   []byte
	names []string // the model's names, sorted
}

// render returns rec's log line, "s1 <crc32-hex> <json>\n", valid until
// the next render.  The JSON is byte-identical to json.Marshal(rec): the
// fields in declaration order, "m" left out when the model is empty, its
// names in byte order, and strings escaped as encoding/json escapes
// them.  TestSolveLineMatchesMarshal and FuzzSolveLineWriter hold it to
// that.
func (l *solveLine) render(rec solveRecord) []byte {
	const crcAt = len(solveLineVersion) + 1
	b := append(l.buf[:0], solveLineVersion+" 00000000 "...)
	payload := len(b)
	b = append(b, `{"k":`...)
	b = appendJSONString(b, rec.K)
	b = append(b, `,"v":`...)
	b = strconv.AppendInt(b, int64(rec.V), 10)
	if len(rec.M) > 0 {
		names := l.names[:0]
		for n := range rec.M {
			names = append(names, n)
		}
		slices.Sort(names)
		b = append(b, `,"m":{`...)
		for i, n := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, n)
			b = append(b, ':')
			b = strconv.AppendInt(b, rec.M[n], 10)
		}
		b = append(b, '}')
		l.names = names
	}
	b = append(b, '}')
	crc := crc32.ChecksumIEEE(b[payload:])
	for i := range 8 {
		b[crcAt+i] = hexDigits[crc>>(28-4*i)&0xf]
	}
	b = append(b, '\n')
	l.buf = b
	return b
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json writes into a string
// unescaped: all but the control bytes, '"', '\\', '<', '>' and '&'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = !strings.ContainsRune(`"\<>&`, b)
	}
	return safe
}()

// appendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it by default: '"' and '\\' by a backslash, \b \f \n \r \t
// by name, the other control bytes and '<', '>' and '&' as \u00XX,
// each byte of invalid UTF-8 as \ufffd, and U+2028 and U+2029 as
// \u2028 and \u2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
