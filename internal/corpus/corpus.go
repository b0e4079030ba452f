// Package corpus is the disk layer of the incremental re-audit
// pipeline: a versioned on-disk directory holding, per audited
// function, its IR content hash, a distilled replayable suite, its bug
// fixtures, its branch coverage, and its completeness flags — plus a
// persistent solve-cache log (solvelog.go) and a spill area for the
// serve layer's result store (reports.go).
//
// The trust model is deliberately asymmetric.  A corpus can make an
// audit *faster* (an unchanged function replays its suite instead of
// re-searching; a previously solved constraint is answered from disk)
// but must never make it *wrong*: every file carries a format-version
// token and a content checksum, every load re-verifies both, and any
// truncated, corrupted, or mis-versioned artifact is discarded — the
// audit then falls back to the full search, which is always sound.
// Entry validation goes further than checksums: before an entry is
// trusted, its suite is actually replayed and must reproduce the stored
// coverage, and each bug fixture must reproduce its stored failure
// (Theorem 1(a), re-established on every warm start).
package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"dart/internal/concolic"
	"dart/internal/solver"
)

// entryVersion prefixes every checksummed corpus file; bumped whenever
// the payload encoding changes meaning, so files written by older
// binaries can never alias newer ones.
const entryVersion = "dartcorpus1"

// Corpus is an open corpus directory.  All methods are safe for
// concurrent use — audit workers load and store entries from the pool's
// goroutines, and every search worker shares the solve cache.
type Corpus struct {
	dir string

	// loadSolves reads the solve log into solves on first use
	// (solvelog.go).
	loadSolves sync.Once

	mu sync.Mutex
	// solves is the in-memory image of the persistent solve log; pending
	// holds records appended since the last Flush.
	solves  map[string]solver.PortableResult
	pending []solveRecord
	// notes collects load-time corruption diagnostics (logged, never
	// fatal: corruption degrades to a miss).
	notes []string
}

// Open opens (creating if needed) the corpus rooted at dir.  The
// persistent solve log is read on first use, not here.  Corrupt
// artifacts found by any later load are discarded and reported via
// Notes, never as an error.
func Open(dir string) (*Corpus, error) {
	for _, d := range []string{dir, filepath.Join(dir, "fn"), filepath.Join(dir, "reports")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
	}
	return &Corpus{dir: dir, solves: map[string]solver.PortableResult{}}, nil
}

// Dir returns the corpus root.
func (c *Corpus) Dir() string { return c.dir }

// Notes returns (and clears) accumulated corruption diagnostics.
func (c *Corpus) Notes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.notes
	c.notes = nil
	return n
}

func (c *Corpus) note(format string, args ...any) {
	c.mu.Lock()
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// SiteDir is one branch direction in portable form: the function owning
// the site, the site's function-local ordinal (its index in
// ir.FuncSites), and the executed outcome.  Global site numbers shift
// whenever any upstream function gains or loses a conditional; the
// (function, ordinal) pair does not.
type SiteDir struct {
	Fn    string `json:"fn"`
	Ord   int    `json:"ord"`
	Taken bool   `json:"taken"`
}

// Flags preserves the cold search's verdict-relevant termination state,
// restored verbatim onto the synthesized warm report.
type Flags struct {
	Complete        bool   `json:"complete"`
	AllLinear       bool   `json:"all_linear"`
	AllLocsDefinite bool   `json:"all_locs_definite"`
	SolverComplete  bool   `json:"solver_complete"`
	Stopped         string `json:"stopped,omitempty"`
}

// Entry is one function's stored audit outcome.
type Entry struct {
	Function string `json:"function"`
	// IRHash is the function's ir.FuncHashes digest at store time; a
	// changed hash invalidates the entry (the paper's fixed-program
	// assumption, enforced per function).
	IRHash string `json:"ir_hash"`
	// OptionsSig binds the entry to the search configuration that
	// produced it; any change to a result-determining option re-searches.
	OptionsSig string `json:"options_sig"`
	// Suite is the distilled replayable suite (internal/distill), in
	// pick order.
	Suite []map[string]int64 `json:"suite"`
	// Bugs are the cold search's bug fixtures, verbatim; each must
	// replay to its recorded failure before the entry is trusted.
	Bugs []concolic.Bug `json:"bugs,omitempty"`
	// Cover is the cold search's exact branch coverage in portable
	// (function, ordinal, direction) form.
	Cover []SiteDir `json:"cover"`
	Flags Flags     `json:"flags"`
	// Runs records the cold search's execution count, for reporting.
	Runs int `json:"runs"`
}

// entryPath maps a function name to its entry file.  MiniC identifiers
// are [A-Za-z0-9_]+, safe as file names; anything else (defensive) is
// hex-escaped so distinct names never collide.
func (c *Corpus) entryPath(fn string) string {
	safe := true
	for i := 0; i < len(fn); i++ {
		b := fn[i]
		if !(b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9') {
			safe = false
			break
		}
	}
	if !safe || fn == "" {
		fn = "x" + hex.EncodeToString([]byte(fn))
	}
	return filepath.Join(c.dir, "fn", fn+".json")
}

// LoadEntry returns the stored entry for fn, or nil with a machine-
// readable miss reason: "absent" (no file) or "invalid" (failed the
// version or checksum gate, or the payload is not json.Marshal's
// encoding of an entry for fn — the file is discarded).
func (c *Corpus) LoadEntry(fn string) (*Entry, string) {
	payload, reason := c.readChecksummed(c.entryPath(fn))
	if payload == nil {
		return nil, reason
	}
	e, ok := decodeEntry(payload)
	if !ok || e.Function != fn {
		c.note("corpus: entry %s: malformed payload, discarding", fn)
		return nil, "invalid"
	}
	return e, ""
}

// StoreEntry writes (or atomically replaces) fn's entry.
func (c *Corpus) StoreEntry(e *Entry) error {
	payload, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("corpus: encode entry %s: %w", e.Function, err)
	}
	return c.writeChecksummed(c.entryPath(e.Function), payload)
}

// readChecksummed loads a "dartcorpus1 <hex-sha256>\n<payload>" file,
// returning the payload only when both the version token and checksum
// verify; any failure returns (nil, reason) and notes the corruption.
func (c *Corpus) readChecksummed(path string) ([]byte, string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.note("corpus: %s: %v", path, err)
			return nil, "invalid"
		}
		return nil, "absent"
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		c.note("corpus: %s: truncated header, discarding", path)
		return nil, "invalid"
	}
	header := string(raw[:nl])
	payload := raw[nl+1:]
	fields := strings.Fields(header)
	if len(fields) != 2 || fields[0] != entryVersion {
		c.note("corpus: %s: unrecognized version %q, discarding", path, header)
		return nil, "invalid"
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[1] {
		c.note("corpus: %s: checksum mismatch, discarding", path)
		return nil, "invalid"
	}
	return payload, ""
}

// writeChecksummed writes header+payload to a temp file in the target's
// directory and renames it into place, so readers never observe a
// partial write and a crash leaves either the old file or the new one.
func (c *Corpus) writeChecksummed(path string, payload []byte) error {
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s\n", entryVersion, hex.EncodeToString(sum[:]))
	buf.Write(payload)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}
