package corpus

// Robustness tests for the disk layer.  The contract under test: a
// corpus can be made arbitrarily corrupt — flipped bytes, truncation,
// wrong version tokens, junk lines — and every load degrades to a miss
// (with a diagnostic note), never to a wrong or missing verdict.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dart/internal/concolic"
	"dart/internal/machine"
	"dart/internal/solver"
	"dart/internal/token"
)

func testEntry() *Entry {
	return &Entry{
		Function:   "h",
		IRHash:     "f:abc123",
		OptionsSig: "audit-sig-v1 seed=2",
		Suite:      []map[string]int64{{"d0.x": 10, "d0.y": 3}, {"d0.x": 0, "d0.y": 0}},
		Bugs: []concolic.Bug{{
			Kind:   machine.Aborted,
			Msg:    "abort() reached",
			Run:    2,
			Inputs: map[string]int64{"d0.x": 10, "d0.y": 3},
		}},
		Cover: []SiteDir{
			{Fn: "h", Ord: 0, Taken: false},
			{Fn: "h", Ord: 0, Taken: true},
			{Fn: "h", Ord: 1, Taken: true},
		},
		Flags: Flags{Complete: true, AllLinear: true, AllLocsDefinite: true, SolverComplete: true},
		Runs:  7,
	}
}

// hostileEntry sets every field of an entry and of its nested types,
// with strings json.Marshal must escape or rewrite (quotes, backslashes,
// control bytes, <>&, U+2028/U+2029, invalid UTF-8, non-ASCII text)
// and integers at both ends of their range.  The function name is
// valid UTF-8, so it survives the round trip and the entry loads.
func hostileEntry() *Entry {
	s := "q\"b\\s/\x00\x01\x1f\x7f\b\f\n\r\t<>&\u2028\u2029 é 日本 \U0001F600 \xff\xfe\xed\xa0\x80"
	return &Entry{
		Function:   "h\"\\<>&\u2028é\x01",
		IRHash:     s,
		OptionsSig: s,
		Suite:      []map[string]int64{{s: math.MinInt64, "d0.x": math.MaxInt64, "": 0, "d0.y": -1}},
		Bugs: []concolic.Bug{{
			Kind:   machine.Outcome(math.MinInt),
			Msg:    s,
			Pos:    token.Pos{Line: math.MaxInt, Col: math.MinInt},
			Run:    math.MaxInt,
			Inputs: map[string]int64{s: math.MinInt64, "d0.p": math.MaxInt64},
		}},
		Cover: []SiteDir{{Fn: s, Ord: math.MinInt, Taken: true}, {Fn: "", Ord: math.MaxInt}},
		Flags: Flags{Complete: true, AllLinear: true, AllLocsDefinite: true, SolverComplete: true, Stopped: s},
		Runs:  math.MinInt,
	}
}

// roundTripEntries are the entries the writer and the reader must agree
// on: every field set, nil and empty vectors, a nil map inside Suite,
// no bugs, and Stopped empty and set.
func roundTripEntries() []struct {
	name string
	e    *Entry
} {
	nilVecs := testEntry()
	nilVecs.Suite, nilVecs.Cover, nilVecs.Bugs[0].Inputs = nil, nil, nil
	emptyVecs := testEntry()
	emptyVecs.Suite, emptyVecs.Cover, emptyVecs.Bugs[0].Inputs = []map[string]int64{}, []SiteDir{}, map[string]int64{}
	nilMap := testEntry()
	nilMap.Suite = []map[string]int64{nil, {"d0.x": 1}, nil}
	noBugs := testEntry()
	noBugs.Bugs = nil
	stopped := testEntry()
	stopped.Flags.Stopped = "max-runs"
	return []struct {
		name string
		e    *Entry
	}{
		{"plain", testEntry()},
		{"hostile", hostileEntry()},
		{"nil-vectors", nilVecs},
		{"empty-vectors", emptyVecs},
		{"nil-map-in-suite", nilMap},
		{"no-bugs", noBugs},
		{"stopped", stopped},
		{"bare", &Entry{Function: "h"}},
	}
}

// TestEntryRoundTrip: every entry StoreEntry writes, LoadEntry reads
// back equal to json.Unmarshal of the stored payload.  Because the
// hostile entry must set every field, a field added to Entry, Flags,
// SiteDir, concolic.Bug or token.Pos that the decoder does not read
// fails here.
func TestEntryRoundTrip(t *testing.T) {
	requireSet(t, reflect.ValueOf(hostileEntry()).Elem(), "hostileEntry()")
	for _, tc := range roundTripEntries() {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.StoreEntry(tc.e); err != nil {
				t.Fatal(err)
			}
			got, reason := c.LoadEntry(tc.e.Function)
			if got == nil {
				t.Fatalf("LoadEntry miss: %s (notes %v)", reason, c.Notes())
			}
			raw, err := os.ReadFile(c.entryPath(tc.e.Function))
			if err != nil {
				t.Fatal(err)
			}
			var want Entry
			if err := json.Unmarshal(raw[bytes.IndexByte(raw, '\n')+1:], &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, &want) {
				t.Errorf("LoadEntry disagrees with json.Unmarshal:\ngot  %#v\nwant %#v", got, &want)
			}
			// Only the hostile entry holds invalid UTF-8, which
			// json.Marshal replaces; every other entry loads as stored.
			if tc.name != "hostile" && !reflect.DeepEqual(got, tc.e) {
				t.Errorf("round trip mangled the entry:\ngot  %#v\nwant %#v", got, tc.e)
			}
		})
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, reason := c.LoadEntry("nothere"); reason != "absent" {
		t.Errorf("missing entry reason %q, want absent", reason)
	}
}

// requireSet fails for every zero field reachable from v through
// structs and the first element of each slice.
func requireSet(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireSet(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s is empty", path)
			return
		}
		requireSet(t, v.Index(0), path+"[0]")
	default:
		if v.IsZero() {
			t.Errorf("%s is zero", path)
		}
	}
}

// TestEntryByteFlipFaultInjection flips every byte of a stored entry
// file in turn; each flip must either keep the file verifiable (never
// happens for sha256, but the property is what matters) or read as a
// clean miss.  A wrong verdict — a load that "succeeds" with altered
// content — fails the test.
func TestEntryByteFlipFaultInjection(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreEntry(testEntry()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fn", "h.json")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	baseline, _ := c.LoadEntry("h")
	if baseline == nil {
		t.Fatal("pristine entry does not load")
	}
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, reason := c.LoadEntry("h")
		if got != nil {
			// The only acceptable "success" is byte-identical content —
			// i.e. the flip landed somewhere JSON-insignificant AND the
			// checksum still passed, which sha256 makes impossible.
			t.Fatalf("byte %d flipped: load succeeded on corrupt file", i)
		}
		if reason != "invalid" {
			t.Fatalf("byte %d flipped: reason %q, want invalid", i, reason)
		}
	}
	c.Notes() // drain; corruption must be noted, not fatal
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.LoadEntry("h"); got == nil {
		t.Error("restored entry no longer loads")
	}
}

func TestEntryTruncationAndVersionGate(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreEntry(testEntry()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fn", "h.json")
	orig, _ := os.ReadFile(path)

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"header-only-no-newline", []byte("dartcorpus1 abcdef")},
		{"truncated-payload", orig[:len(orig)-5]},
		{"future-version", append([]byte("dartcorpus999 "), orig[12:]...)},
		{"junk", []byte("not a corpus file at all\nreally not")},
	} {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, reason := c.LoadEntry("h"); got != nil || reason != "invalid" {
			t.Errorf("%s: got entry=%v reason=%q, want nil/invalid", tc.name, got, reason)
		}
	}
	if len(c.Notes()) == 0 {
		t.Error("corruption left no diagnostic notes")
	}

	// A stored entry whose payload names a different function must not
	// serve under this name (a rename/copy attack on the file level).
	other := testEntry()
	other.Function = "g"
	if err := c.StoreEntry(other); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(filepath.Join(dir, "fn", "g.json"))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, reason := c.LoadEntry("h"); got != nil || reason != "invalid" {
		t.Errorf("cross-named entry served: %v %q", got, reason)
	}
}

func TestSolveLogPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.PutPortable("key-a", solver.Sat, map[string]int64{"d0.x": 10})
	c.PutPortable("key-b", solver.Unsat, nil)
	if err := c.FlushSolves(); err != nil {
		t.Fatal(err)
	}
	// Flushing twice must not duplicate lines.
	if err := c.FlushSolves(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := c2.SolveCount(); n != 2 {
		t.Fatalf("reloaded SolveCount = %d, want 2", n)
	}
	r, ok := c2.GetPortable("key-a")
	if !ok || r.Verdict != solver.Sat || r.Model["d0.x"] != 10 {
		t.Errorf("key-a = %+v ok=%v", r, ok)
	}
	r, ok = c2.GetPortable("key-b")
	if !ok || r.Verdict != solver.Unsat || r.Model != nil {
		t.Errorf("key-b = %+v ok=%v", r, ok)
	}
}

// TestSolveLogByteFlipFaultInjection flips each byte of a two-line log
// in turn: every variant must load without error, never invent a
// record that was not written, and never mutate a surviving record.
func TestSolveLogByteFlipFaultInjection(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.PutPortable("key-a", solver.Sat, map[string]int64{"d0.x": 10})
	c.PutPortable("key-b", solver.Unsat, nil)
	if err := c.FlushSolves(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "solve.log")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		cc, err := Open(dir)
		if err != nil {
			t.Fatalf("byte %d flipped: Open failed: %v", i, err)
		}
		if n := cc.SolveCount(); n > 2 {
			t.Fatalf("byte %d flipped: %d records from a 2-record log", i, n)
		}
		// Any key that still resolves must resolve to the original value.
		if r, ok := cc.GetPortable("key-a"); ok &&
			(r.Verdict != solver.Sat || r.Model["d0.x"] != 10) {
			t.Fatalf("byte %d flipped: key-a mutated to %+v", i, r)
		}
		if r, ok := cc.GetPortable("key-b"); ok && (r.Verdict != solver.Unsat || len(r.Model) != 0) {
			t.Fatalf("byte %d flipped: key-b mutated to %+v", i, r)
		}
	}
}

// TestSolveLogTruncatedTail emulates a crash mid-append: the final line
// is cut short, the earlier lines must survive.
func TestSolveLogTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.PutPortable("key-a", solver.Sat, map[string]int64{"d0.x": 10})
	c.PutPortable("key-b", solver.Unsat, nil)
	if err := c.FlushSolves(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "solve.log")
	orig, _ := os.ReadFile(path)
	if err := os.WriteFile(path, orig[:len(orig)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.GetPortable("key-a"); !ok {
		t.Error("first record lost to a truncated tail")
	}
	if _, ok := c2.GetPortable("key-b"); ok {
		t.Error("truncated final record was trusted")
	}
	notes := strings.Join(c2.Notes(), "\n")
	if !strings.Contains(notes, "discarded") {
		t.Errorf("no discard note for the truncated tail: %q", notes)
	}
}

// TestSolveLogReadOnFirstUse: Open does not read the solve log, and
// neither do entry loads and stores; the first GetPortable does, and
// only then is the corrupt line discarded and noted.
func TestSolveLogReadOnFirstUse(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.PutPortable("key-a", solver.Sat, map[string]int64{"d0.x": 10})
	if err := c.FlushSolves(); err != nil {
		t.Fatal(err)
	}
	log, err := os.OpenFile(filepath.Join(dir, "solve.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteString("s1 00000000 garbage\n"); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.StoreEntry(testEntry()); err != nil {
		t.Fatal(err)
	}
	if e, reason := c2.LoadEntry("h"); e == nil {
		t.Fatalf("LoadEntry miss: %s", reason)
	}
	if notes := c2.Notes(); len(notes) != 0 {
		t.Fatalf("solve log read before first use: %v", notes)
	}
	if r, ok := c2.GetPortable("key-a"); !ok || r.Verdict != solver.Sat || r.Model["d0.x"] != 10 {
		t.Errorf("key-a = %+v ok=%v", r, ok)
	}
	notes := strings.Join(c2.Notes(), "\n")
	if !strings.Contains(notes, "discarded 1 corrupt line") {
		t.Errorf("no discard note after first use: %q", notes)
	}
	if n := c2.SolveCount(); n != 1 {
		t.Errorf("SolveCount = %d, want 1 (the garbage line is not a record)", n)
	}

	// First use from eight goroutines at once: every reader sees the
	// loaded record, and the log is read exactly once.
	c3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch g % 3 {
			case 0:
				if _, ok := c3.GetPortable("key-a"); !ok {
					t.Error("concurrent first use: key-a missing")
				}
			case 1:
				c3.PutPortable(fmt.Sprintf("key-%d", g), solver.Unsat, nil)
			default:
				if n := c3.SolveCount(); n < 1 {
					t.Errorf("concurrent first use: SolveCount = %d", n)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if notes := c3.Notes(); len(notes) != 1 {
		t.Errorf("log read %d times under concurrent first use, want once: %v", len(notes), notes)
	}
}

func TestReportSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"functions":2,"buggy":1}`)
	if err := c.StoreReport("some-cache-key", body); err != nil {
		t.Fatal(err)
	}
	got, ok := c.LoadReport("some-cache-key")
	if !ok || string(got) != string(body) {
		t.Fatalf("LoadReport = %q ok=%v", got, ok)
	}
	if _, ok := c.LoadReport("other-key"); ok {
		t.Error("unknown key served a report")
	}
	// Corrupt the spill file: the load must miss, not serve bad bytes.
	matches, _ := filepath.Glob(filepath.Join(dir, "reports", "*.json"))
	if len(matches) != 1 {
		t.Fatalf("spill files: %v", matches)
	}
	raw, _ := os.ReadFile(matches[0])
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadReport("some-cache-key"); ok {
		t.Error("corrupt spill file served")
	}
}

func TestEntryPathEscaping(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Hostile names must neither collide nor escape the fn/ directory.
	weird := &Entry{Function: "../evil"}
	if err := c.StoreEntry(weird); err != nil {
		t.Fatal(err)
	}
	got, _ := c.LoadEntry("../evil")
	if got == nil || got.Function != "../evil" {
		t.Errorf("escaped name round trip: %+v", got)
	}
	p := c.entryPath("../evil")
	if rel, err := filepath.Rel(filepath.Join(c.Dir(), "fn"), p); err != nil || strings.HasPrefix(rel, "..") {
		t.Errorf("entry path %q escapes fn/", p)
	}
	if c.entryPath("a") == c.entryPath("x61") {
		// "a" is identifier-safe; "x61" is too — distinct names must map
		// to distinct files even though hex("a") == "61".
		t.Error("escape scheme collides distinct names")
	}
}
