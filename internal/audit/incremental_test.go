package audit

// Incremental re-audit correctness gates.  The property under test is
// Theorem 1(a) preserved across processes: a warm audit (answered from
// distilled-suite replay) must reproduce the cold audit's bug set,
// branch coverage, and completeness flags exactly — for every program
// in the corpus and every worker count — and any staleness or
// corruption must degrade to a full re-search, never a wrong verdict.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dart/internal/concolic"
	"dart/internal/corpus"
	"dart/internal/obs"
	"dart/internal/progs"
)

// auditSig is the deterministic verdict plane of a batch: per-function
// status, bug set, completeness flags, run counts, and the aggregate
// coverage — exactly what a warm start must reproduce byte for byte.
func auditSig(r *Result) string {
	var out string
	for _, e := range r.Entries {
		out += fmt.Sprintf("%s status=%s retried=%v", e.Function, e.Status, e.Retried)
		if rep := e.Report; rep != nil {
			out += fmt.Sprintf(" runs=%d complete=%v linear=%v locs=%v solver=%v stopped=%q",
				rep.Runs, rep.Complete, rep.AllLinear, rep.AllLocsDefinite,
				rep.SolverComplete, rep.Stopped)
			var bugs []string
			for _, b := range rep.Bugs {
				bugs = append(bugs, fmt.Sprintf("%s|%s|run%d|%v", b.Kind, b.Msg, b.Run, b.Inputs))
			}
			sort.Strings(bugs)
			out += fmt.Sprintf(" bugs=%v", bugs)
		}
		out += "\n"
	}
	out += fmt.Sprintf("coverage %d/%d touched=%d\n",
		r.Coverage.Covered(), r.Coverage.Total(), r.Coverage.SitesTouched())
	return out
}

// warmable counts entries a corpus may answer: deterministic terminal
// outcomes that were not retried.
func warmable(r *Result) int {
	n := 0
	for _, e := range r.Entries {
		if !e.Retried && (e.Status == OK || e.Status == Buggy) {
			n++
		}
	}
	return n
}

// TestAuditWarmMatchesCold is the tentpole gate over the progs corpus
// at every supported worker count: the cold search populates the
// corpus, the warm one replays from it, and the verdict planes must
// match exactly while every eligible function is a corpus hit.  (The
// minisip half of this gate lives at the repo root —
// TestIncrementalSIPWarmMatchesCold — to avoid an import cycle.)
func TestAuditWarmMatchesCold(t *testing.T) {
	sources := []struct {
		name, src string
		runs      int
	}{
		{"section21", progs.Section21, 200},
		{"foobarlib", progs.FoobarLib, 200},
		{"clusters", progs.Clusters, 200},
		{"divbyzero", progs.DivByZero, 200},
		{"nullchain", progs.NullChain, 200},
	}
	for _, s := range sources {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", s.name, workers), func(t *testing.T) {
				prog := compile(t, s.src)
				c, err := corpus.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{
					Seed:    11,
					MaxRuns: s.runs,
					Workers: workers,
					Corpus:  c,
				}
				opts.Toplevels = append(opts.Toplevels, prog.FuncOrder...)
				cold := Run(prog, opts)
				if cold.CorpusHits != 0 {
					t.Fatalf("cold run claims %d corpus hits", cold.CorpusHits)
				}
				if int(cold.CorpusStores) != warmable(cold) {
					t.Errorf("stored %d entries, %d warmable", cold.CorpusStores, warmable(cold))
				}
				warm := Run(prog, opts)
				if got, want := auditSig(warm), auditSig(cold); got != want {
					t.Errorf("warm verdicts diverge from cold:\ncold:\n%swarm:\n%s", want, got)
				}
				if warm.CorpusHits != warmable(cold) {
					t.Errorf("warm hits = %d, want %d (every stored entry)",
						warm.CorpusHits, warmable(cold))
				}
				if !reflect.DeepEqual(warm.Coverage, cold.Coverage) {
					t.Error("warm coverage set differs from cold")
				}
			})
		}
	}
}

// staleBefore and staleAfter are one library before and after an edit:
// beta gains a conditional, so its hash changes and every later global
// site number shifts; alpha and gamma are untouched.
const staleBefore = `
int alpha(int x) {
    if (x > 5) return 1;
    return 0;
}

int beta(int x) {
    if (x == 9) return 2;
    return 0;
}

int gamma(int x, int y) {
    if (x < y) return 3;
    return 0;
}
`

const staleAfter = `
int alpha(int x) {
    if (x > 5) return 1;
    return 0;
}

int beta(int x) {
    if (x == 9) return 2;
    if (x == 4) return 4;
    return 0;
}

int gamma(int x, int y) {
    if (x < y) return 3;
    return 0;
}
`

// missLog records "fn:reason" for every CorpusMiss event; audit workers
// emit concurrently, so appends are locked.
type missLog struct {
	mu      sync.Mutex
	reasons []string
}

func (l *missLog) sink() obs.Sink {
	return obs.SinkFunc(func(ev obs.Event) {
		if ev.Kind == obs.CorpusMiss {
			l.mu.Lock()
			l.reasons = append(l.reasons, ev.Fn+":"+ev.Reason)
			l.mu.Unlock()
		}
	})
}

// sorted returns the recorded misses in a schedule-independent order.
func (l *missLog) sorted() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]string(nil), l.reasons...)
	sort.Strings(out)
	return out
}

// TestAuditStaleHashResearchesOnlyChanged mutates one function between
// audits: only it (and functions whose hash folds it as a callee) may
// re-search; the rest must stay corpus hits even though the edit
// shifted every global site number after it.
func TestAuditStaleHashResearchesOnlyChanged(t *testing.T) {
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Toplevels: []string{"alpha", "beta", "gamma"},
		Seed:      3,
		MaxRuns:   100,
		Corpus:    c,
	}
	cold := Run(compile(t, staleBefore), opts)
	if cold.CorpusStores != 3 {
		t.Fatalf("cold stored %d entries, want 3", cold.CorpusStores)
	}

	var misses missLog
	opts.Observer = misses.sink()
	warm := Run(compile(t, staleAfter), opts)
	if warm.CorpusHits != 2 {
		t.Errorf("warm hits = %d, want 2 (alpha, gamma)", warm.CorpusHits)
	}
	if reasons := misses.sorted(); len(reasons) != 1 || reasons[0] != "beta:hash-changed" {
		t.Errorf("miss reasons = %v, want [beta:hash-changed]", reasons)
	}
	for _, e := range warm.Entries {
		wantCached := e.Function != "beta"
		if e.CachedByCorpus != wantCached {
			t.Errorf("%s: cached=%v, want %v", e.Function, e.CachedByCorpus, wantCached)
		}
	}
}

// TestAuditCorruptEntryDegrades damages one stored entry — a flipped
// byte, or its payload re-indented under a fresh, valid checksum, which
// the strict entry decoder rejects — and the function must miss as
// invalid, fall back to the full search, produce the same verdict the
// cold run did, and have its entry rewritten.
func TestAuditCorruptEntryDegrades(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(raw []byte) []byte
	}{
		{"byte-flip", func(raw []byte) []byte {
			raw[len(raw)/2] ^= 0x01
			return raw
		}},
		{"reindented", func(raw []byte) []byte {
			nl := bytes.IndexByte(raw, '\n')
			var payload bytes.Buffer
			if err := json.Indent(&payload, raw[nl+1:], "", "  "); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(payload.Bytes())
			return append(fmt.Appendf(nil, "dartcorpus1 %x\n", sum), payload.Bytes()...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := corpus.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			prog := compile(t, progs.Section21)
			opts := Options{
				Toplevels: []string{"f", "h"},
				Seed:      1,
				MaxRuns:   200,
				Corpus:    c,
			}
			cold := Run(prog, opts)

			path := filepath.Join(dir, "fn", "h.json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			stored := bytes.Clone(raw)
			if err := os.WriteFile(path, tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			c2, err := corpus.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			opts.Corpus = c2
			var misses missLog
			opts.Observer = misses.sink()
			warm := Run(prog, opts)
			if got, want := auditSig(warm), auditSig(cold); got != want {
				t.Errorf("corrupt entry changed verdicts:\ncold:\n%swarm:\n%s", want, got)
			}
			if warm.CorpusHits != 1 {
				t.Errorf("warm hits = %d, want 1 (f only; h's entry is corrupt)", warm.CorpusHits)
			}
			if got := misses.sorted(); !reflect.DeepEqual(got, []string{"h:invalid"}) {
				t.Errorf("misses = %v, want [h:invalid]", got)
			}
			// The full re-search re-stores h's entry, healing the corpus.
			if warm.CorpusStores != 1 {
				t.Errorf("warm stores = %d, want 1 (the healed entry)", warm.CorpusStores)
			}
			if healed, err := os.ReadFile(path); err != nil || !bytes.Equal(healed, stored) {
				t.Errorf("healed entry differs from the cold one (err %v)", err)
			}
			healed := Run(prog, Options{Toplevels: []string{"f", "h"}, Seed: 1, MaxRuns: 200, Corpus: c2})
			if healed.CorpusHits != 2 {
				t.Errorf("healed hits = %d, want 2", healed.CorpusHits)
			}
		})
	}
}

// TestAuditOptionsSigGatesReplay: a changed result-determining option
// must invalidate entries even when the program is identical.
func TestAuditOptionsSigGatesReplay(t *testing.T) {
	c, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog := compile(t, progs.Section21)
	opts := Options{Toplevels: []string{"f", "h"}, Seed: 1, MaxRuns: 200, Corpus: c}
	Run(prog, opts)

	opts.Seed = 2 // per-function seeds move; stored verdicts no longer apply
	var misses missLog
	opts.Observer = misses.sink()
	warm := Run(prog, opts)
	if warm.CorpusHits != 0 {
		t.Errorf("hits = %d under a different seed, want 0", warm.CorpusHits)
	}
	// Exactly one options-changed miss per function.
	want := []string{"f:options-changed", "h:options-changed"}
	if got := misses.sorted(); !reflect.DeepEqual(got, want) {
		t.Errorf("misses = %v, want %v", got, want)
	}
}

// TestWarmAuditSkipsSolveLog: the solve log is read on first use, so a
// fully warm audit over a corpus whose log holds garbage answers every
// function from its entry and never notes the garbage; a run that
// re-searches one changed function consults the log and notes it.
func TestWarmAuditSkipsSolveLog(t *testing.T) {
	dir := t.TempDir()
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Toplevels: []string{"alpha", "beta", "gamma"},
		Seed:      3,
		MaxRuns:   100,
		Corpus:    c,
	}
	if cold := Run(compile(t, staleBefore), opts); cold.CorpusStores != 3 {
		t.Fatalf("cold stored %d entries, want 3", cold.CorpusStores)
	}
	log, err := os.OpenFile(filepath.Join(dir, "solve.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteString("not a solve record\n"); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	solveLogNotes := func(r *Result) []string {
		var out []string
		for _, n := range r.CorpusNotes {
			if strings.Contains(n, "solve log") {
				out = append(out, n)
			}
		}
		return out
	}

	reopen := func() *corpus.Corpus {
		c, err := corpus.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	opts.Corpus = reopen()
	warm := Run(compile(t, staleBefore), opts)
	if warm.CorpusHits != 3 {
		t.Errorf("warm hits = %d, want 3", warm.CorpusHits)
	}
	if notes := solveLogNotes(warm); len(notes) != 0 {
		t.Errorf("fully warm audit read the solve log: %v", notes)
	}

	opts.Corpus = reopen()
	changed := Run(compile(t, staleAfter), opts)
	if changed.CorpusHits != 2 {
		t.Errorf("changed-library hits = %d, want 2 (alpha, gamma)", changed.CorpusHits)
	}
	if notes := solveLogNotes(changed); len(notes) != 1 || !strings.Contains(notes[0], "discarded 1 corrupt line") {
		t.Errorf("re-search did not read and note the corrupt log: %v", changed.CorpusNotes)
	}
}

// TestPersistentSolveCacheAcrossProcesses: the second search of the
// same function in a fresh engine (simulating a new process) must
// answer repeated constraint systems from the disk log, with the
// in-memory LRU miss counters staying honest (a disk hit is not an LRU
// miss-then-solve).
func TestPersistentSolveCacheAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	prog := compile(t, progs.Section21)
	run := func() *concolic.Report {
		c, err := corpus.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := concolic.Run(prog, concolic.Options{
			Toplevel:       "h",
			MaxRuns:        200,
			Seed:           1,
			Persistent:     c,
			CollectMetrics: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.FlushSolves(); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first := run()
	if first.SolveCacheDiskHits != 0 {
		t.Fatalf("first run claims %d disk hits", first.SolveCacheDiskHits)
	}
	second := run()
	if second.SolveCacheDiskHits == 0 {
		t.Fatal("second run never hit the persistent solve cache")
	}
	// SolverCalls counts consultations (incremented before any cache
	// lookup), so it is identical across runs; what the disk log saves is
	// the miss-then-solve work behind them.
	if second.SolveCacheMisses >= first.SolveCacheMisses {
		t.Errorf("cache misses did not drop: first=%d second=%d",
			first.SolveCacheMisses, second.SolveCacheMisses)
	}
	// Verdict plane unchanged: same bugs, same coverage.
	if len(first.Bugs) != len(second.Bugs) ||
		first.Coverage.Covered() != second.Coverage.Covered() {
		t.Errorf("persistent cache changed the outcome: bugs %d/%d cover %d/%d",
			len(first.Bugs), len(second.Bugs),
			first.Coverage.Covered(), second.Coverage.Covered())
	}
	if second.Metrics == nil || second.Metrics.Counters[obs.CSolveCacheDisk] !=
		int64(second.SolveCacheDiskHits) {
		t.Error("CSolveCacheDisk counter disagrees with the report")
	}
}
