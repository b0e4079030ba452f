package dart

// Engine-signature golden: the exact one-worker plane of every search
// engine (classic DFS stack, BFS and RandomBranch frontier, the random
// baseline), with and without the in-memory solve cache, exhaustive and
// MaxRuns-truncated, plus the disk-backed memo cold and warm and the
// replay of every reported bug.  Each configuration is one golden line:
// its solve-cache tallies in clear and the SHA-256 of its full
// signature (EngineSignature with profile and explain, the run log,
// the bug replays).  A mismatch prints the full signature.  Regenerate
// with
//
//	go test -run TestEngineSignatureGolden -update .
//
// and inspect the full signatures with -sigdump FILE.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"dart/internal/audit"
	"dart/internal/corpus"
	"dart/internal/minisip"
	"dart/internal/progs"
	"dart/internal/protocols"
	"dart/internal/solver"
)

var sigDump = flag.String("sigdump", "", "write the full engine signatures of TestEngineSignatureGolden to this file")

// mapPersist is a map-backed solver.PersistentCache: the disk layer's
// contract without the disk.
type mapPersist struct {
	mu sync.Mutex
	m  map[string]solver.PortableResult
}

func (p *mapPersist) GetPortable(key string) (solver.PortableResult, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.m[key]
	return r, ok
}

func (p *mapPersist) PutPortable(key string, verdict solver.Verdict, model map[string]int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.m == nil {
		p.m = map[string]solver.PortableResult{}
	}
	var cp map[string]int64
	if model != nil {
		cp = make(map[string]int64, len(model))
		for k, v := range model {
			cp[k] = v
		}
	}
	p.m[key] = solver.PortableResult{Verdict: verdict, Model: cp}
}

// goldenInputs renders an input vector in key order.
func goldenInputs(im map[string]int64) string {
	keys := make([]string, 0, len(im))
	for k := range im {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, im[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// goldenSignature is a report's full golden plane: its EngineSignature,
// its run log, and the Replay outcome and message of each reported bug.
func goldenSignature(t *testing.T, prog *Program, opts Options, rep *Report) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(rep.EngineSignature(prog.IR))
	fmt.Fprintf(&b, "runlog=%d\n", len(rep.RunLog))
	for _, r := range rep.RunLog {
		fmt.Fprintf(&b, "  %s", goldenInputs(r.Inputs))
		for _, d := range r.Cover {
			fmt.Fprintf(&b, " %d%c", d.Site, mark(d.Taken))
		}
		b.WriteByte('\n')
	}
	for _, bug := range rep.Bugs {
		rerr, err := Replay(prog, opts, bug.Inputs)
		switch {
		case err != nil:
			fmt.Fprintf(&b, "replay error %v\n", err)
		case rerr == nil:
			b.WriteString("replay ok\n")
		default:
			fmt.Fprintf(&b, "replay [%s] %s at %s\n", rerr.Outcome, rerr.Msg, rerr.Pos)
		}
	}
	return b.String()
}

func mark(taken bool) byte {
	if taken {
		return 'T'
	}
	return 'N'
}

func TestEngineSignatureGolden(t *testing.T) {
	type fixture struct {
		name, src, top string
		depth          int
	}
	var fixtures []fixture
	for _, tc := range xcheckCorpus {
		fixtures = append(fixtures, fixture{tc.name, tc.src, tc.top, tc.depth})
	}
	fixtures = append(fixtures, fixture{"dolev-yao", protocols.Source(protocols.DolevYao, protocols.NoFix), protocols.Toplevel, 2})

	var lines, full []string
	record := func(name string, prog *Program, opts Options, rep *Report) {
		sig := goldenSignature(t, prog, opts, rep)
		lines = append(lines, fmt.Sprintf("%s hits=%d misses=%d evictions=%d disk=%d sliced=%d sha256=%x",
			name, rep.SolveCacheHits, rep.SolveCacheMisses, rep.SolveCacheEvictions,
			rep.SolveCacheDiskHits, rep.SlicedPreds, sha256.Sum256([]byte(sig))))
		full = append(full, "== "+name+"\n"+sig)
	}
	for _, fx := range fixtures {
		prog := compileT(t, fx.src)
		base := Options{
			Toplevel:       fx.top,
			Depth:          fx.depth,
			Seed:           3,
			Workers:        1,
			CollectProfile: true,
			CollectExplain: true,
			RecordRuns:     true,
		}
		for _, strat := range []Strategy{DFS, BFS, RandomBranch} {
			for _, cache := range []int{0, -1} {
				for _, runs := range []int{800, 7} {
					o := base
					o.Strategy, o.SolveCacheCap, o.MaxRuns = strat, cache, runs
					rep, err := Run(prog, o)
					if err != nil {
						t.Fatalf("%s: %v", fx.name, err)
					}
					cacheName := "default"
					if cache < 0 {
						cacheName = "off"
					}
					record(fmt.Sprintf("%s/%s/cache=%s/runs=%d", fx.name, strat, cacheName, runs), prog, o, rep)
				}
			}
		}
		o := base
		o.MaxRuns = 800
		rep, err := RandomTest(prog, o)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		record(fx.name+"/random", prog, o, rep)
		for _, cache := range []int{0, -1} {
			persist := &mapPersist{}
			for _, temp := range []string{"cold", "warm"} {
				o := base
				o.MaxRuns, o.SolveCacheCap, o.Persistent = 800, cache, persist
				rep, err := Run(prog, o)
				if err != nil {
					t.Fatalf("%s: %v", fx.name, err)
				}
				record(fmt.Sprintf("%s/persistent/cache=%d/%s", fx.name, cache, temp), prog, o, rep)
			}
		}
	}

	got := []byte(strings.Join(lines, "\n") + "\n")
	if *sigDump != "" {
		if err := os.WriteFile(*sigDump, []byte(strings.Join(full, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "engine_signature.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d configurations, the matrix %d (run with -update if intended)", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("signature diverged from golden (run with -update if intended)\ngot:  %s\nwant: %s\nfull signature:\n%s",
				lines[i], wantLines[i], full[i])
		}
	}
}

// traceGolden runs one fixed-seed engine on the Sec. 2.1 example and
// compares its NDJSON trace with testdata/name.
func traceGolden(t *testing.T, name string, random bool, opts Options) {
	t.Helper()
	prog := compileT(t, progs.Section21)
	var buf bytes.Buffer
	opts.Observer = NewNDJSONSink(&buf)
	run := Run
	if random {
		run = RandomTest
	}
	if _, err := run(prog, opts); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace diverged from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceGoldenE1IntroBFS pins the frontier engine's event stream:
// root, flips in breadth-first order, exhaustion, and the explainer's
// closing UncoveredReason events.
func TestTraceGoldenE1IntroBFS(t *testing.T) {
	traceGolden(t, "trace_e1intro_bfs.ndjson", false, Options{
		Toplevel:       "h",
		MaxRuns:        50,
		Seed:           1,
		Strategy:       BFS,
		CollectExplain: true,
	})
}

// TestTraceGoldenE1IntroRandom pins the random baseline's event stream,
// coverage stalls and closing UncoveredReason events included.
func TestTraceGoldenE1IntroRandom(t *testing.T) {
	traceGolden(t, "trace_e1intro_random.ndjson", true, Options{
		Toplevel:       "h",
		MaxRuns:        50,
		Seed:           1,
		CollectExplain: true,
		StallWindow:    10,
	})
}

// TestMinisipCorpusGolden pins what a cold minisip audit writes into a
// fresh corpus — the -audit -corpus configuration of the sip-cold
// benchmark (seed 1, 1000 runs, 2 jobs).  The entries carry minisip's
// nested struct, array and pointer input keys in their suites and bug
// fixtures, and the solve log carries the solver models, so symbolic
// variable numbering reaches this golden too.  One line per fn/ entry
// holds the SHA-256 of its bytes, and the last line the SHA-256 of the
// solve log with its lines sorted (two functions audited at once append
// in schedule order).  Regenerate with
//
//	go test -run TestMinisipCorpusGolden -update .
func TestMinisipCorpusGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-library cold audit")
	}
	prog := compileT(t, minisip.SourceText())
	dir := t.TempDir()
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	audit.Run(prog.IR, audit.Options{
		Toplevels: Functions(prog),
		Seed:      1,
		MaxRuns:   1000,
		Jobs:      2,
		Corpus:    c,
	})
	if err := c.FlushSolves(); err != nil {
		t.Fatal(err)
	}

	var lines []string
	entries, err := os.ReadDir(filepath.Join(dir, "fn"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, "fn", ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("fn/%s sha256=%x", ent.Name(), sha256.Sum256(data)))
	}
	if len(lines) == 0 {
		t.Fatal("the audit stored no corpus entry")
	}
	log, err := os.ReadFile(filepath.Join(dir, "solve.log"))
	if err != nil {
		t.Fatal(err)
	}
	solves := strings.SplitAfter(string(log), "\n")
	sort.Strings(solves)
	lines = append(lines, fmt.Sprintf("solve.log lines=%d sorted-sha256=%x",
		strings.Count(string(log), "\n"), sha256.Sum256([]byte(strings.Join(solves, "")))))

	got := []byte(strings.Join(lines, "\n") + "\n")
	golden := filepath.Join("testdata", "minisip_corpus.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("minisip corpus diverged from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}
