package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSet makes ten untraced records per workload whose metrics vary by
// ±1% around 100, with wall_ms_p50 scaled by wall, peak_rss_mb by rss,
// and failed failures in each workload's first run.
func runSet(wall, rss float64, failed int) []record {
	var recs []record
	for _, wl := range []string{"sip-cold", "jobs-cached"} {
		for i := 0; i < 10; i++ {
			jitter := 1 + float64(i%5-2)/200
			m := metrics{}
			for _, d := range endToEnd {
				v := 100 * jitter
				switch d.Name {
				case "wall_ms_p50":
					v *= wall
				case "peak_rss_mb":
					v *= rss
				}
				m[d.Name] = value{v, d.Unit}
			}
			f := 0
			if i == 0 {
				f = failed
			}
			recs = append(recs, record{Workload: wl, Seed: int64(i + 1),
				Result: result{Correct: f == 0, Attempted: 100, Failed: f, Metrics: m}})
		}
	}
	// A traced run is never compared, however far off it reads.
	recs = append(recs, record{Workload: "sip-cold", Trace: true,
		Result: result{Attempted: 1, Failed: 1, Metrics: metrics{"wall_ms_p50": {1e9, "ms"}}}})
	return recs
}

func writeSet(t *testing.T, name string, recs []record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for _, rec := range recs {
		if err := rec.appendTo(path); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareExitCodes(t *testing.T) {
	base := writeSet(t, "old.jsonl", runSet(1, 1, 0))
	for _, c := range []struct {
		name string
		new  []record
		code int
		want string // a row the output must contain
	}{
		{"identical", runSet(1, 1, 0), 0, "same"},
		{"wall 20% worse", runSet(1.2, 1, 0), 1, "worse"},
		{"wall 5% worse, within its bound", runSet(1.05, 1, 0), 0, "same"},
		{"peak RSS 20% worse", runSet(1, 1.2, 0), 1, "worse"},
		{"wall 20% better", runSet(0.8, 1, 0), 0, "improved"},
		{"a failure", runSet(1, 1, 1), 1, "worse"},
		{"workload missing", runSet(1, 1, 0)[:10], 1, "missing"},
	} {
		var out, errb bytes.Buffer
		code := compareMain([]string{base, writeSet(t, "new.jsonl", c.new)}, &out, &errb)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: no %q row:\n%s", c.name, c.want, out.String())
		}
	}
	if code := compareMain([]string{base}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
}

func TestCompareMetricVerdicts(t *testing.T) {
	// Bounds of 0.10 whatever BENCHMARK.json declares, so that 5% is
	// within the bound and 20% beyond it.
	lower := metricDef{"wall_ms_p50", "ms", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	tight := []float64{99, 100, 100, 101, 100}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	wide := []float64{60, 80, 100, 120, 140}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"lower, 20% up", lower, tight, scale(tight, 1.2), worse},
		{"lower, 5% up", lower, tight, scale(tight, 1.05), same},
		{"lower, 20% down", lower, tight, scale(tight, 0.8), improved},
		{"higher, 20% down", higher, tight, scale(tight, 0.8), worse},
		{"higher, 20% up", higher, tight, scale(tight, 1.2), improved},
		{"wide and overlapping", lower, wide, scale(wide, 1.15), unresolved},
	} {
		if got := compareMetric(c.d, c.old, c.new).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"workload\":\"x\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecords(path); err == nil {
		t.Fatal("readRecords accepted a line that is not JSON")
	}
}
