package serve

// Corpus-backed persistence tests: a restarted service must serve
// byte-identical cached reports from the disk spill, and a store miss
// with intact function entries must answer through the audit's corpus
// fast path — in both cases indistinguishable (in report bytes) from a
// fresh run.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dart/internal/corpus"
	"dart/internal/progs"
)

// TestRestartServesFromCorpusDisk is the spill's core guarantee: stop
// the service, start a new one on the same corpus dir, and an identical
// submission is served from disk with the exact bytes the pre-restart
// submission produced.
func TestRestartServesFromCorpusDisk(t *testing.T) {
	dir := t.TempDir()
	c1, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Corpus: c1})
	j1, err := s1.Submit(Submission{Source: progs.Section21, Runs: 200})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j1)
	b1, cached := j1.Report()
	if cached {
		t.Fatal("first submission claims cached")
	}
	s1.Drain(5 * time.Second)

	c2, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Corpus: c2})
	defer s2.Drain(time.Second)
	j2, err := s2.Submit(Submission{Source: progs.Section21, Runs: 200})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j2)
	b2, cached := j2.Report()
	if !cached {
		t.Fatal("post-restart submission was not served from the spill")
	}
	if src := j2.envelope().CacheSource; src != cacheSourceDisk {
		t.Errorf("cache source %q, want %q", src, cacheSourceDisk)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("restart changed the report bytes:\npre:  %s\npost: %s", b1, b2)
	}
	if got := s2.Gauges()["jobs_store_disk_hits"]; got != 1 {
		t.Errorf("jobs_store_disk_hits = %v, want 1", got)
	}

	// The disk hit was promoted into the LRU: a third identical
	// submission is a plain memory hit.
	j3, err := s2.Submit(Submission{Source: progs.Section21, Runs: 200})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j3)
	if src := j3.envelope().CacheSource; src != cacheSourceMemory {
		t.Errorf("promoted hit source %q, want %q", src, cacheSourceMemory)
	}
}

// TestRestartCorpusFastPath removes the report spill but keeps the
// function entries: the job must re-execute (store miss), answer every
// function from the corpus (distilled-suite replay), and still produce
// byte-identical report bytes.
func TestRestartCorpusFastPath(t *testing.T) {
	dir := t.TempDir()
	c1, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Corpus: c1})
	j1, err := s1.Submit(Submission{Source: progs.Section21, Runs: 200})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j1)
	b1, _ := j1.Report()
	s1.Drain(5 * time.Second)

	// Drop the spilled reports; the per-function entries survive.
	if err := os.RemoveAll(filepath.Join(dir, "reports")); err != nil {
		t.Fatal(err)
	}

	c2, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Corpus: c2})
	defer s2.Drain(time.Second)
	j2, err := s2.Submit(Submission{Source: progs.Section21, Runs: 200})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j2)
	b2, cached := j2.Report()
	if cached {
		t.Fatal("store hit despite the spill being removed")
	}
	env := j2.envelope()
	if env.CorpusHits == 0 {
		t.Error("no corpus hits: the warm fast path never fired")
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("warm re-execution changed the report bytes:\ncold: %s\nwarm: %s", b1, b2)
	}
}

// TestRestartRejectsNonJSONSpill: a spilled report that passes the
// corpus checksum but cannot be embedded verbatim in a job envelope —
// not JSON, or JSON broken over lines, which no SSE frame can carry —
// reads as a store miss.  The job re-executes, and its put overwrites
// the spill with the real report.
func TestRestartRejectsNonJSONSpill(t *testing.T) {
	for name, payload := range map[string]string{
		"not-json":   "{not json",
		"multi-line": "{\n}",
	} {
		t.Run(name, func(t *testing.T) {
			c, err := corpus.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := cacheKey(progs.Section21, 1, 200, 1, false, 0)
			if err := c.StoreReport(key, []byte(payload)); err != nil {
				t.Fatal(err)
			}
			s := New(Config{Corpus: c})
			defer s.Drain(time.Second)
			j, err := s.Submit(Submission{Source: progs.Section21, Runs: 200})
			if err != nil {
				t.Fatal(err)
			}
			wait(t, j)
			b, cached := j.Report()
			if cached {
				t.Fatalf("spilled %q served as a cached report", payload)
			}
			decode(t, b)
			if got := s.Gauges()["jobs_store_disk_hits"]; got != 0 {
				t.Errorf("jobs_store_disk_hits = %v, want 0", got)
			}
			if spilled, ok := c.LoadReport(key); !ok || !bytes.Equal(spilled, b) {
				t.Errorf("re-execution did not overwrite the spill: %q", spilled)
			}
		})
	}
}
