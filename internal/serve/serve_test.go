package serve

// Service-level tests: job lifecycle, byte-identical caching, per-job
// fault isolation (a poisoned job must not take its neighbours down),
// bounded-queue backpressure, graceful drain, and concurrent admission
// under the race detector.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dart/internal/obs"
	"dart/internal/progs"
)

// wait blocks until the job completes or the test deadline trips.
func wait(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never completed", j.ID)
	}
}

// decode parses a job's report bytes.
func decode(t *testing.T, b []byte) *JobReport {
	t.Helper()
	var rep JobReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, b)
	}
	return &rep
}

func TestJobLifecycle(t *testing.T) {
	s := New(Config{})
	defer s.Drain(time.Second)

	j, err := s.Submit(Submission{Source: progs.Section21, Runs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j1" {
		t.Errorf("first job id %q, want j1", j.ID)
	}
	wait(t, j)
	if j.State() != StateDone {
		t.Fatalf("state %q after Done, want done", j.State())
	}
	b, cached := j.Report()
	if cached {
		t.Error("first submission claims cached")
	}
	rep := decode(t, b)
	if rep.Functions != 2 || rep.Buggy != 1 || rep.Stopped {
		t.Errorf("report: functions=%d buggy=%d stopped=%v", rep.Functions, rep.Buggy, rep.Stopped)
	}
	// The paper's Section 2.1 bug, replayable inputs included.
	var h *JobEntry
	for i := range rep.Entries {
		if rep.Entries[i].Function == "h" {
			h = &rep.Entries[i]
		}
	}
	if h == nil || h.Status != "bugs" || len(h.Bugs) != 1 || h.Bugs[0].Inputs["d0.x"] != 10 {
		t.Errorf("h entry: %+v", h)
	}
}

// TestCachedByteIdentical is the store's core guarantee: an identical
// submission is served from the store, marked cached, and its bytes are
// identical to both the first run and a fresh run on a virgin service.
func TestCachedByteIdentical(t *testing.T) {
	sub := Submission{Source: progs.Section21, Seed: 7, Runs: 300}

	s := New(Config{})
	defer s.Drain(time.Second)
	first, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, first)
	fb, cached := first.Report()
	if cached {
		t.Fatal("first run claims cached")
	}

	second, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, second) // born done; returns immediately
	sb, cached := second.Report()
	if !cached {
		t.Fatal("identical resubmission not served from the store")
	}
	if !bytes.Equal(fb, sb) {
		t.Errorf("cached bytes differ from the first run:\n%s\n%s", fb, sb)
	}

	fresh := New(Config{})
	defer fresh.Drain(time.Second)
	fj, err := fresh.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, fj)
	freshB, _ := fj.Report()
	if !bytes.Equal(fb, freshB) {
		t.Errorf("cached bytes differ from a fresh service's run:\n%s\n%s", fb, freshB)
	}

	// A different seed is a different identity — never served from cache.
	other, err := s.Submit(Submission{Source: progs.Section21, Seed: 8, Runs: 300})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, other)
	if _, cached := other.Report(); cached {
		t.Error("different seed wrongly served from the store")
	}
}

// TestPoisonedJobIsolation is the acceptance test from the issue: one
// of N queued jobs panics in its executor; the others finish normally
// and the poisoned one degrades to an honest partial report after
// bounded retries — the service itself never goes down.
func TestPoisonedJobIsolation(t *testing.T) {
	const n = 5
	s := New(Config{Executors: 2, MaxRetries: 1, RetryBackoff: time.Millisecond})
	defer s.Drain(time.Second)
	s.beforeRun = func(j *Job) {
		if j.ID == "j3" {
			panic("poisoned job")
		}
	}

	var jobs []*Job
	for i := 0; i < n; i++ {
		j, err := s.Submit(Submission{Source: progs.Section21, Seed: int64(100 + i), Runs: 100})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		wait(t, j)
	}
	for _, j := range jobs {
		b, _ := j.Report()
		rep := decode(t, b)
		if j.ID == "j3" {
			if !rep.Stopped || rep.StopReason != "internal-fault" {
				t.Errorf("poisoned job: stopped=%v reason=%q", rep.Stopped, rep.StopReason)
			}
			if !strings.Contains(rep.Error, "poisoned job") {
				t.Errorf("poisoned job error %q does not name the panic", rep.Error)
			}
			j.mu.Lock()
			retries := j.retries
			j.mu.Unlock()
			if retries != 1 {
				t.Errorf("poisoned job retries = %d, want 1 (MaxRetries)", retries)
			}
			continue
		}
		if rep.Stopped || rep.Buggy != 1 {
			t.Errorf("%s: healthy neighbour damaged: stopped=%v buggy=%d", j.ID, rep.Stopped, rep.Buggy)
		}
	}
}

// TestPoisonedReportNotCached: a degraded report must never be served
// to a later identical submission.
func TestPoisonedReportNotCached(t *testing.T) {
	s := New(Config{MaxRetries: 0, RetryBackoff: time.Millisecond})
	defer s.Drain(time.Second)
	poison := true
	var mu sync.Mutex
	s.beforeRun = func(*Job) {
		mu.Lock()
		p := poison
		mu.Unlock()
		if p {
			panic("transient")
		}
	}
	sub := Submission{Source: progs.Section21, Runs: 100}
	j1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j1)
	if rep := decode(t, firstBytes(j1)); rep.StopReason != "internal-fault" {
		t.Fatalf("poisoned run stop reason %q", rep.StopReason)
	}
	mu.Lock()
	poison = false
	mu.Unlock()
	j2, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j2)
	if _, cached := j2.Report(); cached {
		t.Error("degraded report was cached and served")
	}
	if rep := decode(t, firstBytes(j2)); rep.StopReason != "" || rep.Buggy != 1 {
		t.Errorf("healthy rerun: %+v", rep)
	}
}

func firstBytes(j *Job) []byte { b, _ := j.Report(); return b }

// gate blocks executors until released, so tests can hold jobs
// in-flight deterministically.
type gate struct {
	mu       sync.Mutex
	released bool
	ch       chan struct{}
}

func newGate() *gate { return &gate{ch: make(chan struct{})} }

func (g *gate) hold(j *Job) {
	select {
	case <-g.ch:
	case <-j.cancel:
	}
}

func (g *gate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.released {
		g.released = true
		close(g.ch)
	}
}

// TestQueueFullRejects: with one blocked executor and a depth-2 queue,
// the fourth submission must be refused with ErrQueueFull — load is
// shed at admission, memory never grows.
func TestQueueFullRejects(t *testing.T) {
	g := newGate()
	s := New(Config{Executors: 1, QueueDepth: 2})
	defer func() { g.release(); s.Drain(time.Second) }()
	s.beforeRun = func(j *Job) { g.hold(j) }

	first, err := s.Submit(Submission{Source: progs.Section21, Seed: 1, Runs: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the executor holds the first job, so the queue's two
	// slots are demonstrably free before the flood.
	deadline := time.Now().Add(5 * time.Second)
	for s.Gauges()["jobs_running"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("executor never picked the first job up")
		}
		time.Sleep(time.Millisecond)
	}

	jobs := []*Job{first}
	for i := 0; ; i++ {
		j, err := s.Submit(Submission{Source: progs.Section21, Seed: int64(i + 2), Runs: 50})
		if errors.Is(err, ErrQueueFull) {
			// 1 running + 2 queued is the most the service will hold.
			if len(jobs) != 3 {
				t.Errorf("rejected after %d admissions, want 3", len(jobs))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		if i > 10 {
			t.Fatal("queue never filled")
		}
	}
	if ready, why := s.Ready(); ready {
		t.Error("Ready() true with a saturated queue")
	} else if why != "queue saturated" {
		t.Errorf("readiness reason %q", why)
	}

	g.release()
	for _, j := range jobs {
		wait(t, j)
	}
	if ready, _ := s.Ready(); !ready {
		t.Error("Ready() false after the queue cleared")
	}
}

// TestDrainCheckpointsBacklog: a drain whose deadline trips cancels the
// in-flight jobs; every admitted job still completes, with an honest
// "drain" stop reason, and Drain returns.
func TestDrainCheckpointsBacklog(t *testing.T) {
	g := newGate() // never released: only the drain kill can free the jobs
	s := New(Config{Executors: 2, QueueDepth: 8})
	s.beforeRun = func(j *Job) { g.hold(j) }

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Submission{Source: progs.Section21, Seed: int64(i + 1), Runs: 50})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	start := time.Now()
	s.Drain(100 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("drain took %s", elapsed)
	}

	if _, err := s.Submit(Submission{Source: progs.Section21}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while drained: %v, want ErrDraining", err)
	}
	for _, j := range jobs {
		wait(t, j)
		rep := decode(t, firstBytes(j))
		if !rep.Stopped || rep.StopReason != "drain" {
			t.Errorf("%s: stopped=%v reason=%q, want drain checkpoint", j.ID, rep.Stopped, rep.StopReason)
		}
	}
	// Draining twice is safe.
	s.Drain(time.Millisecond)
}

// TestDrainLetsBacklogFinish: when jobs finish inside the deadline the
// drain is clean — full reports, no checkpoint marks.
func TestDrainLetsBacklogFinish(t *testing.T) {
	s := New(Config{Executors: 2})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(Submission{Source: progs.Section21, Seed: int64(i + 1), Runs: 100})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Drain(30 * time.Second)
	for _, j := range jobs {
		rep := decode(t, firstBytes(j))
		if rep.Stopped {
			t.Errorf("%s: checkpointed (%s) despite a roomy drain deadline", j.ID, rep.StopReason)
		}
	}
}

// TestConcurrentSubmissions hammers Submit from many goroutines while
// executors run, under -race in CI: every call must return either an
// admitted job (which then completes) or a clean backpressure error.
func TestConcurrentSubmissions(t *testing.T) {
	s := New(Config{Executors: 4, QueueDepth: 8})
	defer s.Drain(30 * time.Second)

	const n = 32
	var wg sync.WaitGroup
	results := make([]*Job, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A handful of distinct identities so store hits and misses
			// interleave with live runs.
			sub := Submission{Source: progs.Section21, Seed: int64(i%4 + 1), Runs: 60}
			results[i], errs[i] = s.Submit(sub)
		}(i)
	}
	wg.Wait()

	admitted := 0
	for i := 0; i < n; i++ {
		switch {
		case errs[i] == nil:
			admitted++
			wait(t, results[i])
			if rep := decode(t, firstBytes(results[i])); rep.Stopped {
				t.Errorf("job %s degraded: %s", results[i].ID, rep.StopReason)
			}
		case errors.Is(errs[i], ErrQueueFull):
			// Honest shedding under burst load.
		default:
			t.Errorf("submission %d: %v", i, errs[i])
		}
	}
	if admitted == 0 {
		t.Error("no submission was admitted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{MaxRuns: 1000})
	defer s.Drain(time.Second)

	var bad *BadSubmissionError
	if _, err := s.Submit(Submission{}); !errors.As(err, &bad) {
		t.Errorf("empty submission: %v", err)
	}
	if _, err := s.Submit(Submission{Lib: "nope"}); !errors.As(err, &bad) || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown library: %v", err)
	}
	if _, err := s.Submit(Submission{Source: "int f( {"}); !errors.As(err, &bad) {
		t.Errorf("compile failure: %v", err)
	}
	if _, err := s.Submit(Submission{Source: progs.Section21, Runs: 5000}); !errors.As(err, &bad) || !strings.Contains(err.Error(), "cap") {
		t.Errorf("runs over the service cap: %v", err)
	}
}

// TestSubmitHitSkipsCompile: a stored submission is answered from its
// content key alone — no lexing, parsing, checking or lowering — so
// its Submit allocates a handful of objects, not a front end's worth;
// a ?lib= submission resolves to the same key and hits too.  Draining
// still refuses a stored submission.
func TestSubmitHitSkipsCompile(t *testing.T) {
	s := New(Config{Libraries: map[string]string{"sec21": progs.Section21}})
	defer s.Drain(time.Second)
	j, err := s.Submit(Submission{Source: progs.Section21, Runs: 100})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)

	for _, sub := range []Submission{
		{Source: progs.Section21, Runs: 100},
		{Lib: "sec21", Runs: 100},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			j, err := s.Submit(sub)
			if err != nil {
				t.Fatal(err)
			}
			if _, cached := j.Report(); !cached {
				t.Fatalf("%+v was not served from the store", sub)
			}
		})
		if allocs > 32 {
			t.Errorf("stored submission (lib=%q) allocates %.0f objects per Submit, want <= 32", sub.Lib, allocs)
		}
	}

	s.Drain(time.Second)
	if _, err := s.Submit(Submission{Source: progs.Section21, Runs: 100}); !errors.Is(err, ErrDraining) {
		t.Errorf("stored submission while draining: %v, want ErrDraining", err)
	}
}

func TestLibrarySubmission(t *testing.T) {
	s := New(Config{Libraries: map[string]string{"sec21": progs.Section21}})
	defer s.Drain(time.Second)
	j, err := s.Submit(Submission{Lib: "sec21", Runs: 100})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if rep := decode(t, firstBytes(j)); rep.Buggy != 1 {
		t.Errorf("library audit: %+v", rep)
	}
}

// TestHistoryCapEvicts: completed job records beyond the cap disappear
// from lookup — the record tables are bounded like everything else.
func TestHistoryCapEvicts(t *testing.T) {
	s := New(Config{Executors: 1, HistoryCap: 2, StoreCap: -1})
	defer s.Drain(time.Second)
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(Submission{Source: progs.Section21, Seed: int64(i + 1), Runs: 50})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, j)
		ids = append(ids, j.ID)
	}
	for i, id := range ids {
		_, ok := s.Job(id)
		if want := i >= len(ids)-2; ok != want {
			t.Errorf("job %s retained=%v, want %v", id, ok, want)
		}
	}
	if n := len(s.Jobs()); n != 2 {
		t.Errorf("%d live records, want 2", n)
	}
}

// TestJobEvents: the lifecycle event stream carries the job tags the
// /events consumers key on.
func TestJobEvents(t *testing.T) {
	var mu sync.Mutex
	var got []obs.Event
	sink := obs.SinkFunc(func(ev obs.Event) {
		switch ev.Kind {
		case obs.JobQueued, obs.JobStart, obs.JobEnd, obs.JobRejected:
			mu.Lock()
			got = append(got, ev)
			mu.Unlock()
		}
	})
	s := New(Config{Executors: 1, QueueDepth: 1, Sink: sink})
	defer s.Drain(time.Second)

	j, err := s.Submit(Submission{Source: progs.Section21, Runs: 100})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	// Identical resubmission: a cached completion still announces itself.
	c, err := s.Submit(Submission{Source: progs.Section21, Runs: 100})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, c)

	mu.Lock()
	defer mu.Unlock()
	kinds := map[obs.Kind]int{}
	for _, ev := range got {
		kinds[ev.Kind]++
		if ev.Kind != obs.JobRejected && ev.Job == "" {
			t.Errorf("%s event missing its job tag", ev.Kind)
		}
	}
	if kinds[obs.JobQueued] != 2 || kinds[obs.JobStart] != 1 || kinds[obs.JobEnd] != 2 {
		t.Errorf("event counts: %v", kinds)
	}
	var cachedEnd bool
	for _, ev := range got {
		if ev.Kind == obs.JobEnd && ev.Job == c.ID && ev.Status == "cached" {
			cachedEnd = true
		}
	}
	if !cachedEnd {
		t.Error("cached completion not announced with status=cached")
	}
}

// TestGauges: the service's /metrics gauges reflect live state.
func TestGauges(t *testing.T) {
	g := newGate()
	s := New(Config{Executors: 1, QueueDepth: 4})
	defer func() { g.release(); s.Drain(time.Second) }()
	s.beforeRun = func(j *Job) { g.hold(j) }

	if _, err := s.Submit(Submission{Source: progs.Section21, Runs: 50}); err != nil {
		t.Fatal(err)
	}
	// Wait for the executor to pick the job up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Gauges()["jobs_running"] == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	gs := s.Gauges()
	if gs["jobs_running"] != 1 {
		t.Errorf("jobs_running = %v, want 1", gs["jobs_running"])
	}
	if gs["jobs_queue_capacity"] != 4 {
		t.Errorf("jobs_queue_capacity = %v, want 4", gs["jobs_queue_capacity"])
	}
	if gs["jobs_draining"] != 0 {
		t.Errorf("jobs_draining = %v, want 0", gs["jobs_draining"])
	}
}

// TestStoreLRUBounds exercises the result store directly: capacity is a
// hard bound and eviction is least-recently-used.
func TestStoreLRUBounds(t *testing.T) {
	st := newStore(2, nil)
	st.put("a", []byte("A"))
	st.put("b", []byte("B"))
	if _, src := st.get("a"); src != cacheSourceMemory { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	st.put("c", []byte("C"))
	if _, src := st.get("b"); src != "" {
		t.Error("b survived past capacity (not LRU eviction)")
	}
	if _, src := st.get("a"); src != cacheSourceMemory {
		t.Error("recently used a was evicted")
	}
	if st.len() != 2 {
		t.Errorf("len = %d, want 2", st.len())
	}
	_, _, evictions, _ := st.stats()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}

	off := newStore(-1, nil)
	off.put("a", []byte("A"))
	if _, src := off.get("a"); src != "" || off.len() != 0 {
		t.Error("negative capacity must disable the store")
	}
}

func TestCacheKeyIdentity(t *testing.T) {
	base := cacheKey("src", 1, 100, 1, false, 0)
	same := cacheKey("src", 1, 100, 1, false, 0)
	if base != same {
		t.Error("identical identities hash differently")
	}
	for i, other := range []string{
		cacheKey("src2", 1, 100, 1, false, 0),
		cacheKey("src", 2, 100, 1, false, 0),
		cacheKey("src", 1, 101, 1, false, 0),
		cacheKey("src", 1, 100, 2, false, 0),
		cacheKey("src", 1, 100, 1, true, 0),
		cacheKey("src", 1, 100, 1, false, time.Second),
	} {
		if other == base {
			t.Errorf("variant %d collides with the base identity", i)
		}
	}
}

// TestDeadlineCheckpointsJob: a job that blows its per-job deadline is
// checkpointed, not killed — done state, partial report, "deadline".
func TestDeadlineCheckpointsJob(t *testing.T) {
	g := newGate() // never released: only the deadline frees the job
	s := New(Config{Executors: 1, JobTimeout: 50 * time.Millisecond})
	defer s.Drain(time.Second)
	s.beforeRun = func(j *Job) { g.hold(j) }

	j, err := s.Submit(Submission{Source: progs.Section21, Runs: 50})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	rep := decode(t, firstBytes(j))
	if !rep.Stopped || rep.StopReason != "deadline" {
		t.Errorf("stopped=%v reason=%q, want deadline checkpoint", rep.Stopped, rep.StopReason)
	}
	if j.State() != StateDone {
		t.Errorf("state %q, want done", j.State())
	}
	if _, cached := j.Report(); cached {
		t.Error("deadline-shaped report claims cached")
	}
}

func TestServiceRunsCapMessage(t *testing.T) {
	s := New(Config{MaxRuns: 10})
	defer s.Drain(time.Second)
	_, err := s.Submit(Submission{Source: progs.Section21, Runs: 11})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cap %d", 10)) {
		t.Errorf("cap diagnostic: %v", err)
	}
}
