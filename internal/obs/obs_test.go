package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNDJSONSequencesAndShape(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	s.Event(Event{Kind: RunStart, Fn: "f", Run: 1})
	s.Event(Event{Kind: RunEnd, Fn: "f", Run: 1, Steps: 7, Outcome: "halt", Path: "10"})
	s.Event(Event{Kind: BugFound, Fn: "f", Run: 1, Msg: "boom"})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Events() != 3 {
		t.Fatalf("Events() = %d, want 3", s.Events())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("line %d seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	// Zero-valued optional fields must be omitted, keeping traces terse
	// and byte-stable.
	if strings.Contains(lines[0], "depth") || strings.Contains(lines[0], "path") {
		t.Errorf("unset fields not omitted: %s", lines[0])
	}
}

func TestNDJSONConcurrentWritersStayWellFormed(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Event(Event{Kind: RunStart, Run: i, Depth: w})
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("%d lines, want 800", len(lines))
	}
	seen := map[uint64]bool{}
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("interleaved write corrupted a line: %v\n%s", err, line)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestTeeCollapsesAndFansOut(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("Tee of no live sinks must collapse to nil")
	}
	var a, b Collector
	if Tee(&a, nil) != Sink(&a) {
		t.Error("Tee of one live sink must collapse to it")
	}
	tee := Tee(&a, &b)
	tee.Event(Event{Kind: Restart})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("fan-out: a=%d b=%d events, want 1 each", len(a.Events()), len(b.Events()))
	}
}

func TestGuardedDisablesOnPanic(t *testing.T) {
	if Guarded(nil) != nil {
		t.Error("Guarded(nil) must stay nil")
	}
	calls := 0
	g := Guarded(SinkFunc(func(Event) {
		calls++
		panic("observer bug")
	}))
	g.Event(Event{Kind: RunStart}) // must not unwind into us
	g.Event(Event{Kind: RunStart}) // disabled: no second call
	if calls != 1 {
		t.Errorf("sink called %d times, want 1 (disabled after the panic)", calls)
	}
}

func TestMetricsSnapshotAndMerge(t *testing.T) {
	m := NewMetrics()
	m.Add(CRuns, 2)
	m.Add(CBugs, 1)
	m.Observe(HStepsPerRun, 10)
	m.Observe(HStepsPerRun, 1000)
	s := m.Snapshot()
	if s.Counters[CRuns] != 2 || s.Counters[CBugs] != 1 {
		t.Errorf("counters = %v", s.Counters)
	}
	h := s.Histograms[HStepsPerRun]
	if h.Count != 2 || h.Sum != 1010 {
		t.Errorf("hist count=%d sum=%d, want 2/1010", h.Count, h.Sum)
	}
	// Zero counters and empty histograms are dropped from snapshots.
	if _, ok := s.Histograms[HSolverWork]; ok {
		t.Error("empty histogram must not appear in the snapshot")
	}

	m2 := NewMetrics()
	m2.Add(CRuns, 3)
	m2.Observe(HStepsPerRun, 10)
	s.Merge(m2.Snapshot())
	if s.Counters[CRuns] != 5 {
		t.Errorf("merged runs = %d, want 5", s.Counters[CRuns])
	}
	if h := s.Histograms[HStepsPerRun]; h.Count != 3 || h.Sum != 1020 {
		t.Errorf("merged hist count=%d sum=%d, want 3/1020", h.Count, h.Sum)
	}

	table := s.Table()
	if !strings.Contains(table, CRuns) || !strings.Contains(table, HStepsPerRun) {
		t.Errorf("table rendering missing names:\n%s", table)
	}
}

// feed is a tiny synthetic search: the root run took path "10", the
// solver proved "11" feasible (never executed), "01" infeasible, and
// "00" was abandoned on budget.
func feedTree(t *Tree) {
	t.Event(Event{Kind: RunEnd, Path: "10", Outcome: "halt"})
	t.Event(Event{Kind: SolverCall, Path: "11"})
	t.Event(Event{Kind: SolverVerdict, Verdict: "sat"})
	t.Event(Event{Kind: SolverCall, Path: "01"})
	t.Event(Event{Kind: SolverVerdict, Verdict: "unsat"})
	t.Event(Event{Kind: SolverCall, Path: "00"})
	t.Event(Event{Kind: SolverVerdict, Verdict: "budget-exhausted"})
}

func TestTreeReconstruction(t *testing.T) {
	tr := NewTree(0)
	feedTree(tr)
	b, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Nodes int `json:"nodes"`
		Tree  []struct {
			Path    string `json:"path"`
			Status  string `json:"status"`
			Runs    int    `json:"runs"`
			Outcome string `json:"outcome"`
		} `json:"tree"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"":   StatusDone,
		"1":  StatusDone,
		"10": StatusDone,
		"11": StatusPending,
		"0":  "", // materialized only as a parent; never classified
		"01": StatusInfeasible,
		"00": StatusAbandoned,
	}
	got := map[string]string{}
	for _, n := range dump.Tree {
		got[n.Path] = n.Status
		if n.Path == "10" && n.Outcome != "halt" {
			t.Errorf("leaf outcome = %q, want halt", n.Outcome)
		}
	}
	for path, status := range want {
		if got[path] != status {
			t.Errorf("node %q status = %q, want %q", path, got[path], status)
		}
	}
	// A later run down a pending path upgrades it to done.
	tr.Event(Event{Kind: RunEnd, Path: "11", Outcome: "abort"})
	b, _ = tr.JSON()
	if !strings.Contains(string(b), `"path": "11",
      "status": "done"`) {
		// Re-check structurally rather than failing on formatting.
		var d2 struct {
			Tree []struct{ Path, Status string } `json:"tree"`
		}
		json.Unmarshal(b, &d2)
		ok := false
		for _, n := range d2.Tree {
			if n.Path == "11" && n.Status == StatusDone {
				ok = true
			}
		}
		if !ok {
			t.Errorf("path 11 not upgraded to done:\n%s", b)
		}
	}

	dot := string(tr.DOT())
	for _, frag := range []string{"digraph dart", "palegreen", "lightgray", "lightsalmon", `label="0"`, `label="1"`} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q:\n%s", frag, dot)
		}
	}
}

// An audit fans one Tee out to several sinks from every worker at
// once; the fan-out must deliver every event to every sink without
// corruption.
func TestTeeConcurrentEmit(t *testing.T) {
	var a, b Collector
	tee := Tee(&a, &b)
	const workers, events = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				tee.Event(Event{Kind: RunStart, Run: i, Depth: w})
			}
		}(w)
	}
	wg.Wait()
	if len(a.Events()) != workers*events || len(b.Events()) != workers*events {
		t.Errorf("fan-out lost events: a=%d b=%d, want %d each",
			len(a.Events()), len(b.Events()), workers*events)
	}
}

// Guarded must disable a panicking sink exactly once even when many
// goroutines hit the panic simultaneously, and never unwind into any
// of them.
func TestGuardedConcurrentPanic(t *testing.T) {
	var calls int64
	g := Guarded(SinkFunc(func(Event) {
		atomic.AddInt64(&calls, 1)
		panic("observer bug")
	}))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.Event(Event{Kind: RunStart, Run: i})
			}
		}()
	}
	wg.Wait()
	// Several goroutines may race into the sink before the first panic
	// flips the disable switch, but the count must stay far below the
	// 800 total emits and no panic may have escaped.
	if got := atomic.LoadInt64(&calls); got < 1 || got > 8 {
		t.Errorf("panicking sink called %d times, want 1..8", got)
	}
}

// Tree is documented as safe for concurrent use: audit workers all emit
// into one tree.  Hammer it and check the node count stays coherent.
func TestTreeConcurrentEmit(t *testing.T) {
	tr := NewTree(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feedTree(tr)
		}()
	}
	wg.Wait()
	// All workers feed identical paths, so the tree is the same 7-node
	// shape as a single feed, with runs summed.
	if tr.Nodes() != 7 {
		t.Errorf("concurrent feeds built %d nodes, want 7", tr.Nodes())
	}
	b, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Tree []struct {
			Path string `json:"path"`
			Runs int    `json:"runs"`
		} `json:"tree"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatal(err)
	}
	for _, n := range dump.Tree {
		if n.Path == "10" && n.Runs != 8 {
			t.Errorf("leaf runs = %d, want 8", n.Runs)
		}
	}
}

// Metrics.Fold must fold an event stream into exactly the counters the
// engine's own registry would have recorded at the same emit sites.
func TestMetricsFold(t *testing.T) {
	m := NewMetrics()
	feed := []Event{
		{Kind: RunStart, Run: 1},
		{Kind: RunEnd, Run: 1, Steps: 10},
		{Kind: Restart},
		{Kind: Misprediction},
		{Kind: BranchFlip},
		{Kind: SolverCall, PCLen: 3, Depth: 2},
		{Kind: SolverVerdict, Verdict: "sat", Work: 5},
		{Kind: SolverCall, PCLen: 1, Depth: 1},
		{Kind: SolverVerdict, Verdict: "unsat", Work: 2},
		{Kind: SolverCall, PCLen: 2, Depth: 1},
		{Kind: SolverVerdict, Verdict: "budget-exhausted", Work: 9},
		{Kind: BugFound, Msg: "boom"},
		{Kind: FallbackConcrete, Flag: "all_linear"},
		{Kind: FallbackConcrete, Flag: "all_locs_definite"},
	}
	for i := range feed {
		m.Fold(&feed[i])
	}
	s := m.Snapshot()
	wantCounters := map[string]int64{
		CRuns: 1, CRestarts: 1, CMispredicts: 1, CBranchFlips: 1,
		CSolverSat: 1, CSolverUnsat: 1, CSolverBudget: 1,
		CBugs: 1, CFallbackLinear: 1, CFallbackLocs: 1,
	}
	for name, want := range wantCounters {
		if s.Counters[name] != want {
			t.Errorf("counter %s = %d, want %d", name, s.Counters[name], want)
		}
	}
	if h := s.Histograms[HStepsPerRun]; h.Count != 1 || h.Sum != 10 {
		t.Errorf("steps hist count=%d sum=%d, want 1/10", h.Count, h.Sum)
	}
	if h := s.Histograms[HPCLen]; h.Count != 3 || h.Sum != 6 {
		t.Errorf("pc_len hist count=%d sum=%d, want 3/6", h.Count, h.Sum)
	}
	if h := s.Histograms[HSolverWork]; h.Count != 3 || h.Sum != 16 {
		t.Errorf("solver work hist count=%d sum=%d, want 3/16", h.Count, h.Sum)
	}
	// Snapshot must be a frozen copy: later events don't leak into it.
	m.Fold(&Event{Kind: RunEnd, Steps: 1})
	if s.Counters[CRuns] != 1 {
		t.Error("snapshot mutated by a later event")
	}
}

// TestTreeInterleavedStreams: two engines' solves interleave on one
// stream (an audit's functions, the job server's jobs, the frontier
// engine's workers), and each verdict marks its own stream's target.
func TestTreeInterleavedStreams(t *testing.T) {
	streams := []struct {
		name string
		f, g Event
	}{
		{"functions", Event{Fn: "f"}, Event{Fn: "g"}},
		{"jobs", Event{Job: "j1", Fn: "f"}, Event{Job: "j2", Fn: "f"}},
		{"workers", Event{Fn: "f", Worker: 1}, Event{Fn: "f", Worker: 2}},
	}
	for _, st := range streams {
		tr := NewTree(0)
		ev := func(base Event, kind Kind, path, verdict string, work int64) {
			base.Kind, base.Path, base.Verdict, base.Work = kind, path, verdict, work
			tr.Event(base)
		}
		ev(st.f, SolverCall, "0", "", 0)
		ev(st.g, SolverCall, "1", "", 0)
		ev(st.f, SolverVerdict, "", "unsat", 5)
		ev(st.g, SolverVerdict, "", "sat", 7)
		for _, want := range []struct {
			path, status string
			work         int64
		}{{"0", StatusInfeasible, 5}, {"1", StatusPending, 7}} {
			n := tr.root.children[want.path[0]-'0']
			if n == nil {
				t.Errorf("%s: node %q never made", st.name, want.path)
				continue
			}
			if n.status != want.status || n.work != want.work {
				t.Errorf("%s: node %q is %q with work %d, want %q with work %d",
					st.name, want.path, n.status, n.work, want.status, want.work)
			}
		}
	}
}

func TestTreeTruncationCap(t *testing.T) {
	tr := NewTree(4)
	tr.Event(Event{Kind: RunEnd, Path: "0000000000", Outcome: "halt"})
	b, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"truncated": true`) {
		t.Errorf("over-cap dump not marked truncated:\n%s", b)
	}
	if tr.Nodes() > 4 {
		t.Errorf("nodes = %d, beyond the cap of 4", tr.Nodes())
	}
}
