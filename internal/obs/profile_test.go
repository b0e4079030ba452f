package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestProfileNilNoOp: a nil *Profile is a valid no-op collector, the
// same contract as *Metrics — call sites never guard recording.
func TestProfileNilNoOp(t *testing.T) {
	var p *Profile
	p.Span(SpanSolve, time.Second)
	p.RecordSolve(3, "sat", 10, 100, "miss")
	p.RecordFlip(3)
	if snap := p.Snapshot(); snap != nil {
		t.Fatalf("nil profile snapshot = %+v, want nil", snap)
	}
}

func TestProfileRecordAndSnapshot(t *testing.T) {
	p := NewProfile("f", 2)
	p.Span(SpanExec, 5*time.Millisecond)
	p.Span(SpanExec, 3*time.Millisecond)
	p.Span(SpanSolve, 2*time.Millisecond)
	p.RecordSolve(1, "sat", 7, 100, "miss")
	p.RecordSolve(1, "unsat", 5, 50, "miss")
	p.RecordSolve(1, "sat", 0, 10, "hit")
	p.RecordSolve(0, "budget-exhausted", 1000, 900, "")
	p.RecordFlip(1)
	p.RecordFlip(1)

	snap := p.Snapshot()
	if snap.Workers != 1 {
		t.Errorf("Workers = %d, want 1", snap.Workers)
	}
	// Phases sorted by name.
	if len(snap.Phases) != 2 || snap.Phases[0].Phase != SpanExec || snap.Phases[1].Phase != SpanSolve {
		t.Fatalf("phases = %+v", snap.Phases)
	}
	if snap.Phases[0].Count != 2 || snap.Phases[0].Nanos != int64(8*time.Millisecond) {
		t.Errorf("exec phase = %+v", snap.Phases[0])
	}
	// Sites sorted by (fn, site) and stamped with the toplevel fn.
	if len(snap.Sites) != 2 || snap.Sites[0].Site != 0 || snap.Sites[1].Site != 1 {
		t.Fatalf("sites = %+v", snap.Sites)
	}
	s1 := snap.Sites[1]
	if s1.Fn != "f" {
		t.Errorf("site 1 identity = %+v", s1)
	}
	if s1.Solves != 3 || s1.SolveNanos != 160 || s1.Work != 12 {
		t.Errorf("site 1 totals = %+v", s1)
	}
	if s1.CacheHits != 1 || s1.CacheMisses != 2 || s1.Sat != 2 || s1.Unsat != 1 || s1.Flips != 2 {
		t.Errorf("site 1 counters = %+v", s1)
	}
	if got := s1.MissRate(); got < 0.66 || got > 0.67 {
		t.Errorf("site 1 miss rate = %v, want 2/3", got)
	}
	s0 := snap.Sites[0]
	if s0.Budget != 1 || s0.CacheHits != 0 || s0.CacheMisses != 0 {
		t.Errorf("site 0 (cache disabled) = %+v", s0)
	}
	if s0.MissRate() != 0 {
		t.Errorf("site 0 miss rate = %v, want 0 (cache never saw it)", s0.MissRate())
	}
}

// TestProfileSnapshotMerge: merging per-worker snapshots sums phases by
// name and sites by (fn, site), and is order-insensitive once timings
// are equal — the determinism contract the parallel search relies on.
func TestProfileSnapshotMerge(t *testing.T) {
	mk := func(worker int) *ProfileSnapshot {
		p := NewProfile("f", worker)
		p.Span(SpanSolve, time.Duration(worker)*time.Millisecond)
		p.RecordSolve(0, "sat", int64(worker), 10, "miss")
		p.RecordFlip(0)
		return p.Snapshot()
	}
	a, b := mk(1), mk(2)

	ab := &ProfileSnapshot{}
	ab.Merge(a)
	ab.Merge(b)
	ba := &ProfileSnapshot{}
	ba.Merge(b)
	ba.Merge(a)

	if ab.Workers != 2 {
		t.Errorf("merged Workers = %d, want 2", ab.Workers)
	}
	if len(ab.Sites) != 1 || ab.Sites[0].Solves != 2 || ab.Sites[0].Work != 3 || ab.Sites[0].Flips != 2 {
		t.Errorf("merged site = %+v", ab.Sites)
	}
	if len(ab.Phases) != 1 || ab.Phases[0].Count != 2 || ab.Phases[0].Nanos != int64(3*time.Millisecond) {
		t.Errorf("merged phase = %+v", ab.Phases)
	}
	// Order-insensitive.
	if len(ba.Sites) != len(ab.Sites) || ba.Sites[0] != ab.Sites[0] || ba.Phases[0] != ab.Phases[0] {
		t.Errorf("merge not commutative: ab=%+v ba=%+v", ab, ba)
	}
	// Merging a nil is a no-op.
	before := len(ab.Sites)
	ab.Merge(nil)
	if len(ab.Sites) != before || ab.Workers != 2 {
		t.Errorf("nil merge mutated snapshot: %+v", ab)
	}
	// Distinct functions stay distinct rows.
	other := NewProfile("g", 1)
	other.RecordSolve(0, "sat", 1, 1, "")
	ab.Merge(other.Snapshot())
	if len(ab.Sites) != 2 || ab.Sites[1].Fn != "g" {
		t.Errorf("cross-fn merge = %+v", ab.Sites)
	}
}

// TestProfileMergeAppendThenUpdate: regression for a lost-update bug —
// when a merge appends an unknown key (reallocating the backing array)
// and then updates a known key, the update must land in the new array,
// not a stale one.  The receiver's slices are at exactly full capacity
// so the first append is guaranteed to reallocate.
func TestProfileMergeAppendThenUpdate(t *testing.T) {
	s := &ProfileSnapshot{
		Phases: []PhaseProfile{{Phase: "solve", Count: 1, Nanos: 10}},
		Sites:  []SiteProfile{{Fn: "f", Site: 5, Solves: 3, Work: 30}},
	}
	// Sorted order puts the unknown keys first, forcing append-before-
	// update inside one Merge call.
	s.Merge(&ProfileSnapshot{
		Phases: []PhaseProfile{{Phase: "exec", Count: 1, Nanos: 1}, {Phase: "solve", Count: 2, Nanos: 20}},
		Sites:  []SiteProfile{{Fn: "a", Site: 0, Solves: 1}, {Fn: "f", Site: 5, Solves: 4, Work: 40}},
	})
	var solve *PhaseProfile
	for i := range s.Phases {
		if s.Phases[i].Phase == "solve" {
			solve = &s.Phases[i]
		}
	}
	if solve == nil || solve.Count != 3 || solve.Nanos != 30 {
		t.Errorf("solve phase after append-then-update merge = %+v", s.Phases)
	}
	var f5 *SiteProfile
	for i := range s.Sites {
		if s.Sites[i].Fn == "f" && s.Sites[i].Site == 5 {
			f5 = &s.Sites[i]
		}
	}
	if f5 == nil || f5.Solves != 7 || f5.Work != 70 {
		t.Errorf("site f/5 after append-then-update merge = %+v", s.Sites)
	}
}

func TestProfileTopSitesAndTable(t *testing.T) {
	p := NewProfile("f", 0)
	p.Span(SpanExec, time.Millisecond)
	p.RecordSolve(0, "sat", 1, 10, "miss")
	p.RecordSolve(1, "sat", 100, 5000, "miss")
	p.RecordSolve(2, "unsat", 50, 2000, "hit")
	snap := p.Snapshot()
	// Positions are the engine's to stamp from its site table.
	for i := range snap.Sites {
		snap.Sites[i].Pos = fmt.Sprintf("%d:%d", i+1, i+1)
	}

	top := snap.TopSites(2)
	if len(top) != 2 || top[0].Site != 1 || top[1].Site != 2 {
		t.Fatalf("TopSites(2) = %+v", top)
	}
	// TopSites must not disturb the snapshot's canonical order.
	if snap.Sites[0].Site != 0 {
		t.Errorf("snapshot reordered by TopSites: %+v", snap.Sites)
	}

	tbl := snap.Table(2)
	for _, want := range []string{"phase breakdown", SpanExec, "top 2 branch sites", "2:2 (f)", "3:3 (f)"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	if strings.Contains(tbl, "1:1") {
		t.Errorf("table shows site beyond top-n:\n%s", tbl)
	}
	// An empty profile still renders the phase header without panicking.
	if tbl := (&ProfileSnapshot{}).Table(5); !strings.Contains(tbl, "phase breakdown") {
		t.Errorf("empty table:\n%s", tbl)
	}
}

// TestLiveProfileFold: the ops-side LiveProfile folds the event stream
// into the same per-site counters the engine-side Profile records —
// minus timing and Pos, which events deliberately never carry.
func TestLiveProfileFold(t *testing.T) {
	l := NewLiveProfile()
	// Site is 1-based on the wire; 0 means "not site-attributed".
	l.Fold(&Event{Kind: SolverVerdict, Fn: "f", Site: 3, Verdict: "sat", Work: 7, Cache: "miss"})
	l.Fold(&Event{Kind: SolverVerdict, Fn: "f", Site: 3, Verdict: "unsat", Work: 2, Cache: "hit"})
	l.Fold(&Event{Kind: SolverVerdict, Fn: "f", Site: 1, Verdict: "budget-exhausted", Work: 100})
	l.Fold(&Event{Kind: BranchFlip, Fn: "f", Site: 3})
	l.Fold(&Event{Kind: SolverVerdict, Fn: "f", Verdict: "sat", Work: 9}) // unattributed: ignored
	l.Fold(&Event{Kind: RunEnd, Fn: "f", Site: 3})                        // wrong kind: ignored

	snap := l.Snapshot()
	if len(snap.Sites) != 2 {
		t.Fatalf("live sites = %+v", snap.Sites)
	}
	s0, s2 := snap.Sites[0], snap.Sites[1]
	if s0.Site != 0 || s0.Budget != 1 || s0.Work != 100 {
		t.Errorf("live site 0 = %+v", s0)
	}
	if s2.Site != 2 || s2.Solves != 2 || s2.Work != 9 || s2.Sat != 1 || s2.Unsat != 1 ||
		s2.CacheHits != 1 || s2.CacheMisses != 1 || s2.Flips != 1 {
		t.Errorf("live site 2 = %+v", s2)
	}
	if s2.SolveNanos != 0 || s2.Pos != "" {
		t.Errorf("live profile leaked timing/pos: %+v", s2)
	}
}

// TestTreeFlame: the cost-weighted flamegraph prunes zero-work subtrees
// and apportions bar widths by cumulative solver work.
func TestTreeFlame(t *testing.T) {
	tr := NewTree(0)
	if got := string(tr.Flame()); !strings.Contains(got, "(no solver work recorded)") {
		t.Fatalf("empty flame:\n%s", got)
	}

	// Two runs carve paths 00 and 01; the solver spends 30 work forcing
	// node "01" and 10 forcing "1".  Node "00" costs nothing and must be
	// pruned from the rendering.
	tr.Event(Event{Kind: RunEnd, Path: "00", Outcome: "halt"})
	tr.Event(Event{Kind: SolverCall, Path: "01"})
	tr.Event(Event{Kind: SolverVerdict, Path: "01", Verdict: "sat", Work: 30})
	tr.Event(Event{Kind: SolverCall, Path: "1"})
	tr.Event(Event{Kind: SolverVerdict, Path: "1", Verdict: "unsat", Work: 10})

	out := string(tr.Flame())
	if !strings.Contains(out, "solver work flamegraph: 40 work total") {
		t.Fatalf("flame header:\n%s", out)
	}
	for _, want := range []string{"(root)", "01", "1 "} {
		if !strings.Contains(out, want) {
			t.Errorf("flame missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for _, ln := range lines[1:] {
		if strings.HasPrefix(strings.TrimSpace(ln), "00") {
			t.Errorf("zero-work subtree not pruned:\n%s", out)
		}
		if !strings.Contains(ln, "#") {
			t.Errorf("flame line without bar: %q", ln)
		}
	}
	// Root accounts for 100% of the work.
	if !strings.Contains(lines[1], "100.0%") {
		t.Errorf("root share: %q", lines[1])
	}
}
