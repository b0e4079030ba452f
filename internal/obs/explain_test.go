package obs

import (
	"strings"
	"testing"
)

// TestExplainNilNoop: the nil collector obeys the package's no-op
// discipline — every Record* method and Snapshot are safe on nil.
func TestExplainNilNoop(t *testing.T) {
	var e *Explain
	e.RecordSolve(1, true, "unsat", "x > 0")
	e.RecordFallback(1, false, "nonlinear")
	e.RecordMispredict(2, true)
	e.RecordDropped(2, false)
	e.RecordDepthLimit(3, true)
	if snap := e.Snapshot(); snap != nil {
		t.Fatalf("nil collector snapshot = %+v, want nil", snap)
	}
	var tl *Timeline
	if _, ok := tl.Tick(1, 0, 1); ok {
		t.Fatal("nil timeline fired a stall")
	}
	tl.Stamp(&ExplainSnapshot{})
	if tl.Stalls() != 0 {
		t.Fatal("nil timeline reported stalls")
	}
}

// TestExplainRecordSnapshot: verdict tallies land on the right
// direction, the min-lex unsat slice wins, and the snapshot is sorted
// by site index.
func TestExplainRecordSnapshot(t *testing.T) {
	e := NewExplain(0)
	e.RecordSolve(7, true, "unsat", "(b)")
	e.RecordSolve(7, true, "unsat", "(a)")
	e.RecordSolve(7, true, "sat", "")
	e.RecordSolve(3, false, "budget-exhausted", "")
	e.RecordFallback(3, true, "pointer")
	e.RecordMispredict(3, false)

	snap := e.Snapshot()
	if snap == nil || snap.Workers != 1 {
		t.Fatalf("snapshot = %+v, want Workers=1", snap)
	}
	if len(snap.Sites) != 2 || snap.Sites[0].Site != 3 || snap.Sites[1].Site != 7 {
		t.Fatalf("sites not sorted by index: %+v", snap.Sites)
	}
	s7 := snap.Sites[1]
	if s7.Taken.Attempts != 3 || s7.Taken.Unsat != 2 {
		t.Errorf("site 7 taken = %+v, want attempts 3, unsat 2", s7.Taken)
	}
	if s7.Taken.UnsatSlice != "(a)" {
		t.Errorf("unsat slice = %q, want min-lex \"(a)\"", s7.Taken.UnsatSlice)
	}
	s3 := snap.Sites[0]
	if s3.NotTaken.Budget != 1 || s3.NotTaken.Mispredicts != 1 || s3.Taken.Pointer != 1 {
		t.Errorf("site 3 = %+v", s3)
	}
}

// TestExplainSnapshotMerge: merging sums per-direction causes by site
// index, keeps the min-lex slice, appends unseen sites sorted, and
// never splices timelines (per-search data) while summing stalls.
// The append-then-update sequence exercises the index-map discipline:
// a site first appended by this very merge must still receive later
// updates after the backing array reallocates.
func TestExplainSnapshotMerge(t *testing.T) {
	base := &ExplainSnapshot{
		Workers: 1,
		Stalls:  2,
		Sites: []SiteCause{
			{Site: 5, Pos: "5:1", Taken: DirCause{Attempts: 1, Unsat: 1, UnsatSlice: "(z)"}},
		},
		Timeline: []TimelineSample{{Run: 16, Covered: 3}},
	}
	other := &ExplainSnapshot{
		Workers: 2,
		Stalls:  1,
		Sites: []SiteCause{
			{Site: 2, Taken: DirCause{Attempts: 4}},
			{Site: 5, Taken: DirCause{Attempts: 2, Unsat: 2, UnsatSlice: "(a)"}, NotTaken: DirCause{Dropped: 1}},
			{Site: 9, NotTaken: DirCause{DepthLimit: 3}},
		},
		Timeline: []TimelineSample{{Run: 32, Covered: 1}},
	}
	base.Merge(other)
	base.Merge(nil) // no-op

	if base.Workers != 3 || base.Stalls != 3 {
		t.Errorf("workers/stalls = %d/%d, want 3/3", base.Workers, base.Stalls)
	}
	if len(base.Timeline) != 1 || base.Timeline[0].Run != 16 {
		t.Errorf("merge spliced timelines: %+v", base.Timeline)
	}
	want := []int{2, 5, 9}
	if len(base.Sites) != len(want) {
		t.Fatalf("sites = %+v, want indices %v", base.Sites, want)
	}
	for i, w := range want {
		if base.Sites[i].Site != w {
			t.Fatalf("sites not sorted after merge: %+v", base.Sites)
		}
	}
	s5 := base.Sites[1]
	if s5.Taken.Attempts != 3 || s5.Taken.Unsat != 3 || s5.Taken.UnsatSlice != "(a)" {
		t.Errorf("site 5 taken after merge = %+v", s5.Taken)
	}
	if s5.NotTaken.Dropped != 1 || s5.Pos != "5:1" {
		t.Errorf("site 5 after merge = %+v", s5)
	}
}

// TestExplainResolvePrecedence: a direction carrying several recorded
// causes resolves to the highest-precedence one; each uncovered
// direction lands in exactly one bucket and the totals always close.
func TestExplainResolvePrecedence(t *testing.T) {
	snap := &ExplainSnapshot{Sites: []SiteCause{
		// mispredict outranks everything else recorded.
		{Site: 0, NotTaken: DirCause{Attempts: 5, Unsat: 3, Budget: 1, Mispredicts: 1, Dropped: 1}},
		// dropped outranks depth/fallback/solver.
		{Site: 1, NotTaken: DirCause{Attempts: 2, Unsat: 2, Dropped: 1, DepthLimit: 1}},
		// pure unsat with a slice.
		{Site: 2, NotTaken: DirCause{Attempts: 2, Unsat: 2, UnsatSlice: "(y < 0)"}},
		// budget beats unsat.
		{Site: 3, NotTaken: DirCause{Attempts: 2, Unsat: 1, Budget: 1}},
		// concrete condition.
		{Site: 4, NotTaken: DirCause{Concrete: 2}},
		// site 5: no causes at all → not-attempted.
	}}
	refs := make([]ExplainSiteRef, 7)
	for i := range refs {
		refs[i] = ExplainSiteRef{Site: i, Fn: "f"}
	}
	// Sites 0..5 have taken covered only; site 6 was never reached.
	covered := func(site int, taken bool) bool { return site != 6 && taken }

	rep := snap.Resolve(refs, covered)
	if rep.Directions != 14 || rep.Covered != 6 {
		t.Fatalf("directions/covered = %d/%d, want 14/6", rep.Directions, rep.Covered)
	}
	wantReason := map[int]string{
		0: ReasonMispredict,
		1: ReasonFrontierDropped,
		2: ReasonSolverUnsat,
		3: ReasonSolverBudget,
		4: ReasonConcreteCond,
		5: ReasonNotAttempted,
	}
	for site, want := range wantReason {
		if got := rep.Sites[site].NotTaken.Reason; got != want {
			t.Errorf("site %d not-taken reason = %q, want %q", site, got, want)
		}
	}
	if rep.Sites[2].NotTaken.UnsatSlice != "(y < 0)" {
		t.Errorf("unsat slice not surfaced: %+v", rep.Sites[2].NotTaken)
	}
	// Site 6 was never reached: BOTH directions get never-reached.
	if rep.Sites[6].Taken.Reason != ReasonNeverReached || rep.Sites[6].NotTaken.Reason != ReasonNeverReached {
		t.Errorf("unreached site = %+v", rep.Sites[6])
	}
	sum := rep.Covered
	for _, n := range rep.Buckets {
		sum += n
	}
	if sum != rep.Directions {
		t.Errorf("accounting leak: covered %d + buckets = %d, want %d", rep.Covered, sum, rep.Directions)
	}
	if rep.Buckets[ReasonNeverReached] != 2 || rep.Buckets[ReasonMispredict] != 1 {
		t.Errorf("buckets = %v", rep.Buckets)
	}
}

// TestExplainResolveNilSnapshot: Resolve is nil-receiver safe — every
// direction still resolves (covered, never-reached, or not-attempted).
func TestExplainResolveNilSnapshot(t *testing.T) {
	var snap *ExplainSnapshot
	rep := snap.Resolve([]ExplainSiteRef{{Site: 0}, {Site: 1}}, func(site int, taken bool) bool {
		return site == 0
	})
	if rep.Directions != 4 || rep.Covered != 2 {
		t.Fatalf("directions/covered = %d/%d, want 4/2", rep.Directions, rep.Covered)
	}
	if rep.Buckets[ReasonNeverReached] != 2 {
		t.Errorf("buckets = %v, want 2 never-reached", rep.Buckets)
	}
}

// TestTimelineStallSemantics: the detector fires exactly one stall per
// full flat window, re-arms the moment coverage moves, and stays quiet
// afterward; window <= 0 disables it entirely.
func TestTimelineStallSemantics(t *testing.T) {
	tl := NewTimeline(4, 10, 8)
	fired := 0
	// 25 flat runs: windows close at run 10 and 20 — exactly two.
	for i := 0; i < 25; i++ {
		if _, ok := tl.Tick(0, 0, 1); ok {
			fired++
		}
	}
	if fired != 2 || tl.Stalls() != 2 {
		t.Fatalf("flat 25 runs fired %d stalls (counter %d), want 2", fired, tl.Stalls())
	}
	// Coverage moves: detector re-arms, no stall until 10 MORE flat runs.
	if _, ok := tl.Tick(1, 0, 1); ok {
		t.Fatal("stall fired on a covering run")
	}
	for i := 0; i < 9; i++ {
		if _, ok := tl.Tick(0, 0, 1); ok {
			t.Fatalf("stall fired %d runs after resume, want 10", i+1)
		}
	}
	stall, ok := tl.Tick(0, 0, 1)
	if !ok {
		t.Fatal("no stall after a fresh full flat window")
	}
	if stall.Window != 10 || stall.Since != 10 {
		t.Errorf("stall = %+v, want window 10, since 10", stall)
	}

	// Disabled detector never fires.
	off := NewTimeline(4, 0, 8)
	for i := 0; i < 100; i++ {
		if _, ok := off.Tick(0, 0, 1); ok {
			t.Fatal("disabled detector fired")
		}
	}
}

// TestTimelineRingAndStamp: the ring is bounded, keeps the newest
// samples in run order, and Stamp appends a final sample for the
// current state when the ring does not already end there.
func TestTimelineRingAndStamp(t *testing.T) {
	tl := NewTimeline(2, 0, 3)
	for i := 0; i < 14; i++ {
		tl.Tick(1, i, 1)
	}
	var snap ExplainSnapshot
	tl.Stamp(&snap)
	// Samples at runs 2,4,...,14; ring cap 3 keeps 10,12,14; run 14 is
	// already the last sample so no extra final entry.
	wantRuns := []int64{10, 12, 14}
	if len(snap.Timeline) != len(wantRuns) {
		t.Fatalf("timeline = %+v, want runs %v", snap.Timeline, wantRuns)
	}
	for i, w := range wantRuns {
		if snap.Timeline[i].Run != w {
			t.Fatalf("timeline out of order: %+v", snap.Timeline)
		}
	}
	if last := snap.Timeline[2]; last.Covered != 14 || last.Solves != 14 {
		t.Errorf("last sample = %+v, want covered 14, solves 14", last)
	}

	// One more run off the sampling stride: Stamp adds a final sample.
	tl.Tick(0, 0, 1)
	var snap2 ExplainSnapshot
	tl.Stamp(&snap2)
	if n := len(snap2.Timeline); n != 4 || snap2.Timeline[n-1].Run != 15 {
		t.Fatalf("no final sample for run 15: %+v", snap2.Timeline)
	}
}

// TestExplainReportTable: the human rendering carries the bucket
// summary, one row per uncovered direction, and honest truncation.
func TestExplainReportTable(t *testing.T) {
	snap := &ExplainSnapshot{Sites: []SiteCause{
		{Site: 0, Pos: "3:5", NotTaken: DirCause{Attempts: 1, Unsat: 1, UnsatSlice: "(x > 9)"}},
		{Site: 1, Pos: "4:5", NotTaken: DirCause{Attempts: 1, Budget: 1}},
	}}
	refs := []ExplainSiteRef{{Site: 0, Fn: "f", Pos: "3:5"}, {Site: 1, Fn: "f", Pos: "4:5"}}
	rep := snap.Resolve(refs, func(site int, taken bool) bool { return taken })

	full := rep.Table(0)
	for _, want := range []string{"2/4 branch directions covered (50.0%)",
		ReasonSolverUnsat, ReasonSolverBudget, "(x > 9)", "3:5 (f)"} {
		if !strings.Contains(full, want) {
			t.Errorf("table missing %q:\n%s", want, full)
		}
	}
	trunc := rep.Table(1)
	if !strings.Contains(trunc, "... 1 more") {
		t.Errorf("truncated table missing overflow marker:\n%s", trunc)
	}
}
