// The coverage explainer: per-branch-site "why not covered" accounting.
//
// A search that ends at 83% branch coverage owes an answer for the
// other 17%.  The explainer collects, per branch site and per branch
// direction, every terminal fate a flip attempt met — solver-proven
// infeasible, solver budget exhausted, theory fallback at the branch,
// frontier truncation, depth cap, post-solve divergence — and resolves
// each uncovered direction to exactly one reason at presentation time
// (Resolve), so covered + every reason bucket always accounts for 100%
// of the program's branch directions.  No silent "unknown" bucket: a
// reached direction with no recorded cause is honestly "not-attempted"
// (the search stopped with the flip still pending), and a direction
// whose site no run ever touched is "never-reached".
//
// Like the cost profiler (profile.go) the collector follows the
// nil-receiver no-op discipline and is single-goroutine; cross-worker
// aggregation merges snapshots.  Determinism contract (the PR 5/PR 7
// two-plane split): the cause ledger is an exact function of the seed
// on tree-exhausting searches — byte-identical at -workers 1/2/8 —
// while the run-indexed Timeline is honest schedule texture (which run
// finished k-th depends on the schedule) and is excluded from
// byte-comparisons.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Terminal reasons an uncovered branch direction can carry.  The first
// eight are the ledger's recorded causes; the last two are resolution
// fallbacks that keep the accounting total (they are named buckets,
// never a silent remainder).
const (
	// ReasonNeverReached: no run's path ever executed the branch site,
	// so neither direction was observed — the directed search never
	// built a path constraint reaching it (a frontier gap).
	ReasonNeverReached = "never-reached"
	// ReasonSolverUnsat: every concluded flip attempt at this direction
	// was proven infeasible (Fig. 5's infeasible path constraint); the
	// recorded unsat slice shows one such proof.
	ReasonSolverUnsat = "solver-unsat"
	// ReasonSolverBudget: a flip attempt exhausted the solver's work
	// budget — feasibility undecided, completeness honestly lost.
	ReasonSolverBudget = "solver-budget"
	// ReasonNonlinearFallback: the branch condition left the linear
	// theory (all_linear cleared at this site), so its predicate could
	// not be negated (Sec. 2.5 / Theorem 1 regime boundary).
	ReasonNonlinearFallback = "nonlinear-fallback"
	// ReasonPointerFallback: the branch condition depended on memory
	// whose location was not definite (all_locs_definite cleared at
	// this site); the flip was abandoned.
	ReasonPointerFallback = "pointer-fallback"
	// ReasonFrontierDropped: a pending flip targeting this direction
	// was truncated on MaxFrontier overflow — an abandoned subtree.
	ReasonFrontierDropped = "frontier-dropped"
	// ReasonDepthLimit: the flip sat beyond the configured branch-depth
	// cap and was never attempted.
	ReasonDepthLimit = "depth-limit"
	// ReasonMispredict: the flip solved sat, but the resulting run
	// diverged from the predicted path before reaching the site
	// (Fig. 4's cleared forcing_ok).
	ReasonMispredict = "mispredict-diverged"
	// ReasonConcreteCond: the branch condition was concrete (no input
	// dependence) on every observed path, so there is no predicate to
	// flip.
	ReasonConcreteCond = "concrete-cond"
	// ReasonNotAttempted: the site was reached and the flip was still
	// pending when the search stopped short of exhaustion (run budget,
	// deadline, first-bug stop).
	ReasonNotAttempted = "not-attempted"
)

// ReasonPrecedence orders the reasons from most to least load-bearing:
// an uncovered direction with several recorded causes resolves to the
// earliest one here.  Search-gave-up causes (divergence, truncation,
// depth cap, theory fallbacks) outrank solver verdicts, because a
// direction the search abandoned might still be coverable — only when
// nothing interfered may "every attempt was unsat" stand as the
// verdict.  The two resolution fallbacks close the list.
var ReasonPrecedence = []string{
	ReasonMispredict,
	ReasonFrontierDropped,
	ReasonDepthLimit,
	ReasonPointerFallback,
	ReasonNonlinearFallback,
	ReasonSolverBudget,
	ReasonSolverUnsat,
	ReasonConcreteCond,
	ReasonNotAttempted,
	ReasonNeverReached,
}

// DirCause is the raw tally of terminal fates recorded against one
// branch direction of one site.  All counters are deterministic
// functions of the seed on tree-exhausting searches.
type DirCause struct {
	// Attempts counts solver calls targeting this direction (every
	// verdict, sat included).
	Attempts int64 `json:"attempts,omitempty"`
	// Unsat / Budget split the non-sat verdicts.
	Unsat  int64 `json:"unsat,omitempty"`
	Budget int64 `json:"budget,omitempty"`
	// Mispredicts counts sat flips whose run diverged before the site.
	Mispredicts int64 `json:"mispredicts,omitempty"`
	// Dropped counts pending flips truncated on frontier overflow.
	Dropped int64 `json:"dropped,omitempty"`
	// DepthLimit counts flips skipped beyond the branch-depth cap.
	DepthLimit int64 `json:"depth_limit,omitempty"`
	// Nonlinear / Pointer / Concrete count branch occurrences whose
	// condition carried no flippable predicate, split by why.
	Nonlinear int64 `json:"nonlinear,omitempty"`
	Pointer   int64 `json:"pointer,omitempty"`
	Concrete  int64 `json:"concrete,omitempty"`
	// UnsatSlice is one infeasibility proof: the lexicographically
	// smallest rendering of an unsat path-constraint slice recorded at
	// this direction (min-lex keeps the pick schedule-independent).
	UnsatSlice string `json:"unsat_slice,omitempty"`
}

func (d *DirCause) merge(o *DirCause) {
	d.Attempts += o.Attempts
	d.Unsat += o.Unsat
	d.Budget += o.Budget
	d.Mispredicts += o.Mispredicts
	d.Dropped += o.Dropped
	d.DepthLimit += o.DepthLimit
	d.Nonlinear += o.Nonlinear
	d.Pointer += o.Pointer
	d.Concrete += o.Concrete
	if o.UnsatSlice != "" && (d.UnsatSlice == "" || o.UnsatSlice < d.UnsatSlice) {
		d.UnsatSlice = o.UnsatSlice
	}
}

// empty reports whether no cause was ever recorded.
func (d *DirCause) empty() bool {
	return d.Attempts == 0 && d.Mispredicts == 0 && d.Dropped == 0 &&
		d.DepthLimit == 0 && d.Nonlinear == 0 && d.Pointer == 0 && d.Concrete == 0
}

// SiteCause is the raw ledger entry for one branch site: the cause
// tallies of both directions.  Site is the machine's global branch-site
// index; Pos its source position, which the engine stamps from the
// program's site table when the search finishes.
type SiteCause struct {
	Site     int      `json:"site"`
	Pos      string   `json:"pos,omitempty"`
	Taken    DirCause `json:"taken"`
	NotTaken DirCause `json:"not_taken"`
}

func (s *SiteCause) dir(taken bool) *DirCause {
	if taken {
		return &s.Taken
	}
	return &s.NotTaken
}

// Explain is one worker's cause collector.  Like *Profile, a nil
// *Explain is a valid no-op collector — every method nil-checks — and
// an Explain is owned by a single goroutine; workers aggregate by
// merging snapshots.
type Explain struct {
	worker int
	sites  map[int]*SiteCause
}

// NewExplain returns an empty collector for one worker.
func NewExplain(worker int) *Explain {
	return &Explain{worker: worker, sites: make(map[int]*SiteCause)}
}

func (e *Explain) site(site int) *SiteCause {
	s := e.sites[site]
	if s == nil {
		s = &SiteCause{Site: site}
		e.sites[site] = s
	}
	return s
}

// RecordSolve records one concluded flip attempt targeting the given
// direction: every verdict counts an attempt; "unsat" and
// "budget-exhausted" are tallied as terminal causes, and an unsat
// verdict may carry the rendered slice that proved infeasibility
// (min-lex kept).  No-op on nil.
func (e *Explain) RecordSolve(site int, taken bool, verdict, unsatSlice string) {
	if e == nil {
		return
	}
	d := e.site(site).dir(taken)
	d.Attempts++
	switch verdict {
	case "unsat":
		d.Unsat++
		if unsatSlice != "" && (d.UnsatSlice == "" || unsatSlice < d.UnsatSlice) {
			d.UnsatSlice = unsatSlice
		}
	case "budget-exhausted":
		d.Budget++
	}
}

// RecordFallback records a branch occurrence whose condition carried no
// flippable predicate; taken is the direction the flip would have
// targeted, kind one of "nonlinear", "pointer", "concrete".  No-op on
// nil.
func (e *Explain) RecordFallback(site int, taken bool, kind string) {
	if e == nil {
		return
	}
	d := e.site(site).dir(taken)
	switch kind {
	case "nonlinear":
		d.Nonlinear++
	case "pointer":
		d.Pointer++
	default:
		d.Concrete++
	}
}

// RecordMispredict records a sat flip whose run diverged before
// reaching the target site.  No-op on nil.
func (e *Explain) RecordMispredict(site int, taken bool) {
	if e == nil {
		return
	}
	e.site(site).dir(taken).Mispredicts++
}

// RecordDropped records a pending flip truncated on frontier overflow.
// No-op on nil.
func (e *Explain) RecordDropped(site int, taken bool) {
	if e == nil {
		return
	}
	e.site(site).dir(taken).Dropped++
}

// RecordDepthLimit records a flip skipped beyond the branch-depth cap.
// No-op on nil.
func (e *Explain) RecordDepthLimit(site int, taken bool) {
	if e == nil {
		return
	}
	e.site(site).dir(taken).DepthLimit++
}

// Snapshot freezes the collector into mergeable plain data, sorted by
// site index.  Nil receivers yield nil.
func (e *Explain) Snapshot() *ExplainSnapshot {
	if e == nil {
		return nil
	}
	snap := &ExplainSnapshot{Workers: 1}
	for _, s := range e.sites {
		snap.Sites = append(snap.Sites, *s)
	}
	snap.sort()
	return snap
}

// ExplainSnapshot is an immutable, mergeable cause ledger plus the
// search's run-indexed timeline.  The Sites ledger is the deterministic
// plane; Timeline and Stalls are honest schedule texture — a parallel
// search's k-th completed run depends on the schedule — and are
// excluded from cross-worker byte comparisons (and from merges:
// timelines are per-search, so Merge sums Stalls but never splices
// Timeline rings together).
type ExplainSnapshot struct {
	// Workers is the number of per-worker ledgers merged in.
	Workers int         `json:"workers,omitempty"`
	Sites   []SiteCause `json:"sites,omitempty"`
	// Timeline is the search's coverage-progress ring (per-search only;
	// dropped by Merge).
	Timeline []TimelineSample `json:"timeline,omitempty"`
	// Stalls counts plateau events the stall detector fired.
	Stalls int64 `json:"stalls,omitempty"`
}

func (s *ExplainSnapshot) sort() {
	sort.Slice(s.Sites, func(i, j int) bool { return s.Sites[i].Site < s.Sites[j].Site })
}

// Merge folds o's ledger into s, summing causes by site index — the
// explainer analog of the PR 5 report merge, so a parallel (or
// whole-audit) ledger is the same bag of tallies no matter how the
// work was divided.  o's Timeline is per-search data and is not
// merged; Stalls are summed.  A nil o is a no-op.
func (s *ExplainSnapshot) Merge(o *ExplainSnapshot) {
	if o == nil {
		return
	}
	s.Workers += o.Workers
	s.Stalls += o.Stalls
	// The map holds indices, never pointers: appending to s.Sites may
	// reallocate its backing array, and a stale pointer would silently
	// drop every later update to an already-known site.
	sites := make(map[int]int, len(s.Sites))
	for i := range s.Sites {
		sites[s.Sites[i].Site] = i
	}
	for _, o := range o.Sites {
		i, ok := sites[o.Site]
		if !ok {
			sites[o.Site] = len(s.Sites)
			s.Sites = append(s.Sites, o)
			continue
		}
		dst := &s.Sites[i]
		dst.Taken.merge(&o.Taken)
		dst.NotTaken.merge(&o.NotTaken)
	}
	s.sort()
}

// ExplainSiteRef locates one branch site of the program under test for
// resolution: the site universe, independent of what the search
// touched.  Fn is the function containing the site.
type ExplainSiteRef struct {
	Site int
	Fn   string
	Pos  string
}

// DirOutcome is one branch direction's resolved verdict: covered, or
// exactly one terminal reason.  Deliberately verdict-only: raw attempt
// tallies live in the ledger snapshot, because how many times a flip
// was attempted depends on the engine's path enumeration (classic
// stack vs frontier), while WHICH terminal state each direction ends
// in does not — the resolved report is the byte-comparable plane.
type DirOutcome struct {
	Covered bool   `json:"covered"`
	Reason  string `json:"reason,omitempty"`
	// UnsatSlice carries the infeasibility proof when Reason is
	// solver-unsat and one was recorded.
	UnsatSlice string `json:"unsat_slice,omitempty"`
}

// SiteOutcome is one site's resolved ledger row.
type SiteOutcome struct {
	Site     int        `json:"site"`
	Fn       string     `json:"fn,omitempty"`
	Pos      string     `json:"pos,omitempty"`
	Taken    DirOutcome `json:"taken"`
	NotTaken DirOutcome `json:"not_taken"`
}

// ExplainReport is the resolved coverage explanation: every branch
// direction of the program accounted for as covered or exactly one
// reason bucket.  Directions == Covered + the sum of Buckets, always.
// The report is pure ledger — no timeline, no wall clock — so it is
// byte-identical across worker counts whenever the underlying ledger
// is.
type ExplainReport struct {
	// Directions is the direction universe: 2 × branch sites.
	Directions int `json:"directions"`
	Covered    int `json:"covered"`
	// Buckets maps each reason to its dark-direction count (zero
	// buckets omitted; encoding/json sorts the keys).
	Buckets map[string]int `json:"buckets,omitempty"`
	Sites   []SiteOutcome  `json:"sites,omitempty"`
}

// CoveredPercent is Covered over Directions, in [0,100].
func (r *ExplainReport) CoveredPercent() float64 {
	if r.Directions == 0 {
		return 0
	}
	return 100 * float64(r.Covered) / float64(r.Directions)
}

// Resolve turns the raw ledger into the per-direction verdict over the
// program's full site universe.  covered reports whether a direction
// was executed; a site neither of whose directions was executed was
// never reached (executing a branch always covers one direction, so
// "reached" ⇔ "some direction covered").  For each reached-but-dark
// direction the recorded causes resolve by ReasonPrecedence; a dark
// direction with no recorded cause is "not-attempted".
func (s *ExplainSnapshot) Resolve(sites []ExplainSiteRef, covered func(site int, taken bool) bool) *ExplainReport {
	byCause := make(map[int]*SiteCause)
	if s != nil {
		for i := range s.Sites {
			byCause[s.Sites[i].Site] = &s.Sites[i]
		}
	}
	rep := &ExplainReport{Buckets: make(map[string]int)}
	for _, ref := range sites {
		out := SiteOutcome{Site: ref.Site, Fn: ref.Fn, Pos: ref.Pos}
		cause := byCause[ref.Site]
		tk := covered(ref.Site, true)
		ntk := covered(ref.Site, false)
		reached := tk || ntk
		resolveDir := func(dirCovered, taken bool) DirOutcome {
			rep.Directions++
			if dirCovered {
				rep.Covered++
				return DirOutcome{Covered: true}
			}
			d := DirOutcome{}
			if !reached {
				d.Reason = ReasonNeverReached
			} else {
				var dc *DirCause
				if cause != nil {
					dc = cause.dir(taken)
				} else {
					dc = &DirCause{}
				}
				switch {
				case dc.Mispredicts > 0:
					d.Reason = ReasonMispredict
				case dc.Dropped > 0:
					d.Reason = ReasonFrontierDropped
				case dc.DepthLimit > 0:
					d.Reason = ReasonDepthLimit
				case dc.Pointer > 0:
					d.Reason = ReasonPointerFallback
				case dc.Nonlinear > 0:
					d.Reason = ReasonNonlinearFallback
				case dc.Budget > 0:
					d.Reason = ReasonSolverBudget
				case dc.Unsat > 0:
					d.Reason = ReasonSolverUnsat
					d.UnsatSlice = dc.UnsatSlice
				case dc.Concrete > 0:
					d.Reason = ReasonConcreteCond
				default:
					d.Reason = ReasonNotAttempted
				}
			}
			rep.Buckets[d.Reason]++
			return d
		}
		out.Taken = resolveDir(tk, true)
		out.NotTaken = resolveDir(ntk, false)
		rep.Sites = append(rep.Sites, out)
	}
	if len(rep.Buckets) == 0 {
		rep.Buckets = nil
	}
	return rep
}

// dirLabel names a direction in human output.
func dirLabel(taken bool) string {
	if taken {
		return "taken"
	}
	return "not-taken"
}

// Table renders the explanation for humans: the bucket summary, then
// up to maxRows uncovered directions with their reasons (0 = all).
func (r *ExplainReport) Table(maxRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "coverage explanation: %d/%d branch directions covered (%.1f%%)\n",
		r.Covered, r.Directions, r.CoveredPercent())
	for _, reason := range ReasonPrecedence {
		if n := r.Buckets[reason]; n > 0 {
			fmt.Fprintf(&b, "  %-20s %6d\n", reason, n)
		}
	}
	type row struct {
		site    int
		fn, pos string
		dir     string
		out     *DirOutcome
	}
	var rows []row
	for i := range r.Sites {
		s := &r.Sites[i]
		for _, dir := range []struct {
			taken bool
			out   *DirOutcome
		}{{true, &s.Taken}, {false, &s.NotTaken}} {
			if !dir.out.Covered {
				rows = append(rows, row{s.Site, s.Fn, s.Pos, dirLabel(dir.taken), dir.out})
			}
		}
	}
	if len(rows) == 0 {
		return b.String()
	}
	shown := rows
	if maxRows > 0 && len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	fmt.Fprintf(&b, "uncovered directions (%d):\n", len(rows))
	fmt.Fprintf(&b, "  %-22s %5s %-10s %-20s %s\n", "POS (FN)", "SITE", "DIR", "REASON", "DETAIL")
	for _, rw := range shown {
		label := rw.pos
		if rw.fn != "" {
			label += " (" + rw.fn + ")"
		}
		detail := rw.out.UnsatSlice
		fmt.Fprintf(&b, "  %-22s %5d %-10s %-20s %s\n", label, rw.site, rw.dir, rw.out.Reason, detail)
	}
	if len(shown) < len(rows) {
		fmt.Fprintf(&b, "  ... %d more\n", len(rows)-len(shown))
	}
	return b.String()
}

// Timeline defaults (used when the search enables the explainer
// without configuring them).
const (
	// DefaultTimelineEvery samples the timeline every N completed runs.
	DefaultTimelineEvery = 16
	// DefaultTimelineCap bounds the sample ring.
	DefaultTimelineCap = 64
	// DefaultStallWindow is the plateau window in runs: a stall event
	// fires each time coverage has not moved for a full window.
	DefaultStallWindow = 256
)

// TimelineSample is one ring entry: the search's progress after Run
// completed runs.  Run counts are wall-clock free, but which run
// completes k-th under a parallel schedule is not deterministic — the
// timeline is the honest plane, excluded from byte comparisons.
type TimelineSample struct {
	Run int64 `json:"run"`
	// Covered is the branch-direction count covered so far.
	Covered int `json:"covered"`
	// Frontier is the pending-flip backlog at the sample.
	Frontier int `json:"frontier"`
	// Solves is the cumulative solver-call count.
	Solves int64 `json:"solves"`
}

// TimelineStall describes one fired plateau event.
type TimelineStall struct {
	// Run is the completed-run count when the stall fired.
	Run int64
	// Covered is the covered-direction count that has not moved.
	Covered int
	// Window is the configured plateau window (runs).
	Window int64
	// Since is how many runs coverage has been flat.
	Since int64
}

// Timeline is the search's run-indexed progress ring plus the
// plateau/stall detector.  Unlike the Explain collector it is shared —
// parallel workers tick one global timeline — so it locks internally;
// a nil *Timeline no-ops.  One Tick per completed run; a stall fires
// each time coverage has been flat for a further full window and
// re-arms as soon as coverage moves.
type Timeline struct {
	mu      sync.Mutex
	every   int64
	window  int64
	ringCap int

	runs     int64
	covered  int
	solves   int64
	lastMove int64
	stalls   int64
	ring     []TimelineSample
	next     int // ring write position once full
}

// NewTimeline returns a timeline sampling every `every` runs into a
// ring of ringCap samples, firing a stall per full window of flat
// coverage; window <= 0 disables the detector.  Zero values of
// every/ringCap select the defaults.
func NewTimeline(every, window int64, ringCap int) *Timeline {
	if every <= 0 {
		every = DefaultTimelineEvery
	}
	if ringCap <= 0 {
		ringCap = DefaultTimelineCap
	}
	return &Timeline{every: every, window: window, ringCap: ringCap}
}

// Tick records one completed run: how many branch directions it newly
// covered, the pending-flip backlog, and how many solver calls it
// performed.  When the tick completes a full window of flat coverage
// it returns the fired stall with ok=true; the caller (the ticking
// worker, on its own goroutine) emits the event, keeping per-worker
// registries race-free.  No-op on nil.
func (t *Timeline) Tick(newlyCovered, frontier int, solves int64) (stall TimelineStall, ok bool) {
	if t == nil {
		return TimelineStall{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	t.covered += newlyCovered
	t.solves += solves
	if newlyCovered > 0 {
		t.lastMove = t.runs
	}
	if t.window > 0 {
		if since := t.runs - t.lastMove; since > 0 && since%t.window == 0 {
			t.stalls++
			stall, ok = TimelineStall{Run: t.runs, Covered: t.covered, Window: t.window, Since: since}, true
		}
	}
	if t.runs%t.every == 0 {
		t.push(TimelineSample{Run: t.runs, Covered: t.covered, Frontier: frontier, Solves: t.solves})
	}
	return stall, ok
}

// push appends into the bounded ring, overwriting the oldest sample
// once full.  Caller holds mu.
func (t *Timeline) push(s TimelineSample) {
	if len(t.ring) < t.ringCap {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % t.ringCap
}

// Stalls returns how many plateau events have fired.
func (t *Timeline) Stalls() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stalls
}

// Stamp writes the timeline (in run order, with a final sample for the
// current state when the ring does not already end there) and the
// stall count onto snap.  No-op on a nil timeline or snapshot.
func (t *Timeline) Stamp(snap *ExplainSnapshot) {
	if t == nil || snap == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TimelineSample, 0, len(t.ring)+1)
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	if t.runs > 0 && (len(out) == 0 || out[len(out)-1].Run != t.runs) {
		out = append(out, TimelineSample{Run: t.runs, Covered: t.covered, Frontier: 0, Solves: t.solves})
	}
	snap.Timeline = out
	snap.Stalls = t.stalls
}
