package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span phase names.  A span is one timed region of the search; every
// nanosecond the engine spends lands in exactly one phase (plus the
// queue- and scheduler-side waits, which overlap nothing), so the
// per-phase breakdown is a complete account of where wall time went.
//
// The concrete run and its symbolic shadow are deliberately one fused
// phase (SpanExec): the machine evaluates both in the same instruction
// loop, and timing them separately would require per-instruction
// hooks — exactly the overhead the nil-observer discipline forbids.
const (
	// SpanExec: one concrete execution plus its symbolic shadow
	// (run_DART's "execute P on input", Fig. 2).
	SpanExec = "exec"
	// SpanSlice: independence slicing of the path constraint before a
	// solve (the fast path in front of Fig. 5's solve_path_constraint).
	SpanSlice = "slice"
	// SpanCacheLookup: canonical key construction plus solve-cache
	// probe.
	SpanCacheLookup = "cache_lookup"
	// SpanSolve: the constraint solver proper (Fig. 5).
	SpanSolve = "solve"
	// SpanVerify: re-checking a model (fresh or cached) against the
	// full unsliced path constraint.
	SpanVerify = "verify"
	// SpanFrontierWait: a parallel worker blocked on the frontier
	// scheduler — idle plus steal time, the parallelism tax.
	SpanFrontierWait = "frontier_wait"
	// SpanJobQueueWait: a serve-layer job waiting in the bounded queue
	// between admission and its executor picking it up.
	SpanJobQueueWait = "job_queue_wait"
	// SpanShadow: instruction-level symbolic shadow evaluations, as a
	// pure count (zero nanos — the shadow is fused into SpanExec's wall
	// time).  The compiled engine's taint bitmap makes this
	// pay-as-you-go, so the count is the direct measure of how much
	// shadow work the bitmap saved; the reference interpreter evaluates
	// the shadow unconditionally and records correspondingly more.
	SpanShadow = "shadow_eval"
)

// PhaseProfile is the aggregate cost of one span phase.
type PhaseProfile struct {
	Phase string `json:"phase"`
	// Count is the number of spans recorded in this phase.
	Count int64 `json:"count"`
	// Nanos is their summed wall-clock duration.
	Nanos int64 `json:"nanos"`
}

// SiteProfile is the solver cost attributed to one branch site of one
// function: how often its flips were attempted, what they cost in
// solver work and wall time, and how the cache treated them.  Site is
// the machine's branch-site index (-1 for shape decisions); Pos its
// source position, which the engine stamps from the program's site
// table when the search finishes.
type SiteProfile struct {
	Site int    `json:"site"`
	Pos  string `json:"pos,omitempty"`
	Fn   string `json:"fn,omitempty"`
	// Solves counts solver calls targeting this site (cache hits
	// included); SolveNanos and Work are their summed wall time and
	// solver work units (hits contribute zero work by construction).
	Solves     int64 `json:"solves"`
	SolveNanos int64 `json:"solve_nanos,omitempty"`
	Work       int64 `json:"work,omitempty"`
	// CacheHits + CacheMisses ≤ Solves: disk hits, and solves with the
	// in-memory cache disabled, count as neither.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	Sat         int64 `json:"sat,omitempty"`
	Unsat       int64 `json:"unsat,omitempty"`
	// Budget counts solves abandoned on budget exhaustion — the honest
	// "this site is too hard" signal.
	Budget int64 `json:"budget,omitempty"`
	// Flips counts satisfiable flips actually installed as next inputs.
	Flips int64 `json:"flips,omitempty"`
}

// MissRate is CacheMisses over cache-visible solves, in [0,1]; zero
// when the cache never saw this site.
func (s *SiteProfile) MissRate() float64 {
	seen := s.CacheHits + s.CacheMisses
	if seen == 0 {
		return 0
	}
	return float64(s.CacheMisses) / float64(seen)
}

// ProfileSnapshot is an immutable, mergeable cost profile: the
// per-phase wall breakdown plus per-site solver attribution.  Like
// Metrics.Snapshot it is plain data — safe to serialize, diff, and
// merge across workers or jobs.
//
// Determinism contract (mirrors the PR 5 report merge): every field
// except the *Nanos timings is a deterministic function of the search
// seed, so snapshots taken at different -workers counts agree exactly
// once timing fields are zeroed.  Timings are honest wall clock and
// vary run to run.
type ProfileSnapshot struct {
	// Workers is the number of per-worker profiles merged in.
	Workers int            `json:"workers,omitempty"`
	Phases  []PhaseProfile `json:"phases,omitempty"`
	Sites   []SiteProfile  `json:"sites,omitempty"`
}

// Profile is one worker's span-and-site cost collector.  Like
// *Metrics, a nil *Profile is a valid no-op collector, so call sites
// guard only the timing capture (time.Now) and never the recording
// itself.  A Profile is owned by a single goroutine and unlocked;
// cross-worker aggregation happens by merging snapshots, exactly as
// the parallel search merges reports.
type Profile struct {
	fn     string
	worker int
	phases map[string]*PhaseProfile
	sites  map[int]*SiteProfile
}

// NewProfile returns an empty collector for one worker of a search
// over toplevel function fn.
func NewProfile(fn string, worker int) *Profile {
	return &Profile{
		fn:     fn,
		worker: worker,
		phases: make(map[string]*PhaseProfile),
		sites:  make(map[int]*SiteProfile),
	}
}

// Span records one timed region of phase. No-op on a nil receiver.
func (p *Profile) Span(phase string, d time.Duration) {
	if p == nil {
		return
	}
	ph := p.phases[phase]
	if ph == nil {
		ph = &PhaseProfile{Phase: phase}
		p.phases[phase] = ph
	}
	ph.Count++
	ph.Nanos += int64(d)
}

// AddCount adds n untimed events to phase (Nanos stays zero — used for
// pure counters like SpanShadow). No-op on a nil receiver.
func (p *Profile) AddCount(phase string, n int64) {
	if p == nil || n == 0 {
		return
	}
	ph := p.phases[phase]
	if ph == nil {
		ph = &PhaseProfile{Phase: phase}
		p.phases[phase] = ph
	}
	ph.Count += n
}

// site returns the (lazily created) per-site cell.
func (p *Profile) site(site int) *SiteProfile {
	s := p.sites[site]
	if s == nil {
		s = &SiteProfile{Site: site}
		p.sites[site] = s
	}
	return s
}

// RecordSolve attributes one finished solver call (fresh or cached) to
// a branch site.  verdict is the solver.Verdict string; cache is the
// memo layer that answered ("hit", "disk", "miss", or "" with the
// in-memory cache off); solveNanos is the wall time of the solve span.
// No-op on nil.
func (p *Profile) RecordSolve(site int, verdict string, work, solveNanos int64, cache string) {
	if p == nil {
		return
	}
	s := p.site(site)
	s.book(SolverVerdict, verdict, work, cache)
	s.SolveNanos += solveNanos
}

// RecordFlip attributes one installed branch flip to a site. No-op on
// nil.
func (p *Profile) RecordFlip(site int) {
	if p == nil {
		return
	}
	p.site(site).book(BranchFlip, "", 0, "")
}

// book adds one fact of kind to the row: a SolverVerdict is a finished
// solve with its verdict, work and memo layer, a BranchFlip an
// installed flip; other kinds add nothing.  The engine's Profile and
// the event-fed LiveProfile both book through it, so the two agree on
// every counter but SolveNanos, which events never carry.
func (s *SiteProfile) book(kind Kind, verdict string, work int64, cache string) {
	if kind == BranchFlip {
		s.Flips++
	}
	if kind != SolverVerdict {
		return
	}
	s.Solves++
	s.Work += work
	switch cache {
	case "hit":
		s.CacheHits++
	case "miss":
		s.CacheMisses++
	}
	switch verdict {
	case "sat":
		s.Sat++
	case "unsat":
		s.Unsat++
	case "budget-exhausted":
		s.Budget++
	}
}

// Snapshot freezes the collector into mergeable plain data, stamping
// the function name and sorting deterministically (phases by name,
// sites by function then site index).  Nil receivers yield nil.
func (p *Profile) Snapshot() *ProfileSnapshot {
	if p == nil {
		return nil
	}
	snap := &ProfileSnapshot{Workers: 1}
	for _, ph := range p.phases {
		snap.Phases = append(snap.Phases, *ph)
	}
	for _, s := range p.sites {
		c := *s
		c.Fn = p.fn
		snap.Sites = append(snap.Sites, c)
	}
	snap.sort()
	return snap
}

func (s *ProfileSnapshot) sort() {
	sort.Slice(s.Phases, func(i, j int) bool { return s.Phases[i].Phase < s.Phases[j].Phase })
	sort.Slice(s.Sites, func(i, j int) bool {
		a, b := &s.Sites[i], &s.Sites[j]
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		return a.Site < b.Site
	})
}

// Merge folds o into s, summing phases by name and sites by
// (function, site) — the profile analog of the PR 5 report merge, so
// a parallel search's profile is the same bag of counters no matter
// how the frontier was divided.  A nil o is a no-op.
func (s *ProfileSnapshot) Merge(o *ProfileSnapshot) {
	if o == nil {
		return
	}
	s.Workers += o.Workers
	// The maps hold indices, never pointers: appending to the slices
	// below may reallocate their backing arrays, and a stale pointer
	// would silently drop every later update to an already-known key.
	phases := make(map[string]int, len(s.Phases))
	for i := range s.Phases {
		phases[s.Phases[i].Phase] = i
	}
	for _, ph := range o.Phases {
		if i, ok := phases[ph.Phase]; ok {
			s.Phases[i].Count += ph.Count
			s.Phases[i].Nanos += ph.Nanos
		} else {
			phases[ph.Phase] = len(s.Phases)
			s.Phases = append(s.Phases, ph)
		}
	}
	type key struct {
		fn   string
		site int
	}
	sites := make(map[key]int, len(s.Sites))
	for i := range s.Sites {
		sites[key{s.Sites[i].Fn, s.Sites[i].Site}] = i
	}
	for _, o := range o.Sites {
		i, ok := sites[key{o.Fn, o.Site}]
		if !ok {
			sites[key{o.Fn, o.Site}] = len(s.Sites)
			s.Sites = append(s.Sites, o)
			continue
		}
		dst := &s.Sites[i]
		dst.Solves += o.Solves
		dst.SolveNanos += o.SolveNanos
		dst.Work += o.Work
		dst.CacheHits += o.CacheHits
		dst.CacheMisses += o.CacheMisses
		dst.Sat += o.Sat
		dst.Unsat += o.Unsat
		dst.Budget += o.Budget
		dst.Flips += o.Flips
	}
	s.sort()
}

// TopSites returns the n costliest sites, ranked by solve wall time,
// then solver work, then (fn, site) for a deterministic tail order.
// The snapshot itself stays in canonical (fn, site) order.
func (s *ProfileSnapshot) TopSites(n int) []SiteProfile {
	top := make([]SiteProfile, len(s.Sites))
	copy(top, s.Sites)
	sort.SliceStable(top, func(i, j int) bool {
		a, b := &top[i], &top[j]
		if a.SolveNanos != b.SolveNanos {
			return a.SolveNanos > b.SolveNanos
		}
		if a.Work != b.Work {
			return a.Work > b.Work
		}
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		return a.Site < b.Site
	})
	if n > 0 && len(top) > n {
		top = top[:n]
	}
	return top
}

// Table renders the profile for humans: the per-phase wall breakdown,
// then the top-n sites by solve cost.
func (s *ProfileSnapshot) Table(n int) string {
	var b strings.Builder
	var total int64
	for _, ph := range s.Phases {
		total += ph.Nanos
	}
	fmt.Fprintf(&b, "phase breakdown (%s total", time.Duration(total))
	if s.Workers > 1 {
		fmt.Fprintf(&b, " across %d workers", s.Workers)
	}
	b.WriteString("):\n")
	phases := make([]PhaseProfile, len(s.Phases))
	copy(phases, s.Phases)
	sort.SliceStable(phases, func(i, j int) bool { return phases[i].Nanos > phases[j].Nanos })
	fmt.Fprintf(&b, "  %-15s %10s %14s %7s\n", "PHASE", "COUNT", "TOTAL", "SHARE")
	for _, ph := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(ph.Nanos) / float64(total)
		}
		fmt.Fprintf(&b, "  %-15s %10d %14s %6.1f%%\n",
			ph.Phase, ph.Count, time.Duration(ph.Nanos), share)
	}
	top := s.TopSites(n)
	if len(top) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "top %d branch sites by solve cost:\n", len(top))
	fmt.Fprintf(&b, "  %-22s %5s %7s %12s %10s %6s %8s %6s\n",
		"POS (FN)", "SITE", "SOLVES", "TIME", "WORK", "MISS%", "S/U/B", "FLIPS")
	for i := range top {
		st := &top[i]
		label := st.Pos
		if st.Fn != "" {
			label += " (" + st.Fn + ")"
		}
		fmt.Fprintf(&b, "  %-22s %5d %7d %12s %10d %5.0f%% %8s %6d\n",
			label, st.Site, st.Solves, time.Duration(st.SolveNanos), st.Work,
			100*st.MissRate(),
			fmt.Sprintf("%d/%d/%d", st.Sat, st.Unsat, st.Budget), st.Flips)
	}
	return b.String()
}

// LiveProfile is a Sink that folds the event stream into per-site
// solver attribution, the ops-server counterpart of attaching a
// Profile to the engine: it books each row through the same book.
// Events carry no wall-clock (the determinism contract), so a live
// profile has exact work counters but no timing; Pos is likewise
// absent, because events identify sites by index only.  Unattributed
// events (Site 0: shape decisions and non-branch kinds) are skipped.
type LiveProfile struct {
	mu    sync.Mutex
	sites map[liveSiteKey]*SiteProfile
}

type liveSiteKey struct {
	fn   string
	site int
}

// NewLiveProfile returns an empty live profile.
func NewLiveProfile() *LiveProfile {
	return &LiveProfile{sites: make(map[liveSiteKey]*SiteProfile)}
}

// Event implements Sink.
func (l *LiveProfile) Event(ev Event) {
	if ev.Site == 0 {
		return // not site-attributed (Site is 1-based on the wire)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := liveSiteKey{ev.Fn, ev.Site - 1}
	s := l.sites[k]
	if s == nil {
		s = &SiteProfile{Site: k.site, Fn: k.fn}
		l.sites[k] = s
	}
	s.book(ev.Kind, ev.Verdict, ev.Work, ev.Cache)
}

// Snapshot freezes the live attribution into a sites-only snapshot.
func (l *LiveProfile) Snapshot() *ProfileSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := &ProfileSnapshot{}
	for _, s := range l.sites {
		snap.Sites = append(snap.Sites, *s)
	}
	snap.sort()
	return snap
}
