// The metrics registry: named counters and fixed-bucket histograms,
// recorded per run and per solve, never per instruction.  Each search
// owns its own registry, so no locking is needed on the record path;
// the audit pool gives every function its own registry and merges
// snapshots.  A nil *Metrics is a valid disabled registry — every
// method no-ops — so unobserved searches skip even the setup cost.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Standard metric names recorded by the engine.
const (
	// Counters.
	CRuns           = "runs"
	CRestarts       = "restarts"
	CMispredicts    = "mispredictions"
	CBranchFlips    = "branch_flips"
	CSolverSat      = "solver_sat"
	CSolverUnsat    = "solver_unsat"
	CSolverBudget   = "solver_budget_exhausted"
	CBugs           = "bugs_found"
	CFallbackLinear = "fallback_all_linear"
	CFallbackLocs   = "fallback_all_locs_definite"
	// Solver fast path: solve-cache activity and predicates pruned by
	// independence slicing before the solver ran.
	CSolveCacheHits   = "solve_cache_hits"
	CSolveCacheMisses = "solve_cache_misses"
	CSolveCacheEvicts = "solve_cache_evictions"
	CSlicedPreds      = "solver_sliced_preds"
	// CSolveCacheDisk counts solves answered by the disk-backed
	// persistent solve cache (consulted on in-memory misses when a
	// corpus is attached); like an in-memory hit it spends no solver
	// work and skips the work histograms.
	CSolveCacheDisk = "solve_cache_disk_hits"
	// Incremental re-audit: functions whose corpus entry replayed in
	// place of a full search, functions that fell through to search,
	// replayed suite fixtures, and entries written or refreshed.
	CCorpusHits    = "corpus_hits"
	CCorpusMisses  = "corpus_misses"
	CCorpusReplays = "corpus_replayed_cases"
	CCorpusStores  = "corpus_stores"
	// Frontier scheduling: pending flips discarded on MaxFrontier
	// overflow (a completeness loss, never silent), work-stealing
	// transfers between parallel workers, and worker idle episodes
	// (every deque empty, worker slept until new work arrived).
	CFrontierDropped = "frontier_dropped"
	CSteals          = "frontier_steals"
	CWorkerIdle      = "frontier_idle_waits"
	// Serve-layer job lifecycle: submissions admitted to the bounded
	// queue, refused at admission (queue full, draining, oversized or
	// malformed bodies), retried after an isolated executor fault,
	// completed (any terminal disposition), and answered byte-identically
	// from the content-addressed result store.
	CJobsAccepted  = "jobs_accepted"
	CJobsRejected  = "jobs_rejected"
	CJobsRetried   = "jobs_retried"
	CJobsCompleted = "jobs_completed"
	CJobsCached    = "jobs_cached"
	// Coverage explainer: plateau events the stall detector fired.
	// Per-reason dark-direction counts are dynamic counters named
	// UncoveredPrefix + reason (e.g. "uncovered_solver-unsat"); the
	// Prometheus exposition folds them into one labeled family,
	// dart_uncovered_total{reason=...}.
	CStalls = "coverage_stalls"

	// Histograms.
	HSolverLatencyUS = "solver_latency_us"
	HSolverWork      = "solver_work_per_solve"
	HStepsPerRun     = "steps_per_run"
	HPCLen           = "path_constraint_len"
	HFrontierDepth   = "frontier_depth"
	// HFrontierQueue samples the total pending-flip backlog at each
	// enqueue, the live queue-depth signal of the (parallel) frontier.
	HFrontierQueue = "frontier_queue_depth"
	// HJobQueueDepth samples the serve-layer job-queue backlog at each
	// admission; its distribution shows how close the service runs to
	// its configured depth (and therefore to shedding load).
	HJobQueueDepth = "job_queue_depth"
)

// UncoveredPrefix prefixes the per-reason explain counters (see
// CStalls above).
const UncoveredPrefix = "uncovered_"

// Slots of the standard counters.  Fold updates a slot directly; Add
// finds a standard name's slot through counterSlot.
const (
	slotRuns = iota
	slotRestarts
	slotMispredicts
	slotBranchFlips
	slotSolverSat
	slotSolverUnsat
	slotSolverBudget
	slotBugs
	slotFallbackLinear
	slotFallbackLocs
	slotSolveCacheHits
	slotSolveCacheMisses
	slotSolveCacheEvicts
	slotSlicedPreds
	slotSolveCacheDisk
	slotCorpusHits
	slotCorpusMisses
	slotCorpusReplays
	slotCorpusStores
	slotFrontierDropped
	slotSteals
	slotWorkerIdle
	slotJobsAccepted
	slotJobsRejected
	slotJobsRetried
	slotJobsCompleted
	slotJobsCached
	slotStalls
	numCounters
)

// counterNames names each standard counter slot.
var counterNames = [numCounters]string{
	slotRuns:             CRuns,
	slotRestarts:         CRestarts,
	slotMispredicts:      CMispredicts,
	slotBranchFlips:      CBranchFlips,
	slotSolverSat:        CSolverSat,
	slotSolverUnsat:      CSolverUnsat,
	slotSolverBudget:     CSolverBudget,
	slotBugs:             CBugs,
	slotFallbackLinear:   CFallbackLinear,
	slotFallbackLocs:     CFallbackLocs,
	slotSolveCacheHits:   CSolveCacheHits,
	slotSolveCacheMisses: CSolveCacheMisses,
	slotSolveCacheEvicts: CSolveCacheEvicts,
	slotSlicedPreds:      CSlicedPreds,
	slotSolveCacheDisk:   CSolveCacheDisk,
	slotCorpusHits:       CCorpusHits,
	slotCorpusMisses:     CCorpusMisses,
	slotCorpusReplays:    CCorpusReplays,
	slotCorpusStores:     CCorpusStores,
	slotFrontierDropped:  CFrontierDropped,
	slotSteals:           CSteals,
	slotWorkerIdle:       CWorkerIdle,
	slotJobsAccepted:     CJobsAccepted,
	slotJobsRejected:     CJobsRejected,
	slotJobsRetried:      CJobsRetried,
	slotJobsCompleted:    CJobsCompleted,
	slotJobsCached:       CJobsCached,
	slotStalls:           CStalls,
}

// Slots of the standard histograms, resolved like the counters'.
const (
	slotSolverLatency = iota
	slotSolverWork
	slotStepsPerRun
	slotPCLen
	slotFrontierDepth
	slotFrontierQueue
	slotJobQueueDepth
	numHists
)

// stdHists names each standard histogram slot and gives its
// powers-of-two style upper bounds; the last implicit bucket is +Inf.
var stdHists = [numHists]struct {
	name   string
	bounds []int64
}{
	slotSolverLatency: {HSolverLatencyUS, []int64{1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}},
	slotSolverWork:    {HSolverWork, []int64{16, 256, 4_096, 65_536, 1 << 20, 1 << 24}},
	slotStepsPerRun:   {HStepsPerRun, []int64{64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 2_000_000}},
	slotPCLen:         {HPCLen, []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024}},
	slotFrontierDepth: {HFrontierDepth, []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024}},
	slotFrontierQueue: {HFrontierQueue, []int64{1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536}},
	slotJobQueueDepth: {HJobQueueDepth, []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024}},
}

// counterSlot and histSlot find a standard metric's slot by name.
var counterSlot, histSlot = func() (map[string]int, map[string]int) {
	cs, hs := map[string]int{}, map[string]int{}
	for i, name := range counterNames {
		cs[name] = i
	}
	for i, h := range stdHists {
		hs[h.name] = i
	}
	return cs, hs
}()

// Metrics is one search's registry.  It is not safe for concurrent use;
// every search (and every audited function) owns a private instance.
// The standard counters and histograms live in fixed slots, so folding
// an event hashes no name; other names, such as the UncoveredPrefix
// family, live in maps made on first use.
type Metrics struct {
	counts      [numCounters]int64
	hists       [numHists]hist
	otherCounts map[string]int64
	otherHists  map[string]*hist
}

type hist struct {
	bounds []int64 // inclusive upper bounds; one overflow bucket follows
	counts []int64 // len(bounds)+1
	count  int64
	sum    int64
}

func newHist(bounds []int64) hist {
	return hist{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// observe records v in the first bucket whose bound it does not exceed.
func (h *hist) observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// NewMetrics returns a registry with the standard histograms
// pre-registered.
func NewMetrics() *Metrics {
	m := &Metrics{}
	for i, h := range stdHists {
		m.hists[i] = newHist(h.bounds)
	}
	return m
}

// Add increments counter name by n.
func (m *Metrics) Add(name string, n int64) {
	if m == nil {
		return
	}
	if i, ok := counterSlot[name]; ok {
		m.counts[i] += n
		return
	}
	if m.otherCounts == nil {
		m.otherCounts = map[string]int64{}
	}
	m.otherCounts[name] += n
}

// Observe records v in histogram name (registering it with the standard
// buckets of HFrontierDepth when unknown).
func (m *Metrics) Observe(name string, v int64) {
	if m == nil {
		return
	}
	if i, ok := histSlot[name]; ok {
		m.hists[i].observe(v)
		return
	}
	h := m.otherHists[name]
	if h == nil {
		if m.otherHists == nil {
			m.otherHists = map[string]*hist{}
		}
		nh := newHist(stdHists[slotFrontierDepth].bounds)
		h = &nh
		m.otherHists[name] = h
	}
	h.observe(v)
}

// Fold folds one trace event into the registry.  Every counter and
// every histogram but HSolverLatencyUS (wall clock) and HFrontierQueue
// is a fold over the event stream: the engine passes each event it
// builds through its own registry here, and the ops server folds a
// whole audit's stream with this same method.  No-op on a nil registry.
func (m *Metrics) Fold(ev *Event) {
	if m == nil {
		return
	}
	c := &m.counts
	switch ev.Kind {
	case RunEnd:
		c[slotRuns]++
		m.hists[slotStepsPerRun].observe(ev.Steps)
	case Restart:
		c[slotRestarts]++
	case Misprediction:
		c[slotMispredicts]++
	case BranchFlip:
		c[slotBranchFlips]++
	case SolverCall:
		m.hists[slotPCLen].observe(int64(ev.PCLen))
		m.hists[slotFrontierDepth].observe(int64(ev.Depth))
	case SolverVerdict:
		switch ev.Verdict {
		case "sat":
			c[slotSolverSat]++
		case "budget-exhausted":
			c[slotSolverBudget]++
		default:
			c[slotSolverUnsat]++
		}
		if ev.Cache != "hit" && ev.Cache != "disk" {
			// The work histogram measures the solver, not the memo: a
			// verdict either memo layer answered spent no solver work.
			m.hists[slotSolverWork].observe(ev.Work)
		}
		if ev.Sliced > 0 {
			c[slotSlicedPreds] += int64(ev.Sliced)
		}
		switch ev.Cache {
		case "miss":
			c[slotSolveCacheMisses]++
		case "disk":
			c[slotSolveCacheDisk]++
		}
		if ev.CacheEvict {
			c[slotSolveCacheEvicts]++
		}
	case SolveCacheHit:
		c[slotSolveCacheHits]++
	case FrontierDrop:
		c[slotFrontierDropped] += int64(ev.Dropped)
	case FrontierSteal:
		c[slotSteals]++
	case FrontierIdle:
		c[slotWorkerIdle]++
	case BugFound:
		c[slotBugs]++
	case JobQueued:
		c[slotJobsAccepted]++
		m.hists[slotJobQueueDepth].observe(int64(ev.Depth))
	case JobRejected:
		c[slotJobsRejected]++
	case JobRetry:
		c[slotJobsRetried]++
	case JobEnd:
		c[slotJobsCompleted]++
		if ev.Status == "cached" {
			c[slotJobsCached]++
		}
	case CorpusHit:
		c[slotCorpusHits]++
		c[slotCorpusReplays] += int64(ev.Count)
	case CorpusMiss:
		c[slotCorpusMisses]++
	case CorpusStore:
		c[slotCorpusStores]++
	case CoverageStall:
		c[slotStalls]++
	case UncoveredReason:
		m.Add(UncoveredPrefix+ev.Reason, int64(ev.Count))
	case FallbackConcrete:
		switch ev.Flag {
		case "all_linear":
			c[slotFallbackLinear]++
		case "all_locs_definite":
			c[slotFallbackLocs]++
		}
	}
}

// HistView is the immutable snapshot of one histogram.
type HistView struct {
	// Bounds are the inclusive upper bounds; Counts has one extra
	// overflow bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot is the frozen state of a Metrics registry, attached to
// Report.Metrics and marshalled into the JSON report (map keys are
// sorted by encoding/json, keeping the encoding deterministic).
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Histograms map[string]HistView `json:"histograms"`
}

// Snapshot freezes the registry.  Histograms that never saw a sample
// are dropped, as are zero counters.
func (m *Metrics) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	s := &Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistView{}}
	for i, v := range m.counts {
		if v != 0 {
			s.Counters[counterNames[i]] = v
		}
	}
	for name, v := range m.otherCounts {
		if v != 0 {
			s.Counters[name] = v
		}
	}
	for i := range m.hists {
		s.addHist(stdHists[i].name, &m.hists[i])
	}
	for name, h := range m.otherHists {
		s.addHist(name, h)
	}
	return s
}

// addHist copies a histogram that saw a sample into the snapshot.
func (s *Snapshot) addHist(name string, h *hist) {
	if h.count == 0 {
		return
	}
	s.Histograms[name] = HistView{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
}

// Merge folds other into s (bucket-wise for histograms with identical
// bounds; mismatched histograms keep s's buckets and only accumulate
// count/sum).  The audit pool uses it to aggregate per-function
// snapshots into one batch view.
func (s *Snapshot) Merge(other *Snapshot) {
	if s == nil || other == nil {
		return
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, ohv := range other.Histograms {
		hv, ok := s.Histograms[name]
		if !ok {
			s.Histograms[name] = HistView{
				Bounds: append([]int64(nil), ohv.Bounds...),
				Counts: append([]int64(nil), ohv.Counts...),
				Count:  ohv.Count,
				Sum:    ohv.Sum,
			}
			continue
		}
		if len(hv.Bounds) == len(ohv.Bounds) {
			for i := range hv.Counts {
				hv.Counts[i] += ohv.Counts[i]
			}
		}
		hv.Count += ohv.Count
		hv.Sum += ohv.Sum
		s.Histograms[name] = hv
	}
}

// Table renders the snapshot as an aligned human-readable table:
// counters first, then each histogram with per-bucket counts.
func (s *Snapshot) Table() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-28s %12d\n", name, s.Counters[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		hv := s.Histograms[name]
		mean := float64(hv.Sum) / float64(hv.Count)
		fmt.Fprintf(&b, "%-28s count=%d sum=%d mean=%.1f\n", name, hv.Count, hv.Sum, mean)
		for i, c := range hv.Counts {
			if c == 0 {
				continue
			}
			if i < len(hv.Bounds) {
				fmt.Fprintf(&b, "    <= %-10d %12d\n", hv.Bounds[i], c)
			} else {
				fmt.Fprintf(&b, "    >  %-10d %12d\n", hv.Bounds[len(hv.Bounds)-1], c)
			}
		}
	}
	return b.String()
}
