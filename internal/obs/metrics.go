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

// powers-of-two style upper bounds for each standard histogram; the
// last implicit bucket is +Inf.
var stdBuckets = map[string][]int64{
	HSolverLatencyUS: {1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000},
	HSolverWork:      {16, 256, 4_096, 65_536, 1 << 20, 1 << 24},
	HStepsPerRun:     {64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 2_000_000},
	HPCLen:           {1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024},
	HFrontierDepth:   {1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024},
	HFrontierQueue:   {1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536},
	HJobQueueDepth:   {1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024},
}

// Metrics is one search's registry.  It is not safe for concurrent use;
// every search (and every audited function) owns a private instance.
type Metrics struct {
	counters map[string]int64
	hists    map[string]*hist
}

type hist struct {
	bounds []int64 // inclusive upper bounds; one overflow bucket follows
	counts []int64 // len(bounds)+1
	count  int64
	sum    int64
}

// NewMetrics returns a registry with the standard histograms
// pre-registered.
func NewMetrics() *Metrics {
	m := &Metrics{
		counters: map[string]int64{},
		hists:    map[string]*hist{},
	}
	for name, bounds := range stdBuckets {
		m.hists[name] = &hist{bounds: bounds, counts: make([]int64, len(bounds)+1)}
	}
	return m
}

// Add increments counter name by n.
func (m *Metrics) Add(name string, n int64) {
	if m == nil {
		return
	}
	m.counters[name] += n
}

// Observe records v in histogram name (registering it with the standard
// buckets of HFrontierDepth when unknown).
func (m *Metrics) Observe(name string, v int64) {
	if m == nil {
		return
	}
	h, ok := m.hists[name]
	if !ok {
		h = &hist{bounds: stdBuckets[HFrontierDepth], counts: make([]int64, len(stdBuckets[HFrontierDepth])+1)}
		m.hists[name] = h
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.count++
	h.sum += v
}

// Fold folds one trace event into the registry.  Every counter and
// every histogram but HSolverLatencyUS (wall clock) and HFrontierQueue
// is a fold over the event stream: the engine passes each event it
// builds through its own registry here, and LiveMetrics folds a whole
// audit's stream with this same method.  No-op on a nil registry.
func (m *Metrics) Fold(ev *Event) {
	if m == nil {
		return
	}
	switch ev.Kind {
	case RunEnd:
		m.Add(CRuns, 1)
		m.Observe(HStepsPerRun, ev.Steps)
	case Restart:
		m.Add(CRestarts, 1)
	case Misprediction:
		m.Add(CMispredicts, 1)
	case BranchFlip:
		m.Add(CBranchFlips, 1)
	case SolverCall:
		m.Observe(HPCLen, int64(ev.PCLen))
		m.Observe(HFrontierDepth, int64(ev.Depth))
	case SolverVerdict:
		switch ev.Verdict {
		case "sat":
			m.Add(CSolverSat, 1)
		case "budget-exhausted":
			m.Add(CSolverBudget, 1)
		default:
			m.Add(CSolverUnsat, 1)
		}
		if ev.Cache != "hit" && ev.Cache != "disk" {
			// The work histogram measures the solver, not the memo: a
			// verdict either memo layer answered spent no solver work.
			m.Observe(HSolverWork, ev.Work)
		}
		if ev.Sliced > 0 {
			m.Add(CSlicedPreds, int64(ev.Sliced))
		}
		if ev.Cache == "miss" {
			m.Add(CSolveCacheMisses, 1)
		}
		if ev.Cache == "disk" {
			m.Add(CSolveCacheDisk, 1)
		}
		if ev.CacheEvict {
			m.Add(CSolveCacheEvicts, 1)
		}
	case SolveCacheHit:
		m.Add(CSolveCacheHits, 1)
	case FrontierDrop:
		m.Add(CFrontierDropped, int64(ev.Dropped))
	case FrontierSteal:
		m.Add(CSteals, 1)
	case FrontierIdle:
		m.Add(CWorkerIdle, 1)
	case BugFound:
		m.Add(CBugs, 1)
	case JobQueued:
		m.Add(CJobsAccepted, 1)
		m.Observe(HJobQueueDepth, int64(ev.Depth))
	case JobRejected:
		m.Add(CJobsRejected, 1)
	case JobRetry:
		m.Add(CJobsRetried, 1)
	case JobEnd:
		m.Add(CJobsCompleted, 1)
		if ev.Status == "cached" {
			m.Add(CJobsCached, 1)
		}
	case CorpusHit:
		m.Add(CCorpusHits, 1)
		m.Add(CCorpusReplays, int64(ev.Count))
	case CorpusMiss:
		m.Add(CCorpusMisses, 1)
	case CorpusStore:
		m.Add(CCorpusStores, 1)
	case CoverageStall:
		m.Add(CStalls, 1)
	case UncoveredReason:
		m.Add(UncoveredPrefix+ev.Reason, int64(ev.Count))
	case FallbackConcrete:
		switch ev.Flag {
		case "all_linear":
			m.Add(CFallbackLinear, 1)
		case "all_locs_definite":
			m.Add(CFallbackLocs, 1)
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
	for name, v := range m.counters {
		if v != 0 {
			s.Counters[name] = v
		}
	}
	for name, h := range m.hists {
		if h.count == 0 {
			continue
		}
		hv := HistView{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
		}
		s.Histograms[name] = hv
	}
	return s
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
