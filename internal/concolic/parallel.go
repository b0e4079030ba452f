// The parallel frontier engine: Options.Workers > 1 runs the
// generational frontier search of frontier.go on a pool of
// work-stealing workers.
//
// A pending flip is a complete, self-contained program run (recorded
// prefix, negated predicate, parent input vector), so the frontier
// worklist parallelizes without touching the algorithm: N workers pull
// items from per-worker deques, stealing from a sibling's oldest end
// when their own runs dry.  Each worker owns a full engine — its own
// machine constructions, symbolic evaluation, forked RNG stream, and
// report — while sharing exactly three things search-wide: the program
// IR (read-only), the input registry (so symbolic variable numbering,
// and with it predicate rendering and solve-cache keys, means the same
// input in every worker), and one sharded solve cache.
//
// Determinism modulo worker count: the generational rule attempts every
// feasible path exactly once regardless of pop order, so on searches
// that exhaust their execution tree the bug set, branch coverage, and
// completeness flags are identical for every Workers value.  What may
// legitimately differ is scheduling texture — per-worker run indices,
// which worker finds a bug first, cache hit rates, don't-care input
// padding.  The merge below is correspondingly canonical: counters sum,
// completeness flags AND (pessimistic: any worker's fallback clears the
// search's flag), coverage and metrics merge, and bugs sort by source
// position so the merged report is independent of worker finishing
// order.
package concolic

import (
	"sort"
	"sync"
	"time"

	"dart/internal/coverage"
	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/rng"
	"dart/internal/solver"
)

// sharedSearch coordinates the workers of one parallel search: bug
// dedup, the run budget, the shared fault budget, and the first stop
// reason.  It is the parallel counterpart of the sequential engine's
// private seenBugs map and loop-condition budget checks.
type sharedSearch struct {
	mu       sync.Mutex
	seenBugs map[string]bool
	faults   int
	stopped  StopReason
	runsLeft int64
	// cov is the coverage explainer's search-global coverage view (the
	// per-worker report sets overcount directions another worker covered
	// first); nil unless the explainer is on.
	cov *coverage.Set
}

func newSharedSearch(maxRuns int) *sharedSearch {
	return &sharedSearch{seenBugs: map[string]bool{}, runsLeft: int64(maxRuns)}
}

// claimBug reports whether sig is new search-wide, claiming it.
func (s *sharedSearch) claimBug(sig string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seenBugs[sig] {
		return false
	}
	s.seenBugs[sig] = true
	return true
}

// reserveRun consumes one slot of the shared MaxRuns budget, reporting
// false when the budget is spent.  Reservation happens just before a
// program execution — solver-only work (infeasible flips) consumes no
// budget, matching the sequential engines' accounting.
func (s *sharedSearch) reserveRun() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runsLeft <= 0 {
		return false
	}
	s.runsLeft--
	return true
}

// recordCov folds one run's branch records into the search-global
// coverage view, returning how many directions it newly covered — the
// timeline's dedup across workers.
func (s *sharedSearch) recordCov(branches []machine.BranchRec) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rec := range branches {
		if s.cov.Record(rec.Site, rec.Taken) {
			n++
		}
	}
	return n
}

// addFault counts one isolated internal fault against the search-wide
// budget and returns the new total.
func (s *sharedSearch) addFault() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults++
	return s.faults
}

// noteStop records the first stop reason a worker hit; later reasons
// (other workers winding down after the abort) are dropped.
func (s *sharedSearch) noteStop(r StopReason) {
	if r == "" {
		return
	}
	s.mu.Lock()
	if s.stopped == "" {
		s.stopped = r
	}
	s.mu.Unlock()
}

// stopReason returns the recorded stop reason ("" if none).
func (s *sharedSearch) stopReason() StopReason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}

// sched is the work-stealing scheduler: one deque of pending flips per
// worker under a single mutex + condvar.  The coarse lock is deliberate
// — every item handed out is a whole program execution plus a constraint
// solve, so scheduler critical sections are nanoseconds against
// milliseconds of useful work, and one lock keeps the termination
// condition (all deques empty and nothing in flight) exact.
type sched struct {
	mu       sync.Mutex
	cond     *sync.Cond
	deques   [][]frontierItem
	strategy Strategy
	// size is the total queued across deques; max is the global
	// MaxFrontier cap.
	size int
	max  int
	// inflight counts items handed out but not yet finished; the search
	// is over when size == 0 && inflight == 0.
	inflight int
	done     bool
	// aborted distinguishes a stop (worker quit: bug, deadline, budget)
	// from natural exhaustion of the worklist.
	aborted bool
}

func newSched(workers, maxFrontier int, strategy Strategy) *sched {
	s := &sched{
		deques:   make([][]frontierItem, workers),
		strategy: strategy,
		max:      maxFrontier,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// seed scatters the root run's children round-robin across the deques
// so every worker starts with local work; it returns the items dropped
// to the MaxFrontier cap (for the caller to account) and the resulting
// backlog.
func (s *sched) seed(kids []frontierItem) (dropped []frontierItem, qlen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kids, dropped = s.capKids(kids)
	for i, it := range kids {
		w := i % len(s.deques)
		s.deques[w] = append(s.deques[w], it)
	}
	s.size += len(kids)
	return dropped, s.size
}

// capKids truncates kids to the global MaxFrontier cap (deepest pending
// flips dropped first, like the sequential enqueue), returning the kept
// prefix and the dropped tail.  Caller holds mu.
func (s *sched) capKids(kids []frontierItem) (kept, dropped []frontierItem) {
	over := s.size + len(kids) - s.max
	if over <= 0 {
		return kids, nil
	}
	if over >= len(kids) {
		return nil, kids
	}
	return kids[:len(kids)-over], kids[len(kids)-over:]
}

// qlen is the current total backlog across deques.
func (s *sched) qlen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// next hands worker w its next pending flip.  It prefers the worker's
// own deque (popped in strategy order: DFS newest-first, BFS local
// minimum depth, RandomBranch uniform from the worker's own RNG), then
// steals the oldest item from the first non-empty sibling — the
// classic opposite-end discipline, taking the shallowest, most
// divergent work and leaving the victim its hot deep subtree.  With no
// work anywhere it sleeps until work arrives or the search ends.
// stole and idled report what happened for the caller's observability;
// ok=false means the search is over (drained or aborted).
func (s *sched) next(w int, rnd *rng.R) (item frontierItem, ok, stole, idled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.done {
			return frontierItem{}, false, false, idled
		}
		if q := s.deques[w]; len(q) > 0 {
			idx := len(q) - 1 // DFS: newest first
			switch s.strategy {
			case BFS:
				idx = 0
				for i := 1; i < len(q); i++ {
					if q[i].depth < q[idx].depth {
						idx = i
					}
				}
			case RandomBranch:
				idx = int(rnd.Intn(int64(len(q))))
			}
			item = q[idx]
			q[idx] = q[len(q)-1]
			s.deques[w] = q[:len(q)-1]
			s.size--
			s.inflight++
			return item, true, stole, idled
		}
		found := false
		for i := 1; i < len(s.deques); i++ {
			v := (w + i) % len(s.deques)
			if q := s.deques[v]; len(q) > 0 {
				item = q[0]
				s.deques[v] = q[1:]
				s.size--
				s.inflight++
				found = true
				break
			}
		}
		if found {
			return item, true, true, idled
		}
		if s.inflight == 0 {
			// Every deque is empty and no worker can produce more: the
			// frontier is exhausted.
			s.done = true
			s.cond.Broadcast()
			return frontierItem{}, false, false, idled
		}
		idled = true
		s.cond.Wait()
	}
}

// finish returns worker w's item to the scheduler with the children it
// produced, enforcing the global MaxFrontier cap; it returns the
// dropped items (for the worker to account) and the new backlog.
func (s *sched) finish(w int, kids []frontierItem) (dropped []frontierItem, qlen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if len(kids) > 0 && !s.done {
		kids, dropped = s.capKids(kids)
		s.deques[w] = append(s.deques[w], kids...)
		s.size += len(kids)
	}
	if s.size == 0 && s.inflight == 0 {
		s.done = true
	}
	s.cond.Broadcast()
	return dropped, s.size
}

// quit aborts the search: the calling worker is stopping for a reason
// (first bug, deadline, budget, persistent fault) that ends the whole
// search, so every sibling is woken to wind down.
func (s *sched) quit() {
	s.mu.Lock()
	s.inflight--
	s.done = true
	s.aborted = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// drained reports whether the search ended by exhausting the worklist
// (as opposed to a worker aborting it).
func (s *sched) drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done && !s.aborted && s.size == 0
}

// runParallel is the Workers > 1 entry point: one root run seeds the
// deques, then a pool of workers drains them, and the per-worker
// reports merge canonically.  Always returns a report, never an error —
// supervision semantics (deadline, cancel, faults) match the sequential
// engines.  The Observer, when set, must be safe for concurrent use
// (the bundled sinks are); each event carries its worker's 1-based id.
func runParallel(prog *ir.Prog, o Options, start time.Time) *Report {
	nw := o.Workers
	regs := newVarRegistry()
	shared := newSharedSearch(o.MaxRuns)
	var cache solver.SolveCache
	if o.SolveCacheCap >= 0 {
		cache = solver.NewShardedCache(o.SolveCacheCap, nw)
	}
	var deadline time.Time
	if o.Timeout > 0 {
		deadline = time.Now().Add(o.Timeout)
	}
	// Worker 1 owns the seed's pristine stream — the exact generator the
	// sequential engines use — so the root run draws byte-identical
	// padding to a Workers=1 search with the same seed (the determinism
	// contract's anchor).  Sibling workers fork their streams from it
	// only after the root run, below.
	base := rng.New(o.Seed)
	// One search-global timeline (internally locked) and one shared
	// coverage view dedup the workers' coverage ticks; each worker owns
	// its private cause ledger, merged canonically below.
	tl := newTimeline(o)
	if tl != nil {
		shared.cov = coverage.New(prog.NumSites)
	}
	// One compiled program image serves every worker: a Compiled lowers
	// each function once, under a per-function sync.Once, so sharing is
	// race-free (the machine-pool race gate in scripts/check.sh holds it
	// to that).
	code := compileFor(prog, o)
	// One run recorder (internally locked) spans the pool: the distilled
	// suite must cover the union coverage, which no per-worker log sees.
	var rec *runRecorder
	if o.RecordRuns {
		rec = newRunRecorder(prog.NumSites)
	}
	workers := make([]*engine, nw)
	for i := range workers {
		workers[i] = &engine{
			prog:     prog,
			code:     code,
			opts:     o,
			rand:     base,
			regs:     regs,
			im:       map[string]int64{},
			deadline: deadline,
			obs:      o.Observer,
			metrics:  newMetrics(o),
			prof:     newProfile(o, i+1),
			exp:      newExplain(o, i+1),
			timeline: tl,
			worker:   i + 1,
			shared:   shared,
			cache:    cache,
			persist:  o.Persistent,
			rec:      rec,
			report: &Report{
				AllLinear:       true,
				AllLocsDefinite: true,
				SolverComplete:  true,
				Workers:         nw,
				Coverage:        coverage.New(prog.NumSites),
			},
		}
	}

	sc := newSched(nw, o.MaxFrontier, o.Strategy)
	if tl != nil {
		for _, w := range workers {
			w.qlen = sc.qlen
		}
	}

	// Root run: worker 1 executes the fresh-random root; its children
	// seed every deque round-robin so the pool starts with spread work.
	root := workers[0]
	kids, cont := root.frontierRoot()
	// Now that the root has consumed its draws, give every sibling an
	// independent stream forked off worker 1's.  Forking advances the
	// parent state, so each worker's stream is distinct from the others'
	// and from worker 1's own later per-run forks.
	for i := 1; i < nw; i++ {
		workers[i].rand = base.Fork()
	}
	exhausted := false
	if cont {
		dropped, qlen := sc.seed(kids)
		root.noteDropped(dropped)
		if len(kids) > 0 {
			root.metrics.Observe(obs.HFrontierQueue, int64(qlen))
		}
		var wg sync.WaitGroup
		for i := range workers {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				workerLoop(workers[w], sc, shared, w)
			}(i)
		}
		wg.Wait()
		exhausted = sc.drained()
	} else {
		shared.noteStop(root.report.Stopped)
	}

	merged := mergeReports(prog, o, workers, shared, exhausted, start)
	merged.RunLog = rec.log()
	return merged
}

// workerLoop is one worker's life: pull a pending flip (stealing when
// starved), process it through the shared frontier pipeline, return the
// children, repeat until the worklist drains or the search aborts.
func workerLoop(e *engine, sc *sched, shared *sharedSearch, w int) {
	for {
		var t0 time.Time
		if e.prof != nil {
			t0 = time.Now()
		}
		item, ok, stole, idled := sc.next(w, e.rand)
		if e.prof != nil {
			// The parallelism tax: time this worker spent blocked on the
			// scheduler (stealing and idling included).
			e.prof.Span(obs.SpanFrontierWait, time.Since(t0))
		}
		if idled {
			e.metrics.Add(obs.CWorkerIdle, 1)
			if e.obs != nil {
				e.emit(obs.Event{Kind: obs.FrontierIdle, Run: e.report.Runs})
			}
		}
		if !ok {
			return
		}
		if stole {
			e.report.Steals++
			e.metrics.Add(obs.CSteals, 1)
			if e.obs != nil {
				e.emit(obs.Event{Kind: obs.FrontierSteal, Run: e.report.Runs, Depth: item.depth})
			}
		}
		kids, cont := e.processItem(item)
		if !cont {
			shared.noteStop(e.report.Stopped)
			sc.quit()
			return
		}
		dropped, qlen := sc.finish(w, kids)
		e.noteDropped(dropped)
		if len(kids) > 0 {
			e.metrics.Observe(obs.HFrontierQueue, int64(qlen))
		}
	}
}

// mergeReports folds the per-worker reports into the search's one
// report: counters sum, completeness flags AND (pessimistic — any
// worker's fallback is the search's fallback), coverage and metric
// snapshots merge, and bugs sort canonically by source position so the
// output is independent of worker finishing order.
func mergeReports(prog *ir.Prog, o Options, workers []*engine, shared *sharedSearch, exhausted bool, start time.Time) *Report {
	merged := &Report{
		AllLinear:       true,
		AllLocsDefinite: true,
		SolverComplete:  true,
		Workers:         len(workers),
		Coverage:        coverage.New(prog.NumSites),
	}
	var metrics *obs.Snapshot
	for _, w := range workers {
		r := w.report
		merged.Runs += r.Runs
		merged.Steps += r.Steps
		merged.Restarts += r.Restarts
		merged.Mispredicts += r.Mispredicts
		merged.SolverCalls += r.SolverCalls
		merged.SolverFailures += r.SolverFailures
		merged.SolveCacheHits += r.SolveCacheHits
		merged.SolveCacheMisses += r.SolveCacheMisses
		merged.SolveCacheEvictions += r.SolveCacheEvictions
		merged.SolveCacheDiskHits += r.SolveCacheDiskHits
		merged.SlicedPreds += r.SlicedPreds
		merged.FrontierDropped += r.FrontierDropped
		merged.Steals += r.Steals
		merged.AllLinear = merged.AllLinear && r.AllLinear
		merged.AllLocsDefinite = merged.AllLocsDefinite && r.AllLocsDefinite
		merged.SolverComplete = merged.SolverComplete && r.SolverComplete
		merged.Coverage.Merge(r.Coverage)
		merged.Bugs = append(merged.Bugs, r.Bugs...)
		merged.InternalErrors = append(merged.InternalErrors, r.InternalErrors...)
		if s := w.metrics.Snapshot(); s != nil {
			if metrics == nil {
				metrics = s
			} else {
				metrics.Merge(s)
			}
		}
		if s := w.prof.Snapshot(); s != nil {
			if merged.Profile == nil {
				merged.Profile = s
			} else {
				merged.Profile.Merge(s)
			}
		}
		if s := w.exp.Snapshot(); s != nil {
			if merged.Explain == nil {
				merged.Explain = s
			} else {
				merged.Explain.Merge(s)
			}
		}
	}
	sortBugs(merged.Bugs)
	merged.Metrics = metrics
	if merged.Explain != nil {
		// Stamp the search-global timeline, then resolve the merged
		// ledger and emit/mirror the reason buckets exactly like a
		// sequential search's finishExplain — into the merged snapshot,
		// which is already frozen.
		workers[0].timeline.Stamp(merged.Explain)
		rep := ResolveExplain(prog, merged.Explain, merged.Coverage)
		for _, reason := range obs.ReasonPrecedence {
			n := rep.Buckets[reason]
			if n == 0 {
				continue
			}
			if metrics != nil {
				metrics.Counters[obs.UncoveredPrefix+reason] += int64(n)
			}
			if o.Observer != nil {
				workers[0].emit(obs.Event{Kind: obs.UncoveredReason, Run: merged.Runs,
					Reason: reason, Count: n})
			}
		}
	}
	merged.Stopped = shared.stopReason()
	if merged.Stopped == "" {
		if exhausted {
			merged.Stopped = StopExhausted
			// Theorem 1(b) for the merged search: every worker kept every
			// completeness flag, nothing was dropped, no bug truncated a
			// path, no fault skipped work, and the run budget never bit.
			if merged.FrontierDropped == 0 && reportComplete(merged) && merged.Runs < o.MaxRuns {
				merged.Complete = true
			}
		} else {
			merged.Stopped = StopMaxRuns
		}
	}
	merged.Elapsed = time.Since(start)
	return merged
}

// sortBugs orders bugs canonically — source position, then kind, then
// message — the discovery-order-free order of merged parallel reports.
func sortBugs(bugs []Bug) {
	sort.Slice(bugs, func(i, j int) bool {
		if a, b := bugs[i].Pos.String(), bugs[j].Pos.String(); a != b {
			return a < b
		}
		if bugs[i].Kind != bugs[j].Kind {
			return bugs[i].Kind < bugs[j].Kind
		}
		return bugs[i].Msg < bugs[j].Msg
	})
}
