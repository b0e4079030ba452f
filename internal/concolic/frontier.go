package concolic

import (
	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/solver"
	"dart/internal/symbolic"
)

// The frontier engine implements the alternative branch-selection orders
// of the paper's footnote 4 ("the next branch to be forced could be
// selected using a different strategy, e.g., randomly or in a
// breadth-first manner").
//
// The single-stack bookkeeping of Figs. 4-5 is only exhaustive when the
// *deepest* unexplored branch is flipped first: flipping a shallow entry
// truncates the stack and silently abandons the unexplored subtree of
// the original branch.  The frontier engine therefore keeps a work list
// of pending flips instead.  Each executed path enqueues one child per
// flippable conditional at index >= the path's own lower bound, and a
// child's bound is its flip index + 1 — the "generational search" rule
// (later popularized by SAGE) under which every feasible path is
// attempted exactly once regardless of pop order.  BFS pops the
// shallowest pending flip, RandomBranch a uniformly random one.
//
// Because a pending flip is a complete, self-contained program run —
// recorded prefix, negated predicate, parent input vector — the frontier
// is also the unit of parallelism: the work-stealing engine of
// parallel.go hands the same frontierItems to multiple workers, each
// processing items through the exact methods below (processItem,
// solveItem, recordRun, childItems), so sequential and parallel searches
// share one code path for everything but scheduling.

// frontierItem is one pending flip: re-execute the recorded prefix with
// the flip's predicate negated, then extend.
type frontierItem struct {
	// parent is the finished run the flip branches from, shared by all
	// of that run's pending flips.
	parent *parentRun
	// n indexes the flipped conditional's predicate on parent.path: the
	// flip solves preds[:n] ∧ ¬preds[n].
	n int
	// flipTaken is the branch outcome the flipped conditional must now
	// show (the negation of what was observed).
	flipTaken bool
	// depth is the flip's branch index: the predicted prefix is
	// parent.outcomes[:depth] (BFS orders by it), and the flipped run's
	// own children flip only beyond it (the generational bound).
	depth int
	// site is the flipped conditional's branch site (-1 for shape
	// decisions); pos its source position, filled only when the search
	// profiles (site attribution travels with the item because the
	// solving worker no longer holds the parent run's branch records).
	site int
	pos  string
}

// parentRun is what the pending flips of one finished run share,
// read-only once built: the run's branch outcomes, its indexed path
// constraint, the input vector that drove it, and that vector as a hint
// over the path's variables.
type parentRun struct {
	outcomes []bool
	path     *solver.Path
	im       map[string]int64
	hint     map[symbolic.Var]int64
}

// claimBug reports whether this engine is the first in the search to
// see the bug signature, recording the claim.  Sequential engines claim
// from their private map; parallel workers claim through the shared
// coordinator, so each distinct bug enters exactly one worker's report
// (and emits exactly one BugFound event) across the whole search —
// keeping live event-derived counters equal to the merged report.
func (e *engine) claimBug(sig string) bool {
	if e.shared != nil {
		return e.shared.claimBug(sig)
	}
	if e.seenBugs[sig] {
		return false
	}
	if e.seenBugs == nil {
		// Lazily allocated: bug-free searches (the common case for the
		// audit's ok-functions) never pay for the dedup map.
		e.seenBugs = make(map[string]bool, 1)
	}
	e.seenBugs[sig] = true
	return true
}

// recordRun accounts one finished run into the engine's report and
// returns false when the search must stop (Stopped is then set).
func (e *engine) recordRun(m *machine.Machine, rerr *machine.RunError) bool {
	e.report.Runs++
	e.report.Steps += m.Steps()
	e.metrics.Add(obs.CRuns, 1)
	e.metrics.Observe(obs.HStepsPerRun, m.Steps())
	if !m.AllLinear() {
		e.report.AllLinear = false
		e.metrics.Add(obs.CFallbackLinear, 1)
	}
	if !m.AllLocsDefinite() {
		e.report.AllLocsDefinite = false
		e.metrics.Add(obs.CFallbackLocs, 1)
	}
	newly := 0
	for _, rec := range m.Branches {
		if rec.Site >= 0 {
			if e.report.Coverage.Record(rec.Site, rec.Taken) {
				newly++
			}
			if e.exp != nil && !rec.HasPred {
				// The unexecuted direction of a predicate-less
				// conditional can never be forced: ledger why.
				e.exp.RecordFallback(rec.Site, rec.Pos.String(), !rec.Taken, rec.Fallback)
			}
		}
	}
	if e.shared != nil && e.timeline != nil {
		// Parallel: the per-worker set overcounts directions another
		// worker covered first; the shared view dedups search-wide.
		newly = e.shared.recordCov(m.Branches)
	}
	e.rec.observe(e.im, m.Branches)
	e.tickTimeline(newly)
	if e.obs != nil {
		e.emit(obs.Event{Kind: obs.RunEnd, Run: e.report.Runs, Steps: m.Steps(),
			Outcome: runOutcome(rerr), Path: pathString(m.Branches)})
	}
	if e.mispredict {
		e.report.Mispredicts++
		e.metrics.Add(obs.CMispredicts, 1)
		if e.obs != nil {
			e.emit(obs.Event{Kind: obs.Misprediction, Run: e.report.Runs, Depth: e.k - 1})
		}
	}
	if rerr != nil && rerr.Outcome == machine.Interrupted {
		e.report.Stopped = e.interruptReason()
		return false
	}
	if rerr != nil && rerr.Outcome != machine.HaltOK && !e.mispredict {
		isBug := rerr.Outcome == machine.Aborted || rerr.Outcome == machine.Crashed ||
			(rerr.Outcome == machine.StepLimit && e.opts.ReportStepLimit)
		if isBug {
			if e.claimBug(bugSig(rerr)) {
				e.report.Bugs = append(e.report.Bugs, Bug{
					Kind:   rerr.Outcome,
					Msg:    rerr.Msg,
					Pos:    rerr.Pos,
					Run:    e.report.Runs,
					Inputs: copyIM(e.im),
				})
				e.metrics.Add(obs.CBugs, 1)
				e.emit(obs.Event{Kind: obs.BugFound, Run: e.report.Runs,
					Outcome: rerr.Outcome.String(), Msg: rerr.Msg, Pos: rerr.Pos.String()})
			}
			if e.opts.StopAtFirstBug {
				e.report.Stopped = StopFirstBug
				return false
			}
		}
	}
	return true
}

// childItems builds the pending-flip children of a finished run: one
// item per flippable conditional at index >= bound (the generational
// expansion rule).  The children share one parentRun: the run's path
// constraint is indexed once for all of them.
//
// The run's input vector passes to the children without a copy: the
// engine writes e.im only while running, and it replaces e.im (solveItem
// on Sat, frontierRoot) before it runs again.
func (e *engine) childItems(branches []machine.BranchRec, bound int) []frontierItem {
	run := &parentRun{outcomes: make([]bool, len(branches)), path: solver.NewPath(len(branches)), im: e.im}
	var kids []frontierItem
	for j, rec := range branches {
		run.outcomes[j] = rec.Taken
		if !rec.HasPred {
			continue
		}
		n := run.path.Len()
		run.path.Add(rec.Pred)
		if j < bound {
			continue
		}
		if rec.Decision && !rec.Taken && e.decisionDepth(rec) >= e.opts.MaxShapeDepth {
			if rec.Site >= 0 {
				e.exp.RecordDepthLimit(rec.Site, rec.Pos.String(), !rec.Taken)
			}
			continue // shape-depth cap
		}
		var pos string
		if e.prof != nil || e.exp != nil {
			pos = rec.Pos.String()
		}
		kids = append(kids, frontierItem{
			parent:    run,
			n:         n,
			flipTaken: !rec.Taken,
			depth:     j,
			site:      rec.Site,
			pos:       pos,
		})
	}
	if len(kids) > 0 {
		run.hint = e.hint(run.path, run.im, nil)
	}
	return kids
}

// noteDropped accounts pending flips discarded on MaxFrontier overflow:
// the count reaches the report, the metrics registry, the trace, and —
// per discarded item — the explainer's ledger (each dropped flip is an
// abandoned subtree at a known site).  A completeness loss is never
// silent.
func (e *engine) noteDropped(items []frontierItem) {
	n := len(items)
	if n <= 0 {
		return
	}
	e.report.FrontierDropped += n
	e.metrics.Add(obs.CFrontierDropped, int64(n))
	if e.exp != nil {
		for _, it := range items {
			if it.site >= 0 {
				e.exp.RecordDropped(it.site, it.pos, it.flipTaken)
			}
		}
	}
	if e.obs != nil {
		e.emit(obs.Event{Kind: obs.FrontierDrop, Run: e.report.Runs, Dropped: n})
	}
}

// solveItem solves one pending flip's path constraint.  On Sat it
// installs the solved values into the engine's input vector (IM + IM':
// untouched inputs keep the parent run's values) and predicts the
// prefix-plus-flip branch sequence on the stack, returning true: the
// item is ready to execute.  Any other verdict marks the item abandoned
// (false), accounting solver failures and completeness exactly like the
// classic engine.
func (e *engine) solveItem(item frontierItem) bool {
	run := item.parent
	e.report.SolverCalls++
	e.metrics.Observe(obs.HPCLen, int64(item.n+1))
	e.metrics.Observe(obs.HFrontierDepth, int64(item.depth))
	// The parent's input vector is only read while the flip is solved;
	// it is copied on Sat, when a run follows.
	e.im = run.im
	var target string
	if e.obs != nil {
		target = itemPath(item)
		e.emit(obs.Event{Kind: obs.SolverCall, Run: e.report.Runs, Depth: item.depth, PCLen: item.n + 1, Path: target, Site: item.site + 1})
	}
	sol, verdict, work := e.solveIsolated(run.path, item.n, run.hint, item.depth)
	if e.obs != nil {
		ev := e.verdictEvent(item.depth, verdict, work)
		ev.Site = item.site + 1
		e.emit(ev)
	}
	e.prof.RecordSolve(item.site, item.pos, verdict.String(), work, e.lastSolve.solveNS, e.lastSolve.cache)
	if item.site >= 0 {
		e.exp.RecordSolve(item.site, item.pos, item.flipTaken, verdict.String(), e.lastSolve.unsatSlice)
	}
	if verdict != solver.Sat {
		if verdict == solver.BudgetExhausted {
			e.report.SolverComplete = false
		}
		e.report.SolverFailures++
		return false
	}
	e.metrics.Add(obs.CBranchFlips, 1)
	e.prof.RecordFlip(item.site, item.pos)
	if e.obs != nil {
		e.emit(obs.Event{Kind: obs.BranchFlip, Run: e.report.Runs, Depth: item.depth, Path: target, Site: item.site + 1})
	}
	e.im = copyIM(run.im)
	for v, val := range sol {
		e.im[e.regs.keyOf(v)] = val
	}

	// Predict the prefix plus the flipped branch.
	prefix := run.outcomes[:item.depth]
	e.stack = make([]stackEntry, 0, len(prefix)+1)
	for _, b := range prefix {
		e.stack = append(e.stack, stackEntry{branch: b, done: true})
	}
	e.stack = append(e.stack, stackEntry{branch: item.flipTaken, done: true})
	return true
}

// processItem solves and executes one pending flip, returning the
// children it spawned and whether the search may continue (false means
// stop: Stopped is set on the engine's report).  It is the whole
// per-item pipeline shared by the sequential drain loop and the
// parallel workers; a parallel engine additionally reserves one slot of
// the shared run budget before executing (solver-only items — infeasible
// flips — consume no budget, matching the sequential loop's accounting).
func (e *engine) processItem(item frontierItem) (kids []frontierItem, cont bool) {
	if reason, stop := e.tripped(); stop {
		e.report.Stopped = reason
		return nil, false
	}
	if !e.solveItem(item) {
		return nil, true
	}
	if e.shared != nil && !e.shared.reserveRun() {
		e.report.Stopped = StopMaxRuns
		return nil, false
	}
	if e.obs != nil {
		e.emit(obs.Event{Kind: obs.RunStart, Run: e.report.Runs + 1})
	}
	m, rerr, fault := e.runIsolated()
	if fault != nil {
		if !e.noteFault(fault) {
			return nil, false // persistent internal failure; Stopped is set
		}
		return nil, true // the faulting item is abandoned; keep draining
	}
	if !e.recordRun(m, rerr) {
		return nil, false
	}
	if e.mispredict {
		if e.exp != nil && item.site >= 0 {
			// The diverged run was forcing this item's flip; it is now
			// abandoned unexplored.
			e.exp.RecordMispredict(item.site, item.pos, item.flipTaken)
		}
		return nil, true // an imprecise prefix; the item is abandoned
	}
	return e.childItems(m.Branches, item.depth+1), true
}

// frontierRoot performs the fresh-random root executions of a frontier
// search until one completes without mispredicting, returning its
// children (cont=false when the search stopped instead; Stopped is set
// except on plain budget exhaustion, which Run's fallback labels
// StopMaxRuns).
func (e *engine) frontierRoot() (kids []frontierItem, cont bool) {
	for {
		if e.shared == nil && e.report.Runs >= e.opts.MaxRuns {
			return nil, false
		}
		if reason, stop := e.tripped(); stop {
			e.report.Stopped = reason
			return nil, false
		}
		if e.shared != nil && !e.shared.reserveRun() {
			e.report.Stopped = StopMaxRuns
			return nil, false
		}
		e.stack = nil
		e.im = map[string]int64{}
		if e.report.Runs > 0 {
			e.report.Restarts++
			e.metrics.Add(obs.CRestarts, 1)
			if e.obs != nil {
				e.emit(obs.Event{Kind: obs.Restart, Run: e.report.Runs})
			}
		}
		if e.obs != nil {
			e.emit(obs.Event{Kind: obs.RunStart, Run: e.report.Runs + 1})
		}
		m, rerr, fault := e.runIsolated()
		if fault != nil {
			if !e.noteFault(fault) {
				return nil, false // persistent internal failure; Stopped is set
			}
			continue // retry the root with fresh randoms
		}
		if !e.recordRun(m, rerr) {
			return nil, false
		}
		if !e.mispredict {
			return e.childItems(m.Branches, 0), true
		}
		// A root run cannot mispredict (empty prediction); defensive.
	}
}

// runFrontier drives the sequential frontier search. It reuses the
// engine's input registry, machine construction, and report accounting.
func (e *engine) runFrontier() {
	var queue []frontierItem
	if e.timeline != nil {
		// Timeline samples carry the pending-flip backlog.
		e.qlen = func() int { return len(queue) }
	}

	// Root run: fresh random inputs, no prediction.
	kids, cont := e.frontierRoot()
	if !cont {
		return
	}
	queue = e.enqueue(queue, kids)

	for len(queue) > 0 && e.report.Runs < e.opts.MaxRuns {
		item := e.popItem(&queue)
		kids, cont := e.processItem(item)
		if !cont {
			return
		}
		queue = e.enqueue(queue, kids)
	}

	if len(queue) == 0 {
		e.report.Stopped = StopExhausted
		if e.report.FrontierDropped == 0 && e.searchComplete() && e.report.Runs < e.opts.MaxRuns {
			e.report.Complete = true
		}
	}
}

// enqueue appends kids to the sequential work list, enforcing
// MaxFrontier by dropping the deepest pending flips (counted, never
// silent) and sampling the backlog histogram.
func (e *engine) enqueue(queue []frontierItem, kids []frontierItem) []frontierItem {
	if len(kids) == 0 {
		return queue
	}
	queue = append(queue, kids...)
	if len(queue) > e.opts.MaxFrontier {
		e.noteDropped(queue[e.opts.MaxFrontier:])
		queue = queue[:e.opts.MaxFrontier]
	}
	e.metrics.Observe(obs.HFrontierQueue, int64(len(queue)))
	return queue
}

// itemPath is the forced target path of a frontier item: the recorded
// prefix outcomes followed by the flipped branch outcome, as a bit
// string aligned with RunEnd path encoding.
func itemPath(item frontierItem) string {
	prefix := item.parent.outcomes[:item.depth]
	b := make([]byte, len(prefix)+1)
	for i, taken := range prefix {
		b[i] = pathBit(taken)
	}
	b[len(prefix)] = pathBit(item.flipTaken)
	return string(b)
}

// popItem removes and returns the next item per the strategy.
func (e *engine) popItem(queue *[]frontierItem) frontierItem {
	q := *queue
	idx := 0
	switch e.opts.Strategy {
	case BFS:
		// Shallowest flip first.
		for i := 1; i < len(q); i++ {
			if q[i].depth < q[idx].depth {
				idx = i
			}
		}
	case RandomBranch:
		idx = int(e.rand.Intn(int64(len(q))))
	default:
		// LIFO (newest first): depth-first frontier order.
		idx = len(q) - 1
	}
	item := q[idx]
	q[idx] = q[len(q)-1]
	*queue = q[:len(q)-1]
	return item
}
