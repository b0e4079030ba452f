package concolic

import (
	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/solver"
)

// The frontier implements the alternative branch-selection orders of the
// paper's footnote 4 ("the next branch to be forced could be selected
// using a different strategy, e.g., randomly or in a breadth-first
// manner").
//
// The single-stack bookkeeping of Figs. 4-5 is only exhaustive when the
// *deepest* unexplored branch is flipped first: flipping a shallow entry
// truncates the stack and silently abandons the unexplored subtree of
// the original branch.  The frontier therefore keeps a work list of
// pending flips instead.  Each executed path enqueues one child per
// flippable conditional at index >= the path's own lower bound, and a
// child's bound is its flip index + 1 — the "generational search" rule
// (later popularized by SAGE) under which every feasible path is
// attempted exactly once regardless of pop order.  BFS pops the
// shallowest pending flip, RandomBranch a uniformly random one.
//
// Because a pending flip is a complete, self-contained program run —
// recorded prefix, negated predicate, parent input vector — the frontier
// is also the unit of parallelism: the work-stealing pool of parallel.go
// hands frontierItems to its workers, each processing them through the
// methods below.  BFS and RandomBranch at one worker are that pool with
// one worker; only DFS at one worker runs the paper's stack instead.

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
	// decisions); it travels with the item because the solving worker no
	// longer holds the parent run's branch records.
	site int
}

// parentRun is what the pending flips of one finished run share,
// read-only once built: the run's branch outcomes, its indexed path
// constraint with the run's inputs as its hint, and the input vector
// that drove it.
type parentRun struct {
	outcomes []bool
	path     *solver.Path
	im       *vector
}

// childItems builds the pending-flip children of a finished run: one
// item per flippable conditional at index >= bound (the generational
// expansion rule).  The children share one parentRun: the run's path
// constraint and hint are indexed once for all of them, before any child
// reaches the pool.
//
// The run's input vector passes to the children without a copy: the
// engine writes e.im only while running, and it replaces e.im with a
// copy (solveItem on Sat) before it runs again; only the root run, which
// no child precedes, restarts on a cleared vector (frontierRoot).
func (e *engine) childItems(branches []machine.BranchRec, bound int) []frontierItem {
	npreds := 0
	for _, rec := range branches {
		if rec.HasPred {
			npreds++
		}
	}
	run := &parentRun{outcomes: make([]bool, len(branches)), path: solver.NewPath(npreds), im: e.im}
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
				e.exp.RecordDepthLimit(rec.Site, !rec.Taken)
			}
			continue // shape-depth cap
		}
		kids = append(kids, frontierItem{parent: run, n: n, flipTaken: !rec.Taken, depth: j, site: rec.Site})
	}
	if len(kids) > 0 {
		run.path.SetHint(run.im.get)
	}
	return kids
}

// enqueued accounts one hand-off of kids to the scheduler: the items
// dropped on MaxFrontier overflow reach the report, the trace and — per
// discarded item — the explainer's ledger (each dropped flip is an
// abandoned subtree at a known site), so a completeness loss is never
// silent; a non-empty hand-off samples the resulting backlog qlen.
func (e *engine) enqueued(kids, dropped []frontierItem, qlen int) {
	if len(kids) > 0 {
		e.metrics.Observe(obs.HFrontierQueue, int64(qlen))
	}
	if len(dropped) == 0 {
		return
	}
	e.report.FrontierDropped += len(dropped)
	for _, it := range dropped {
		if it.site >= 0 {
			e.exp.RecordDropped(it.site, it.flipTaken)
		}
	}
	e.emit(&obs.Event{Kind: obs.FrontierDrop, Run: e.report.Runs, Dropped: len(dropped)})
}

// solveItem solves one pending flip's path constraint.  On Sat it
// installs the solved values into the engine's input vector (IM + IM':
// untouched inputs keep the parent run's values), predicts the
// prefix-plus-flip branch sequence on the stack and targets the flip,
// returning true: the item is ready to execute.
func (e *engine) solveItem(item frontierItem) bool {
	run := item.parent
	f := flipRef{ok: true, site: item.site, taken: item.flipTaken, depth: item.depth}
	// The parent's input vector is only read while the flip is solved;
	// it is copied on Sat, when a run follows.
	e.im = run.im
	if e.obs != nil {
		f.path = itemPath(item)
	}
	sol, ok := e.attempt(f, run.path, item.n)
	if !ok {
		return false
	}
	e.im = run.im.clone()
	for v, val := range sol {
		e.im.set(v, val)
	}
	e.flip = f

	// Predict the prefix plus the flipped branch.
	prefix := run.outcomes[:f.depth]
	e.stack = make([]stackEntry, 0, len(prefix)+1)
	for _, b := range prefix {
		e.stack = append(e.stack, stackEntry{branch: b, done: true})
	}
	e.stack = append(e.stack, stackEntry{branch: f.taken, done: true})
	return true
}

// processItem solves and executes one pending flip, returning the
// children it spawned and whether the search may continue (false means
// stop; the reason is noted).  A spent run budget stops the worker
// before it solves, so no flip is solved that cannot run (an atomic
// load; the reservation itself happens when the run starts).
func (e *engine) processItem(item frontierItem) (kids []frontierItem, cont bool) {
	if !e.proceed() {
		return nil, false
	}
	if !e.solveItem(item) {
		return nil, true
	}
	m, _, cont := e.step()
	if !cont || m == nil || e.mispredict {
		// A stop; or a fault or an imprecise prefix, either of which
		// abandons the item.
		return nil, cont
	}
	return e.childItems(m.Branches, item.depth+1), true
}

// frontierRoot performs the fresh-random root executions of a frontier
// search until one completes without mispredicting, returning its
// children (cont=false when the search stopped instead).
func (e *engine) frontierRoot() (kids []frontierItem, cont bool) {
	for e.proceed() {
		e.fresh()
		m, _, cont := e.step()
		if !cont {
			return nil, false
		}
		if m != nil && !e.mispredict {
			return e.childItems(m.Branches, 0), true
		}
		// A fault (a root run cannot mispredict): retry with fresh
		// randoms.
	}
	return nil, false
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
