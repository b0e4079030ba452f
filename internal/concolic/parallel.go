// The work-stealing pool: the generational frontier search of
// frontier.go on Options.Workers workers.  BFS and RandomBranch run on
// it at every worker count, DFS only at Workers > 1 (at one worker DFS
// keeps the paper's stack).  With one worker the pool is the sequential
// frontier: one deque popped in strategy order, no steals or idling, the
// run budget checked before every solve, bugs in discovery order, and
// no worker id on events.
//
// A pending flip is a complete, self-contained program run (recorded
// prefix, negated predicate, parent input vector), so the frontier
// worklist parallelizes without touching the algorithm: N workers pull
// items from per-worker deques, stealing from a sibling's oldest end
// when their own runs dry.  Each worker owns a full engine — its own
// machine, symbolic evaluation, forked RNG stream, and report — while
// sharing exactly what the embedded sharedSearch holds: the program IR
// (read-only), the input registry (so symbolic variable numbering, and
// with it predicate rendering and solve-cache keys, means the same
// input in every worker), one sharded solve cache, and the search-wide
// ledger.
//
// Determinism modulo worker count: the generational rule attempts every
// feasible path exactly once regardless of pop order, so on searches
// that exhaust their execution tree the bug set, branch coverage, and
// completeness flags are identical for every Workers value.  What may
// legitimately differ is scheduling texture — per-worker run indices,
// which worker finds a bug first, cache hit rates, don't-care input
// padding.  The report finisher (finish) is correspondingly canonical.
package concolic

import (
	"sync"
	"time"

	"dart/internal/obs"
	"dart/internal/rng"
)

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
// flips dropped first), returning the kept
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

// runPool runs the frontier search on the pool: one root run seeds the
// deques, the workers drain them, and the per-worker reports merge
// through finish.  Supervision (deadline, cancel, faults) works as for
// the classic stack.  The Observer, when set, must be safe for
// concurrent use (the bundled sinks are); at Workers > 1 each event
// carries its worker's 1-based id.
func (s *sharedSearch) runPool() *Report {
	nw := s.opts.Workers
	workers := make([]*engine, nw)
	for i := range workers {
		workers[i] = s.newEngine(i, true)
	}
	sc := newSched(nw, s.opts.MaxFrontier, s.opts.Strategy)
	if s.timeline != nil {
		for _, w := range workers {
			w.qlen = sc.qlen
		}
	}

	// Root run: worker 1 executes the fresh-random root on the seed's
	// pristine stream, so the root draws the same padding at any worker
	// count; its children seed every deque round-robin.
	root := workers[0]
	kids, cont := root.frontierRoot()
	// Now that the root has consumed its draws, give every sibling an
	// independent stream forked off worker 1's.  Forking advances the
	// parent state, so each worker's stream is distinct from the others'
	// and from worker 1's own later draws.
	for _, w := range workers[1:] {
		w.in.rand = root.in.rand.Fork()
	}
	if cont {
		dropped, qlen := sc.seed(kids)
		root.enqueued(kids, dropped, qlen)
		var wg sync.WaitGroup
		for i, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.workerLoop(sc, i)
			}()
		}
		wg.Wait()
		if sc.drained() {
			s.noteStop(StopExhausted)
		}
	}

	rep := s.finish(workers)
	// Theorem 1(b) for the pool: every worker kept every completeness
	// flag, nothing was dropped, no bug truncated a path, no fault
	// skipped work, and the run budget never bit.
	rep.Complete = rep.Stopped == StopExhausted && rep.FrontierDropped == 0 &&
		reportComplete(rep) && rep.Runs < s.opts.MaxRuns
	return rep
}

// workerLoop is one worker's life: pull a pending flip (stealing when
// starved), process it, return the children, repeat until the worklist
// drains or the search aborts.
func (e *engine) workerLoop(sc *sched, w int) {
	for {
		var t0 time.Time
		if e.prof != nil {
			t0 = time.Now()
		}
		item, ok, stole, idled := sc.next(w, e.in.rand)
		if e.prof != nil {
			// The scheduling tax: time this worker spent on the
			// scheduler (stealing and idling included).
			e.prof.Span(obs.SpanFrontierWait, time.Since(t0))
		}
		if idled {
			e.emit(&obs.Event{Kind: obs.FrontierIdle, Run: e.report.Runs})
		}
		if !ok {
			return
		}
		if stole {
			e.report.Steals++
			e.emit(&obs.Event{Kind: obs.FrontierSteal, Run: e.report.Runs, Depth: item.depth})
		}
		kids, cont := e.processItem(item)
		if !cont {
			sc.quit()
			return
		}
		dropped, qlen := sc.finish(w, kids)
		e.enqueued(kids, dropped, qlen)
	}
}
