// Supervision of the directed search: wall-clock deadlines,
// cooperative cancellation, and panic isolation.
//
// The paper's headline workloads — auditing all 600+ exported oSIP
// functions, multi-day SGLIB searches — only work unattended if a hung,
// diverging, or internally-faulting search cannot take down the batch.
// Every entry point of this package is therefore time-bounded (the
// machine polls the deadline every few thousand instructions),
// cancellable, and panic-isolated: an internal fault becomes a
// structured InternalError diagnostic on the report, completeness is
// cleared, and the search continues with fresh randoms — or, when the
// fault is persistent, stops gracefully with StopInternal.  Found bugs
// stay sound either way (Theorem 1(a) is per-bug: each reported input
// vector still replays to its error).
package concolic

import (
	"fmt"
	"time"

	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/solver"
	"dart/internal/symbolic"
)

// maxInternalFaults bounds how many isolated panics a single search
// tolerates before giving up: a fault that recurs on every fresh random
// restart is persistent, and retrying forever would burn the whole run
// budget producing identical diagnostics.
const maxInternalFaults = 8

// tripped reports whether the search must stop now — its cancel
// channel closed or its deadline passed — and why.  Cancellation wins
// over the deadline when both have tripped.
func (e *engine) tripped() (StopReason, bool) {
	if e.opts.Cancel != nil {
		select {
		case <-e.opts.Cancel:
			return StopCancelled, true
		default:
		}
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		return StopDeadline, true
	}
	return "", false
}

// interruptReason maps a machine-level Interrupted outcome back to the
// supervisor condition that caused it.
func (e *engine) interruptReason() StopReason {
	if reason, stop := e.tripped(); stop {
		return reason
	}
	// The deadline was observed inside the machine but the clock moved;
	// attribute to the deadline, the only other interrupt source.
	return StopDeadline
}

// runIsolated executes the driver once behind a recover barrier,
// converting machine-construction failures and internal panics into
// structured InternalError diagnostics instead of crashing the process.
func (e *engine) runIsolated() (m *machine.Machine, rerr *machine.RunError, fault *InternalError) {
	if e.prof != nil {
		// One fused span per run: the machine evaluates the concrete
		// execution and its symbolic shadow in the same instruction
		// loop, so splitting them would need per-instruction hooks.
		t0 := time.Now()
		defer func() { e.prof.Span(obs.SpanExec, time.Since(t0)) }()
	}
	defer func() {
		if r := recover(); r != nil {
			fault = &InternalError{
				Phase:  "run",
				Msg:    fmt.Sprintf("panic: %v", r),
				Run:    e.report.Runs + 1,
				Inputs: e.im.named(e.regs),
			}
			m, rerr = nil, nil
		}
	}()
	var err error
	m, rerr, err = e.drv.run()
	if err != nil {
		fault = &InternalError{
			Phase:  "init",
			Msg:    err.Error(),
			Run:    e.report.Runs + 1,
			Inputs: e.im.named(e.regs),
		}
		m, rerr = nil, nil
	}
	if m != nil {
		// Shadow-evaluation count: the taint bitmap's pay-as-you-go
		// measure (zero on fully concrete programs under the compiled
		// engine).
		e.prof.AddCount(obs.SpanShadow, m.ShadowEvals())
	}
	return m, rerr, fault
}

// fault books one isolated internal fault on the engine's report and
// against the search-wide fault budget, returning the search's total.
func (e *engine) fault(f InternalError) int {
	e.report.InternalErrors = append(e.report.InternalErrors, f)
	return e.addFault()
}

// noteFault books a run's internal fault and reports whether the search
// may continue with fresh randoms.  Machine-construction failures are
// deterministic (they precede any input-dependent behavior), so they
// stop the search immediately, as does an accumulation of repeated
// faults — counted search-wide, so a fault storm hitting every worker of
// a pool is the same persistent failure one engine would see; either way
// the search stops with StopInternal.
func (e *engine) noteFault(f *InternalError) bool {
	if f.Phase == "run" {
		// The faulting execution consumed real work: it is a run in every
		// view, and counts against the run budget so a persistent fault
		// cannot loop unboundedly.
		e.recordRun(nil, nil)
	}
	if e.fault(*f) >= maxInternalFaults || f.Phase == "init" {
		e.noteStop(StopInternal)
		return false
	}
	return true
}

// solveIsolated answers one path-constraint solve for the engines
// through the solver fast path, under the configured work budget and
// behind a recover barrier.  A solver panic is reported as an
// InternalError, clears SolverComplete (the branch's feasibility is now
// unknown), and is answered as Unsat so the caller abandons the flip and
// keeps searching.
//
// The fast path runs in three steps, identical whether the memo layers
// are on or off so a fixed seed produces the identical Report at any
// setting:
//
//  1. Slice: reduce the flip constraint preds[:n] ∧ ¬preds[n] of the
//     run's indexed path to the connected component of its final
//     (negated) predicate, in path order; the pruned predicates depend
//     only on variables the solve will not touch, whose concrete
//     parent-run values IM + IM' preserves.
//  2. Answer the slice through one memo chain: the in-memory LRU (keyed
//     by CacheKey's bytes, which the path renders from its index and
//     hint into the engine's scratch, and which a hit looks up without
//     a copy; its model is the stored map, which the engine only
//     reads), then the persistent disk layer (keyed by PortableKey's
//     bytes, which render stable input names and can therefore outlive
//     the search; the engine renders them into its own buffer, and the
//     disk layer looks them up without a copy), then the solver, whose
//     slice-level result fills both layers (a disk hit is promoted into
//     the LRU).  Either key renders the exact solver input, so a hit
//     returns precisely what the fresh solve would.  The hint map the
//     disk key and the solver take is built only when the LRU missed.
//     The LRU sits out a search's first solveCacheWarmup solves (counted
//     as misses), keeping the fast path free for tiny searches.
//  3. One tail for every answer: render the explainer's unsat proof,
//     and verify a Sat model against the *full* original conjunction
//     with overflow-checked evaluation when slicing pruned predicates
//     or the disk layer answered (downgrading to Unsat on failure) —
//     re-establishing the solver package's soundness contract at the
//     full-conjunction level.  An unpruned solve the solver or the LRU
//     answered needs no second pass: the solver's own final
//     verification already covered the whole conjunction.  A disk
//     answer never ran the solver in this process, and the solve log
//     is untrusted input, so its Sat is verified before the LRU may
//     hold it; one that fails is not memoized.
//
// solveIsolated counts nothing: it returns one outcome, which attempt
// books.  A cached BudgetExhausted verdict still clears SolverComplete
// there, exactly like a fresh one.  Only a fresh solve reports work and
// solver time (they measure the solver, not the memo).
//
// solveCacheWarmup is the number of solver calls a search performs
// before its solve cache engages.  Searches this short re-solve nothing,
// so consulting and filling the memo would be pure overhead; longer
// searches lose at most this many potential hits (each warmup-era key is
// memoized on its second occurrence instead of its first).
const solveCacheWarmup = 8

// solveOutcome is everything one solve decided, for attempt to book.
type solveOutcome struct {
	model   map[symbolic.Var]int64
	verdict solver.Verdict
	// work is the solver work of a fresh solve (zero for a memo answer).
	work int64
	// sliced is the number of predicates independence slicing pruned.
	sliced int
	// cache is the memo layer that answered: "hit" (LRU), "disk", "miss"
	// (both layers missed), or "" when the LRU is off and the disk layer
	// missed.
	cache string
	// evicted reports that memoizing the answer evicted an LRU entry.
	evicted bool
	// solveNS is the wall time of the solver call proper, read only when
	// a metrics registry or the profiler is attached (zero for memo
	// answers).
	solveNS int64
	// unsatSlice is the genuine-unsat infeasibility proof for the
	// coverage explainer: the solved slice rendered with stable input-key
	// variable names (Var numbering is first-use order and races across
	// parallel workers; key names do not).  Empty unless the explainer is
	// on and the solver itself answered Unsat.
	unsatSlice string
	// unproven marks an Unsat that refutes nothing — a solver panic, or
	// a model the full conjunction rejected — which clears
	// SolverComplete like an exhausted budget.
	unproven bool
}

func (e *engine) solveIsolated(path *solver.Path, n int) (out solveOutcome) {
	defer func() {
		if r := recover(); r != nil {
			e.fault(InternalError{
				Phase:  "solver",
				Msg:    fmt.Sprintf("panic: %v", r),
				Run:    e.report.Runs,
				Inputs: e.im.named(e.regs),
			})
			out.model, out.verdict, out.work, out.unproven = nil, solver.Unsat, 0, true
		}
	}()

	var t0 time.Time
	if e.prof != nil {
		t0 = time.Now()
	}
	slice, pruned := path.Slice(n, &e.scratch)
	if e.prof != nil {
		e.prof.Span(obs.SpanSlice, time.Since(t0))
	}
	out.sliced = pruned

	// key is the LRU key, rendered into e.scratch: valid until the
	// scratch renders another.  The disk key is rendered into e.pkey.
	var key []byte
	answered := false
	useCache := e.cache != nil && e.report.SolverCalls >= solveCacheWarmup
	if useCache {
		if e.prof != nil {
			t0 = time.Now()
		}
		key = path.Key(&e.scratch)
		hit, ok := e.cache.Get(key)
		if e.prof != nil {
			e.prof.Span(obs.SpanCacheLookup, time.Since(t0))
		}
		if ok {
			answered = true
			out.cache = "hit"
			out.model, out.verdict = hit.Model, hit.Verdict
		}
	}
	var hint map[symbolic.Var]int64
	if !answered {
		hint = path.Hint(&e.scratch)
	}
	// checked marks a Sat already verified against the full conjunction
	// (with sound the result), so the tail does not verify it again.
	checked, sound := false, true
	if !answered && e.opts.Persistent != nil {
		if e.prof != nil {
			t0 = time.Now()
		}
		e.pkey = solver.AppendPortableKey(e.pkey[:0], &e.portable, slice, hint, e.opts.SolverBudget, e.varName, e.meta)
		pr, ok := e.opts.Persistent.GetPortable(e.pkey)
		var psol map[symbolic.Var]int64
		if ok {
			psol, ok = e.portableModel(pr.Model)
		}
		if e.prof != nil {
			e.prof.Span(obs.SpanCacheLookup, time.Since(t0))
		}
		if ok {
			answered = true
			out.cache = "disk"
			out.model, out.verdict = psol, pr.Verdict
			// The solve log is untrusted input: a Sat it answers is
			// verified before the LRU may hold it, because LRU hits on
			// unpruned slices are not verified again.
			if out.verdict == solver.Sat {
				checked, sound = true, e.verifyTimed(path, n, out.model)
			}
			if useCache && sound {
				out.evicted = e.cache.Put(key, out.verdict, out.model)
			}
		}
	}
	if !answered {
		if e.cache != nil {
			// Both memo layers missed (during warmup a hit was impossible —
			// that still counts: the accounting answers "how often did the
			// fast path spare a solver call", and here it did not).
			out.cache = "miss"
		}
		var start time.Time
		if e.metrics != nil || e.prof != nil {
			start = time.Now()
		}
		var stats solver.Stats
		out.model, out.verdict, stats = solver.SolveWorkStats(slice, e.meta, hint, e.opts.SolverBudget)
		out.work = stats.Work
		if e.metrics != nil || e.prof != nil {
			d := time.Since(start)
			e.prof.Span(obs.SpanSolve, d)
			out.solveNS = int64(d)
			e.metrics.Observe(obs.HSolverLatencyUS, d.Microseconds())
		}
		// Memoize the slice-level result (pre-verification: the pruned
		// predicates of *this* pc play no part in the entry, so the entry
		// is valid for any future pc producing the same slice and hint).
		if useCache {
			out.evicted = e.cache.Put(key, out.verdict, out.model)
		}
		if e.opts.Persistent != nil {
			e.opts.Persistent.PutPortable(e.pkey, out.verdict, e.namedModel(out.model))
		}
	}

	if out.verdict == solver.Unsat && e.exp != nil {
		out.unsatSlice = symbolic.PathConstraint(slice).StringNamed(e.varName)
	}
	if out.verdict == solver.Sat && pruned > 0 && !checked {
		sound = e.verifyTimed(path, n, out.model)
	}
	if !sound {
		// The model fails the full conjunction under overflow-checked
		// evaluation: the parent run's concrete values reached here
		// through a wrap the solver's exact arithmetic cannot express,
		// or the solve log answered wrongly.  The branch's feasibility
		// is unknown, not refuted — answer Unsat so the search moves on,
		// but clear SolverComplete: Theorem 1(b) no longer holds.
		out.model, out.verdict, out.unproven = nil, solver.Unsat, true
	}
	return out
}

// portableModel translates a persistent-cache model (keyed by stable
// input names) into this search's Var numbering.  A name this search has
// not registered means the entry cannot be applied here (it should not
// happen — the portable key renders exactly the slice's variables — but
// a corrupt or adversarial store must degrade to a miss, never to a
// wrong model), so ok is false and the caller solves fresh.
func (e *engine) portableModel(m map[string]int64) (map[symbolic.Var]int64, bool) {
	if m == nil {
		return nil, true
	}
	out := make(map[symbolic.Var]int64, len(m))
	for name, val := range m {
		in, ok := e.regs.Lookup(name)
		if !ok {
			return nil, false
		}
		out[in.Var] = val
	}
	return out, true
}

// namedModel renders a solver model under stable input-key names, the
// form the persistent cache stores, into a fresh map: PutPortable takes
// ownership of it.
func (e *engine) namedModel(sol map[symbolic.Var]int64) map[string]int64 {
	if sol == nil {
		return nil
	}
	out := make(map[string]int64, len(sol))
	for v, val := range sol {
		out[e.regs.Leaves()[v].Key] = val
	}
	return out
}

// verifyTimed is Path.Verify under the profiler's verify span (a plain
// passthrough when profiling is off).
func (e *engine) verifyTimed(path *solver.Path, n int, sol map[symbolic.Var]int64) bool {
	if e.prof == nil {
		return path.Verify(n, e.meta, sol, &e.scratch)
	}
	t0 := time.Now()
	ok := path.Verify(n, e.meta, sol, &e.scratch)
	e.prof.Span(obs.SpanVerify, time.Since(t0))
	return ok
}

// reportComplete reports whether an exhausted execution tree proves
// Theorem 1(b) for r.  Beyond the paper's all_linear/all_locs_definite
// flags, completeness also requires that no bug truncated a path, no
// solve was abandoned on budget exhaustion, and no internal fault
// skipped part of the space.
func reportComplete(r *Report) bool {
	return r.AllLinear && r.AllLocsDefinite &&
		r.SolverComplete && r.Mispredicts == 0 &&
		len(r.Bugs) == 0 && len(r.InternalErrors) == 0
}
