package concolic

import (
	"fmt"
	"math"
	"slices"

	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/rng"
	"dart/internal/solver"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// driver is the generated test driver of Fig. 7 on one pooled machine:
// each run initializes the extern globals as inputs, then calls the
// toplevel function Depth times, each call with fresh inputs keyed
// "d<depth>.<param>".  The search engines, RandomTest and ReplaySuite all
// run programs through it, so a recorded input vector names the same
// inputs to every one of them.
type driver struct {
	fn *ir.Func
	// roots are the toplevel's argument inputs by depth, interned on
	// first use so that Vars number inputs in the order runs reach them.
	roots [][]*machine.Input
	args  []machine.Value
	cfg   machine.Config
	// m is built on the first run and Reset between runs, so N runs
	// reuse one allocation footprint (memory arrays, branch records,
	// scratch stacks).
	m *machine.Machine
}

// newDriver builds the driver of s's toplevel function over cfg, which
// supplies the input source and the engine-specific hooks; the program,
// library bindings, step budget, deadline, cancel and code come from s.
func newDriver(s *sharedSearch, cfg machine.Config) *driver {
	o := s.opts
	cfg.Prog, cfg.LibImpls, cfg.MaxSteps, cfg.Trie = s.prog, o.LibImpls, o.MaxSteps, s.regs
	cfg.Deadline, cfg.Cancel, cfg.Code = s.deadline, o.Cancel, s.code
	d := &driver{fn: s.fn, roots: make([][]*machine.Input, o.Depth), args: make([]machine.Value, len(s.fn.Params)), cfg: cfg}
	for depth := range d.roots {
		d.roots[depth] = make([]*machine.Input, len(s.fn.Params))
	}
	return d
}

// run executes the driver once.  The returned machine carries the run's
// branch records and completeness flags; an input that cannot be set up
// ends the run as a crash, like any other memory fault of the program.
// A non-nil error means the machine could not even be built or reset
// (an engine failure, not a program error).
func (d *driver) run() (*machine.Machine, *machine.RunError, error) {
	if d.m == nil {
		m, err := machine.New(d.cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("machine construction: %w", err)
		}
		d.m = m
	} else if err := d.m.Reset(d.cfg.Inputs); err != nil {
		return nil, nil, fmt.Errorf("machine reset: %w", err)
	}
	m := d.m
	for depth, roots := range d.roots {
		for i, p := range d.fn.Params {
			if roots[i] == nil {
				name := p.Name
				if name == "" {
					name = fmt.Sprintf("arg%d", i)
				}
				roots[i] = d.cfg.Trie.Root(fmt.Sprintf("d%d.%s", depth, name), p.Type)
			}
			cell, err := m.Mem().Alloc(1)
			if err == nil {
				err = m.RandomInit(cell, roots[i])
			}
			if err == nil {
				d.args[i].V, d.args[i].Sym, err = m.Mem().Load(cell)
			}
			if err != nil {
				return m, &machine.RunError{Outcome: machine.Crashed, Msg: err.Error()}, nil
			}
		}
		if _, rerr := m.RunCall(d.fn.Name, d.args); rerr != nil {
			return m, rerr, nil
		}
	}
	return m, nil, nil
}

// vector is an input vector IM (Sec. 2.3) over the search's Vars: input
// v holds vals[v] when bit v of has is set.
type vector struct {
	vals []int64
	has  []uint64
}

func (im *vector) get(v symbolic.Var) (int64, bool) {
	if w := int(v >> 6); w < len(im.has) && im.has[w]&(1<<(v&63)) != 0 {
		return im.vals[v], true
	}
	return 0, false
}

func (im *vector) set(v symbolic.Var, x int64) {
	if int(v) >= len(im.vals) {
		im.vals = slices.Grow(im.vals, int(v)+1-len(im.vals))[:v+1]
		im.has = slices.Grow(im.has, int(v>>6)+1-len(im.has))[:v>>6+1]
	}
	im.vals[v] = x
	im.has[v>>6] |= 1 << (v & 63)
}

func (im *vector) clone() *vector {
	return &vector{vals: slices.Clone(im.vals), has: slices.Clone(im.has)}
}

// named renders im by input key, the form an input vector takes at the
// search's boundaries (bugs, internal errors, the run log).
func (im *vector) named(regs *machine.InputTrie) map[string]int64 {
	leaves, out := regs.Leaves(), map[string]int64{}
	for v, x := range im.vals {
		if _, ok := im.get(symbolic.Var(v)); ok {
			out[leaves[v].Key] = x
		}
	}
	return out
}

// inputVector is the engines' input source, Fig. 8's random_init over
// the input vector IM: an input in im reads its value; one not in it
// draws random bits (a fair coin for pointers) from rand and is recorded
// in im.  Only a directed engine's inputs are symbolic.
type inputVector struct {
	im       *vector
	rand     *rng.R
	symbolic bool
}

func (v *inputVector) ScalarInput(in *machine.Input) int64 {
	x, ok := v.im.get(in.Var)
	if !ok {
		b := in.Type.(*types.Basic)
		x = types.Truncate(b, v.rand.Bits(b.Bits()))
		v.im.set(in.Var, x)
	}
	return x
}

func (v *inputVector) PointerInput(in *machine.Input) bool {
	x, ok := v.im.get(in.Var)
	if !ok {
		if v.rand.Coin() {
			x = 1
		}
		v.im.set(in.Var, x)
	}
	return x != 0
}

func (v *inputVector) Symbolic() bool { return v.symbolic }

// step executes one run of the driver and books it: the start (a slot of
// the run budget, the flip the run forces, RunStart), the execution
// behind the fault barrier, and the end through noteFault or recordRun.
// m is nil when the run faulted; cont is false when the search must stop
// (the reason is noted).
func (e *engine) step() (m *machine.Machine, rerr *machine.RunError, cont bool) {
	if !e.reserveRun() {
		e.noteStop(StopMaxRuns)
		return nil, nil, false
	}
	if f := e.flip; f.ok {
		// A flip is booked when its run starts, so a search cut short by
		// its budget, deadline or cancel reports no flip it never ran.
		e.prof.RecordFlip(f.site)
		e.emit(&obs.Event{Kind: obs.BranchFlip, Run: e.report.Runs, Depth: f.depth, Path: f.path, Site: f.site + 1})
	}
	e.emit(&obs.Event{Kind: obs.RunStart, Run: e.report.Runs + 1})
	e.k, e.mispredict = 0, false
	e.in.im = e.im
	m, rerr, fault := e.runIsolated()
	if fault != nil {
		return nil, nil, e.noteFault(fault)
	}
	return m, rerr, e.recordRun(m, rerr)
}

// recordRun books one finished run — every run of every engine — into
// the engine's report, coverage, explain ledger, run log, timeline and
// events (which the metrics registry folds), claims its bug, and
// returns false when the search must stop (the reason is noted).  A nil
// m books a run the engine faulted on (noteFault): it ends with outcome
// internal-error, covers nothing and claims no bug.
func (e *engine) recordRun(m *machine.Machine, rerr *machine.RunError) bool {
	e.report.Runs++
	if m == nil {
		e.tickTimeline(0)
		e.emit(&obs.Event{Kind: obs.RunEnd, Run: e.report.Runs, Outcome: obs.OutcomeInternalError})
		return true
	}
	e.report.Steps += m.Steps()
	// A cleared completeness flag is announced once per run, after the
	// run: all_linear first, then all_locs_definite.
	if !m.AllLinear() {
		e.report.AllLinear = false
		e.emit(&obs.Event{Kind: obs.FallbackConcrete, Run: e.report.Runs, Flag: "all_linear"})
	}
	if !m.AllLocsDefinite() {
		e.report.AllLocsDefinite = false
		e.emit(&obs.Event{Kind: obs.FallbackConcrete, Run: e.report.Runs, Flag: "all_locs_definite"})
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
				e.exp.RecordFallback(rec.Site, !rec.Taken, rec.Fallback)
			}
		}
	}
	if e.cov != nil {
		newly = e.recordCov(m.Branches)
	}
	e.rec.observe(e.im, m.Branches)
	e.tickTimeline(newly)
	end := obs.Event{Kind: obs.RunEnd, Run: e.report.Runs, Steps: m.Steps(), Outcome: runOutcome(rerr)}
	if e.obs != nil {
		end.Path = pathString(m.Branches)
	}
	e.emit(&end)
	if e.mispredict {
		// Fig. 4 raised: the run diverged from the predicted prefix, so
		// the flip it was forcing is abandoned unexplored.
		e.report.Mispredicts++
		if e.flip.ok && e.flip.site >= 0 {
			e.exp.RecordMispredict(e.flip.site, e.flip.taken)
		}
		e.emit(&obs.Event{Kind: obs.Misprediction, Run: e.report.Runs, Depth: e.k - 1})
		return true
	}
	if rerr == nil || rerr.Outcome == machine.HaltOK {
		return true
	}
	if rerr.Outcome == machine.Interrupted {
		// Deadline or cancellation tripped mid-run: end the search with
		// what was gathered so far.
		e.noteStop(e.interruptReason())
		return false
	}
	if rerr.Outcome == machine.StepLimit && !e.opts.ReportStepLimit {
		return true
	}
	if e.claimBug(bugSig(rerr)) {
		e.report.Bugs = append(e.report.Bugs, Bug{
			Kind:   rerr.Outcome,
			Msg:    rerr.Msg,
			Pos:    rerr.Pos,
			Run:    e.report.Runs,
			Inputs: e.im.named(e.regs),
		})
		e.emit(&obs.Event{Kind: obs.BugFound, Run: e.report.Runs,
			Outcome: rerr.Outcome.String(), Msg: rerr.Msg, Pos: rerr.Pos.String()})
	}
	if e.opts.StopAtFirstBug {
		e.noteStop(StopFirstBug)
		return false
	}
	return true
}

// search is run_DART (Fig. 2) on the paper's stack: the DFS strategy at
// one worker.
func (e *engine) search() {
	for e.budgetLeft() {
		// Outer repeat: fresh random input vector, empty stack.
		e.fresh()
		directed, restart := true, false
		for directed && !restart {
			if !e.proceed() {
				return
			}
			m, rerr, cont := e.step()
			switch {
			case !cont:
				return
			case m == nil || e.mispredict:
				// A fault, or a misprediction (forcing_ok cleared): the
				// subtree cannot be searched from here; restart with
				// fresh random inputs.
				restart = true
			case rerr != nil && rerr.Outcome == machine.StepLimit && !e.opts.ReportStepLimit:
				// A non-terminating path cannot be extended reliably.
				restart = true
			default:
				// Fig. 5: pick the next branch to force and solve for
				// inputs.
				directed = e.solveNext(m.Branches)
			}
		}
		if !directed && reportComplete(e.report) {
			// Directed search exhausted the tree.  With all flags intact
			// and no abnormal run cutting a path short, this is Theorem
			// 1(b): every feasible path was exercised.  A crashed or
			// aborted run truncates its path before later conditionals,
			// so completeness cannot be claimed once a bug was found —
			// nor once a solve was abandoned on budget exhaustion or an
			// internal fault interrupted a run (see DESIGN.md,
			// "Supervision and graceful degradation").  Otherwise the
			// paper's outer loop continues with fresh randoms; MaxRuns
			// bounds it.
			e.report.Complete = true
			e.noteStop(StopExhausted)
			return
		}
	}
}

// fresh resets the engine to a fresh random input vector with nothing
// predicted, booking a restart unless no run has happened yet.
func (e *engine) fresh() {
	e.stack = nil
	clear(e.im.has)
	e.flip = flipRef{}
	if e.report.Runs > 0 {
		e.report.Restarts++
		e.emit(&obs.Event{Kind: obs.Restart, Run: e.report.Runs})
	}
}

// proceed reports whether the engine may go on toward its next run: the
// run budget has a slot left and neither the deadline nor a cancel has
// tripped.  Otherwise it notes why the search stops.
func (e *engine) proceed() bool {
	if !e.budgetLeft() {
		e.noteStop(StopMaxRuns)
		return false
	}
	if reason, stop := e.tripped(); stop {
		e.noteStop(reason)
		return false
	}
	return true
}

// onBranch is compare_and_update_stack (Fig. 4).
func (e *engine) onBranch(rec machine.BranchRec) error {
	k := e.k
	e.k++
	if k < len(e.stack) {
		if e.stack[k].branch != rec.Taken {
			// The prediction was not fulfilled: clear forcing_ok and
			// raise, restarting with fresh random inputs.
			e.mispredict = true
			return errMispredicted
		}
		if k == len(e.stack)-1 {
			// Both branches of the flipped conditional have now executed
			// with this history.
			e.stack[k].done = true
		}
		return nil
	}
	// New conditional beyond the predicted prefix: append (branch, 0);
	// conditions outside the theory can never be flipped, so their
	// entries are born done.  Decision records that would *grow* a
	// recursive input beyond the shape-depth cap are also born done —
	// the infinite input tree of a recursive type is searched only to
	// bounded depth.
	done := !rec.HasPred
	if rec.Decision && !done && !rec.Taken && e.decisionDepth(rec) >= e.opts.MaxShapeDepth {
		done = true
	}
	e.stack = append(e.stack, stackEntry{branch: rec.Taken, done: done})
	return nil
}

// decisionDepth counts the pointer indirections of the input behind a
// Decision record.
func (e *engine) decisionDepth(rec machine.BranchRec) int {
	if len(rec.Pred.L.Coeffs) != 1 {
		return 0
	}
	for v := range rec.Pred.L.Coeffs {
		return e.regs.Leaves()[v].Depth
	}
	return 0
}

// attempt answers one flip attempt — the solve of path's first n
// predicates with predicate n negated (Fig. 5), for both the classic
// stack and the frontier — and books the solve in one place: into the
// report, the events, the profile row and the explain ledger.  It
// returns the model, or false when the flip cannot be forced under its
// fixed prefix (infeasible, beyond the solver, or out of budget — the
// last also clears SolverComplete: the branch may have been feasible, so
// the search degrades toward random testing instead of grinding on an
// adversarial constraint system).
func (e *engine) attempt(f flipRef, path *solver.Path, n int) (map[symbolic.Var]int64, bool) {
	e.emit(&obs.Event{Kind: obs.SolverCall, Run: e.report.Runs, Depth: f.depth, PCLen: n + 1, Path: f.path, Site: f.site + 1})
	out := e.solveIsolated(path, n)
	r := e.report
	r.SolverCalls++
	r.SlicedPreds += int64(out.sliced)
	switch out.cache {
	case "hit":
		r.SolveCacheHits++
	case "disk":
		r.SolveCacheDiskHits++
	case "miss":
		r.SolveCacheMisses++
	}
	if out.evicted {
		r.SolveCacheEvictions++
	}
	verdict := out.verdict.String()
	if out.cache == "hit" {
		// The slice the memo answered: the flip's n+1 predicates less the
		// pruned ones.
		e.emit(&obs.Event{Kind: obs.SolveCacheHit, Run: r.Runs, Depth: f.depth, PCLen: n + 1 - out.sliced, Verdict: verdict})
	}
	e.emit(&obs.Event{Kind: obs.SolverVerdict, Run: r.Runs, Depth: f.depth, Site: f.site + 1,
		Verdict: verdict, Work: out.work, Sliced: out.sliced, Cache: out.cache, CacheEvict: out.evicted})
	e.prof.RecordSolve(f.site, verdict, out.work, out.solveNS, out.cache)
	if f.site >= 0 {
		// Ledger the attempt on the flip's target direction (and, on
		// unsat, the infeasibility proof).
		e.exp.RecordSolve(f.site, f.taken, verdict, out.unsatSlice)
	}
	if out.verdict != solver.Sat {
		if out.verdict == solver.BudgetExhausted || out.unproven {
			r.SolverComplete = false
		}
		r.SolverFailures++
		return nil, false
	}
	return out.model, true
}

// solveNext is solve_path_constraint (Fig. 5): negate the deepest
// unexplored branch predicate and solve the path-constraint prefix.  It
// returns false when the directed search is over.
func (e *engine) solveNext(branches []machine.BranchRec) bool {
	ktry := min(e.k, len(e.stack), len(branches))
	indexed := false
	for j := ktry - 1; j >= 0; j-- {
		if e.stack[j].done || !branches[j].HasPred {
			continue
		}
		if !indexed {
			// Index the run's path constraint once: every attempt below
			// solves a prefix of it with its last predicate negated, and
			// the input vector, the path's hint, stays the run's until a
			// flip succeeds.
			e.path.Reset()
			for _, rec := range branches[:ktry] {
				if rec.HasPred {
					e.path.Add(rec.Pred)
				}
			}
			e.path.SetHint(e.im.get)
			indexed = true
		}
		// The flip solves preds[:n] ∧ ¬preds[n]: n predicates precede
		// conditional j's.
		n := 0
		for _, rec := range branches[:j] {
			if rec.HasPred {
				n++
			}
		}
		f := flipRef{ok: true, site: branches[j].Site, taken: !branches[j].Taken, depth: j}
		if e.obs != nil {
			f.path = flipPath(branches, j)
		}
		sol, ok := e.attempt(f, &e.path, n)
		if !ok {
			// This branch cannot be flipped under its fixed prefix: mark
			// it done and keep looking, which is Fig. 5's recursive call
			// with a smaller ktry.
			e.stack[j].done = true
			continue
		}
		// Truncate the stack to [0..j] and predict the flipped branch;
		// the next run forces f.
		e.stack = e.stack[:j+1]
		e.stack[j].branch = f.taken
		e.flip = f
		// IM + IM': inputs not involved keep their previous values.
		for v, val := range sol {
			e.im.set(v, val)
		}
		return true
	}
	return false
}

// meta returns the solver domain of a variable: its input's C type.
// Long inputs are restricted to ±2^40 so Fourier–Motzkin coefficient
// products stay within int64; the restriction is only visible as solver
// incompleteness on constraints needing >2^40 magnitudes.
func (e *engine) meta(v symbolic.Var) solver.VarMeta {
	b, ok := e.regs.Leaves()[v].Type.(*types.Basic)
	if !ok {
		return solver.VarMeta{Kind: symbolic.PointerVar}
	}
	m := solver.VarMeta{Kind: symbolic.ScalarVar}
	switch {
	case b.Kind == types.Char:
		m.Lo, m.Hi = math.MinInt8, math.MaxInt8
	case b.Kind == types.UInt:
		m.Lo, m.Hi = 0, math.MaxUint32
	case b.Kind == types.Long:
		m.Lo, m.Hi = -(1 << 40), 1<<40
	default:
		m.Lo, m.Hi = math.MinInt32, math.MaxInt32
	}
	return m
}

// varName names a variable by its stable input key for the explainer's
// unsat-slice renderings (Var numbering is first-use order and differs
// across worker counts; input keys do not).
func (e *engine) varName(v symbolic.Var) string {
	return e.regs.Leaves()[v].Key
}
