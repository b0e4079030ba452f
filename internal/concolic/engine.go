package concolic

import (
	"fmt"
	"math"
	"strings"

	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/solver"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// oneRun executes the generated test driver once: extern globals are
// initialized as inputs, then the toplevel function is called Depth times
// with fresh inputs per call (Fig. 7).  The returned machine carries the
// branch records and completeness flags of the run.  A non-nil error is
// an engine-internal failure (the machine could not even be built), not
// a program error; runIsolated converts it into an InternalError
// diagnostic.
func (e *engine) oneRun() (*machine.Machine, *machine.RunError, error) {
	e.k = 0
	e.mispredict = false
	e.forcingOK = true

	// The machine is pooled: built once per engine, Reset between runs
	// so the search's N runs reuse one allocation footprint (memory
	// arrays, branch records, scratch stacks).
	var m *machine.Machine
	if e.mach == nil {
		var err error
		m, err = machine.New(machine.Config{
			Prog:        e.prog,
			Inputs:      e,
			OnBranch:    e.onBranch,
			LibImpls:    e.opts.LibImpls,
			MaxSteps:    e.opts.MaxSteps,
			ShapeSearch: !e.opts.DisableShapeSearch,
			Deadline:    e.deadline,
			Cancel:      e.opts.Cancel,
			Observer:    e.machineSink(),
			Code:        e.code,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("machine construction: %w", err)
		}
		e.mach = m
	} else {
		m = e.mach
		if err := m.Reset(e); err != nil {
			return nil, nil, fmt.Errorf("machine reset: %w", err)
		}
	}

	fn, _ := e.prog.Lookup(e.opts.Toplevel)
	if e.argKeys == nil {
		// Input keys are a pure function of (depth, param): render them
		// once per engine instead of once per run.
		e.argKeys = make([][]string, e.opts.Depth)
		for d := range e.argKeys {
			e.argKeys[d] = make([]string, len(fn.Params))
			for i, p := range fn.Params {
				name := p.Name
				if name == "" {
					name = fmt.Sprintf("arg%d", i)
				}
				e.argKeys[d][i] = fmt.Sprintf("d%d.%s", d, name)
			}
		}
		e.argbuf = make([]machine.Value, len(fn.Params))
	}
	for d := 0; d < e.opts.Depth; d++ {
		args := e.argbuf
		for i, p := range fn.Params {
			key := e.argKeys[d][i]
			cell, aerr := m.Mem().Alloc(1)
			if aerr != nil {
				return m, &machine.RunError{Outcome: machine.Crashed, Msg: aerr.Error()}, nil
			}
			if ierr := m.RandomInit(cell, p.Type, key); ierr != nil {
				return m, &machine.RunError{Outcome: machine.Crashed, Msg: ierr.Error()}, nil
			}
			v, verr := m.ArgValue(cell)
			if verr != nil {
				return m, &machine.RunError{Outcome: machine.Crashed, Msg: verr.Error()}, nil
			}
			args[i] = v
		}
		if _, rerr := m.RunCall(e.opts.Toplevel, args); rerr != nil {
			return m, rerr, nil
		}
	}
	return m, nil, nil
}

// onBranch is compare_and_update_stack (Fig. 4).
func (e *engine) onBranch(rec machine.BranchRec) error {
	k := e.k
	e.k++
	if k < len(e.stack) {
		if e.stack[k].branch != rec.Taken {
			// The prediction was not fulfilled: clear forcing_ok and
			// raise, restarting with fresh random inputs.
			e.forcingOK = false
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
	vs := rec.Pred.L.Vars()
	if len(vs) != 1 {
		return 0
	}
	return strings.Count(e.regs.keyOf(vs[0]), ".*")
}

// solveNext is solve_path_constraint (Fig. 5): choose an unexplored
// branch, negate its predicate, and solve the path-constraint prefix.
// It returns false when the directed search is over.
func (e *engine) solveNext(branches []machine.BranchRec) bool {
	ktry := e.k
	if ktry > len(e.stack) {
		ktry = len(e.stack)
	}
	if ktry > len(branches) {
		ktry = len(branches)
	}

	var hint map[symbolic.Var]int64
	for {
		j := e.pickBranch(branches, ktry)
		if j < 0 {
			return false
		}
		if hint == nil {
			// Index the run's path constraint once: every attempt below
			// solves a prefix of it with its last predicate negated, and
			// the input vector stays the run's until a flip succeeds.
			e.path.Reset()
			for _, rec := range branches[:ktry] {
				if rec.HasPred {
					e.path.Add(rec.Pred)
				}
			}
			e.hintbuf = e.hint(&e.path, e.im, e.hintbuf)
			hint = e.hintbuf
		}
		// The flip solves preds[:n] ∧ ¬preds[n]: n predicates precede
		// conditional j's.
		n := 0
		for _, rec := range branches[:j] {
			if rec.HasPred {
				n++
			}
		}

		e.report.SolverCalls++
		e.metrics.Observe(obs.HPCLen, int64(n+1))
		e.metrics.Observe(obs.HFrontierDepth, int64(j))
		// Site/pos attribution for the profiler, the explainer, and the
		// event stream: events carry the 1-based site index
		// (deterministic), while the source position string is computed
		// only when a collector asks.
		site := branches[j].Site
		var posStr string
		if e.prof != nil || e.exp != nil {
			posStr = branches[j].Pos.String()
		}
		var target string
		if e.obs != nil {
			target = flipPath(branches, j)
			e.emit(obs.Event{Kind: obs.SolverCall, Run: e.report.Runs, Depth: j, PCLen: n + 1, Path: target, Site: site + 1})
		}
		sol, verdict, work := e.solveIsolated(&e.path, n, hint, j)
		if e.obs != nil {
			ev := e.verdictEvent(j, verdict, work)
			ev.Site = site + 1
			e.emit(ev)
		}
		e.prof.RecordSolve(site, posStr, verdict.String(), work, e.lastSolve.solveNS, e.lastSolve.cache)
		if site >= 0 {
			// The flip targets the unexecuted direction of branches[j];
			// ledger the attempt (and, on unsat, the infeasibility proof).
			e.exp.RecordSolve(site, posStr, !branches[j].Taken, verdict.String(), e.lastSolve.unsatSlice)
		}
		if verdict != solver.Sat {
			// Infeasible, beyond the solver, or out of budget: this
			// branch cannot be flipped under its fixed prefix; mark it
			// done and keep looking, which is Fig. 5's recursive call
			// with a smaller ktry.  A budget exhaustion additionally
			// clears SolverComplete — the branch may have been feasible,
			// so the search degrades toward random testing instead of
			// grinding on an adversarial constraint system.
			if verdict == solver.BudgetExhausted {
				e.report.SolverComplete = false
			}
			e.report.SolverFailures++
			e.stack[j].done = true
			continue
		}

		// Truncate the stack to [0..j] and predict the flipped branch.
		e.metrics.Add(obs.CBranchFlips, 1)
		e.prof.RecordFlip(site, posStr)
		if e.obs != nil {
			e.emit(obs.Event{Kind: obs.BranchFlip, Run: e.report.Runs, Depth: j, Path: target, Site: site + 1})
		}
		e.stack = e.stack[:j+1]
		e.stack[j].branch = !branches[j].Taken
		// Remember the forced target: if the next run diverges from the
		// prediction, the explainer attributes the misprediction here.
		e.lastFlip = flipRef{ok: true, site: site, pos: posStr, taken: !branches[j].Taken}

		// IM + IM': inputs not involved keep their previous values.
		for v, val := range sol {
			e.im[e.regs.keyOf(v)] = val
		}
		return true
	}
}

// pickBranch selects the next not-done branch index below ktry according
// to the strategy.
func (e *engine) pickBranch(branches []machine.BranchRec, ktry int) int {
	candidates := e.candbuf[:0]
	for j := 0; j < ktry; j++ {
		if !e.stack[j].done && branches[j].HasPred {
			candidates = append(candidates, j)
		}
	}
	e.candbuf = candidates[:0]
	if len(candidates) == 0 {
		return -1
	}
	switch e.opts.Strategy {
	case BFS:
		return candidates[0]
	case RandomBranch:
		return candidates[e.rand.Intn(int64(len(candidates)))]
	default: // DFS: deepest first, the paper's exposition order
		return candidates[len(candidates)-1]
	}
}

// hint exposes the input vector im as an assignment to path's
// variables, used to preserve don't-care inputs and to bias disequality
// splits.  A flip of path mentions no other variable, so none other can
// reach its solve, key or verification.  into, when non-nil, is cleared
// and reused.
func (e *engine) hint(path *solver.Path, im map[string]int64, into map[symbolic.Var]int64) map[symbolic.Var]int64 {
	pvars := path.Vars()
	if into == nil {
		into = make(map[symbolic.Var]int64, len(pvars))
	} else {
		clear(into)
	}
	vars := e.regs.snapshot()
	for _, v := range pvars {
		if x, ok := im[vars[v].key]; ok {
			into[v] = x
		}
	}
	return into
}

// meta returns the solver domain of a variable.
func (e *engine) meta(v symbolic.Var) solver.VarMeta {
	return e.regs.metaOf(v)
}

// varName names a variable by its stable input key for the explainer's
// unsat-slice renderings (Var numbering is first-use order and differs
// across worker counts; input keys do not).
func (e *engine) varName(v symbolic.Var) string {
	return e.regs.keyOf(v)
}

// ---------------------------------------------------------------- inputs
// engine implements machine.InputSource: the generated test driver's
// random initialization, overridden by the solved input vector IM.

// ScalarInput returns IM[key], drawing (and recording) random bits on
// first use, per Fig. 8's random_bits(sizeof(type)).
func (e *engine) ScalarInput(key string, b *types.Basic) int64 {
	if v, ok := e.im[key]; ok {
		return v
	}
	v := types.Truncate(b, e.rand.Bits(b.Bits()))
	e.im[key] = v
	return v
}

// PointerInput returns the NULL-vs-allocate decision for a pointer input,
// tossing (and recording) a fair coin on first use.
func (e *engine) PointerInput(key string) bool {
	if v, ok := e.im[key]; ok {
		return v != 0
	}
	var d int64
	if e.rand.Coin() {
		d = 1
	}
	e.im[key] = d
	return d != 0
}

// IsPointerVar reports whether v identifies a pointer input.
func (e *engine) IsPointerVar(v symbolic.Var) bool {
	return e.regs.isPointer(v)
}

// VarOf registers (or recalls) the symbolic variable for input key.
// Registration goes through the search-global registry, so under the
// parallel engine the same key maps to the same variable in every
// worker (the property that keeps shared solve-cache keys sound).
func (e *engine) VarOf(key string, kind symbolic.VarKind, b *types.Basic) (symbolic.Var, bool) {
	return e.regs.varOf(key, kind, b), true
}

// domainOf maps a C type to the solver's variable domain.  Long inputs
// are restricted to ±2^40 so Fourier–Motzkin coefficient products stay
// within int64; the restriction is only visible as solver incompleteness
// on constraints needing >2^40 magnitudes.
func domainOf(kind symbolic.VarKind, b *types.Basic) solver.VarMeta {
	m := solver.VarMeta{Kind: kind}
	if kind == symbolic.PointerVar {
		return m
	}
	switch {
	case b == nil:
		m.Lo, m.Hi = math.MinInt32, math.MaxInt32
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
