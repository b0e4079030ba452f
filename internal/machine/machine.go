// Package machine executes compiled MiniC programs on the paper's RAM
// machine, intertwining the concrete execution with the symbolic
// bookkeeping of Fig. 1/Fig. 3 ("instrumented_program").
//
// One Machine represents one run: it owns the concrete memory M, the
// symbolic memory S, the per-run completeness flags (all_linear,
// all_locs_definite), and the sequence of branch records the directed
// search consumes.  The driver (package concolic) creates a fresh Machine
// per run, feeds it inputs through an InputSource, and observes branches
// through a hook so it can implement compare_and_update_stack.
package machine

import (
	"fmt"
	"time"

	"dart/internal/ir"
	"dart/internal/mem"
	"dart/internal/symbolic"
	"dart/internal/token"
	"dart/internal/types"
)

// Outcome classifies how a run ended.
type Outcome int

// Outcomes.
const (
	// HaltOK: the program ran to completion.
	HaltOK Outcome = iota
	// Aborted: abort() or a failed assertion (a genuine program error).
	Aborted
	// Crashed: a runtime fault — segmentation fault, division by zero
	// (also a genuine program error; the oSIP experiment counts these).
	Crashed
	// StepLimit: the step budget was exhausted; reported as potential
	// non-termination, mirroring the paper's watchdog timer.
	StepLimit
	// Mispredicted: the branch hook vetoed execution because the run
	// diverged from the predicted path (forcing_ok = 0 in Fig. 4).
	Mispredicted
	// Interrupted: the run was stopped from outside — the search's
	// wall-clock deadline passed or its cancel channel was closed.  Not a
	// program error; the driver ends the search with a partial report.
	Interrupted
)

func (o Outcome) String() string {
	switch o {
	case HaltOK:
		return "halt"
	case Aborted:
		return "abort"
	case Crashed:
		return "crash"
	case StepLimit:
		return "step-limit"
	case Mispredicted:
		return "mispredicted"
	case Interrupted:
		return "interrupted"
	}
	return "unknown"
}

// RunError describes an abnormal termination.
type RunError struct {
	Outcome Outcome
	Msg     string
	Pos     token.Pos
}

func (e *RunError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s (%s)", e.Outcome, e.Msg, e.Pos)
	}
	return fmt.Sprintf("%s: %s", e.Outcome, e.Msg)
}

// BranchRec is one executed conditional: the paper's (branch, done) stack
// entry enriched with the branch site and the symbolic predicate that
// held on this execution (HasPred is false when the condition fell
// outside the theory, in which case the branch cannot be flipped).
type BranchRec struct {
	Site    int
	Taken   bool
	Pred    symbolic.Pred
	HasPred bool
	// Fallback classifies why HasPred is false ("" otherwise):
	// "nonlinear" (the condition left the linear theory at this branch,
	// or upstream of it while all_linear was already cleared), "pointer"
	// (the condition depends on memory read through an indefinite
	// location), or "concrete" (the condition does not depend on inputs
	// at all).  The split between the first two is best-effort when the
	// condition's symbolic value was dropped upstream: the machine's
	// completeness flags say which regime the run had already left.
	Fallback string
	Pos      token.Pos
	// Decision marks a synthetic record emitted when the program first
	// reads a pointer input: the NULL-vs-allocate coin toss enters the
	// search tree so the directed search can flip input shapes
	// systematically (an extension of the paper's random-only shape
	// choice; see DESIGN.md).  Decision records carry Site == -1.
	Decision bool
}

// BranchHook observes each conditional as it executes.  Returning an
// error aborts the run with the Mispredicted outcome; the directed
// search uses this to implement Fig. 4's forcing check.
type BranchHook func(rec BranchRec) error

// InputSource supplies the value of each input Fig. 8's random_init
// reaches: the engines' input vector IM (previous solution + random
// completion) for search and random testing, or a replayed case by key.
type InputSource interface {
	// ScalarInput returns the concrete value of scalar input in.
	ScalarInput(in *Input) int64
	// PointerInput reports whether pointer input in should be a fresh
	// allocation (true) or NULL (false).
	PointerInput(in *Input) bool
	// Symbolic reports whether each input stands for its symbolic
	// variable (the directed search) or only for its concrete value.
	Symbolic() bool
}

// LibImpl is a host-implemented library function: a deterministic black
// box (Sec. 3.1) executed on concrete values only.  An implementation
// reads and writes program cells through LoadCell and StoreCell, never
// through Mem directly: reading an input-dependent cell leaves the theory
// (all_linear clears), and a written cell holds a concrete value (its
// symbolic shadow is dropped).
type LibImpl func(m *Machine, args []int64) (int64, error)

// Config assembles a Machine.
type Config struct {
	Prog *ir.Prog
	// Inputs supplies program inputs; required.
	Inputs InputSource
	// Trie interns the inputs, shared by every machine of a search; nil
	// gives the machine a trie of its own.
	Trie *InputTrie
	// OnBranch observes conditionals; may be nil.
	OnBranch BranchHook
	// LibImpls maps library function names to implementations.
	LibImpls map[string]LibImpl
	// MaxSteps bounds execution (0 means DefaultMaxSteps).
	MaxSteps int64
	// ShapeSearch emits Decision branch records when pointer inputs are
	// first read, letting the driver search over input shapes.
	ShapeSearch bool
	// Deadline, when nonzero, interrupts the run once the wall clock
	// passes it; the run ends with the Interrupted outcome.  The check is
	// amortized over interruptStride instructions.
	Deadline time.Time
	// Cancel, when non-nil, interrupts the run as soon as it is closed
	// (checked on the same amortized schedule as Deadline).
	Cancel <-chan struct{}
	// Code, when non-nil, selects the closure-threaded compiled engine
	// (see compile.go); it must have been produced by Compile on the same
	// Prog.  Nil selects the reference tree-walking interpreter.  One
	// Compiled may be shared across machines and goroutines; each of its
	// functions is lowered once, on its first call by any of them.
	Code *Compiled
}

// DefaultMaxSteps is the non-termination watchdog budget.
const DefaultMaxSteps = 2_000_000

// Machine is the state of one instrumented run.
type Machine struct {
	prog *ir.Prog
	// mem is M, with the paper's symbolic memory S in its shadow slots.
	mem      *mem.M
	inputs   InputSource
	symbolic bool
	trie     *InputTrie
	onBranch BranchHook
	libs     map[string]LibImpl

	globalBase int64
	steps      int64
	maxSteps   int64

	// supervised gates the amortized deadline/cancel poll so that
	// unsupervised runs (the common benchmark path) pay nothing for it.
	supervised bool
	deadline   time.Time
	cancel     <-chan struct{}

	// Completeness flags of Fig. 2 (true = still complete).
	allLinear       bool
	allLocsDefinite bool

	// Branches is the executed conditional sequence (stack material).
	Branches []BranchRec

	// globals are extern globals' roots (by index); ext counts calls.
	globals []*Input
	ext     map[string]*extCalls

	// shapeSearch and decided implement the pointer-shape decision
	// records: each pointer input (decided is indexed by Var) contributes
	// at most one Decision record per run, at its first concrete read.
	// undecided counts this run's pointer inputs that RandomInit gave a
	// symbolic shadow and whose decision has not fired: while it is zero
	// no load can still owe a decision, so noteDecision skips the form.
	shapeSearch bool
	decided     []bool
	undecided   int

	callDepth int

	// code is the compiled form of prog (nil = interpreter).
	code *Compiled
	// taintHit is set by compiled Load ops when the loaded cell carried a
	// taint bit; compiled instructions reset it before evaluating their
	// operands and skip shadow evaluation when it stays false.
	taintHit bool
	// shadowEvals counts instruction-level symbolic shadow evaluations
	// (assign sources, call arguments, return values, branch conditions).
	// The taint bitmap's payoff is this number dropping to zero on fully
	// concrete programs under the compiled engine.
	shadowEvals int64
	// retV carries the compiled engine's return value out of the step
	// loop (the Ret op's channel to execCompiled).
	retV Value
	// argStack is scratch for compiled call-argument evaluation; segments
	// are pushed per call and popped on return so nested calls reuse one
	// backing array.
	argStack []Value
	// lins batch-allocates the Lin headers the shadow and branch-
	// predicate paths produce (one chunk allocation per 512 forms).
	// Chunks are never recycled — published forms escape into BranchRec
	// snapshots — so Reset leaves the arena alone; the unused tail of
	// the current chunk is still virgin and keeps serving the next run.
	lins symbolic.Arena
}

// cover returns s extended with zero values to hold index i.
func cover[T any](s []T, i int) []T {
	if n := i + 1 - len(s); n > 0 {
		s = append(s, make([]T, n)...)
	}
	return s
}

// maxCallDepth bounds MiniC recursion so runaway recursion is reported
// as a crash (stack overflow) rather than exhausting the host stack.
const maxCallDepth = 8_000

// New creates a machine for one run and initializes global memory:
// initialized globals get their constant values; extern globals are
// environment inputs, initialized via RandomInit.
func New(cfg Config) (*Machine, error) {
	m := &Machine{
		prog:            cfg.Prog,
		mem:             mem.New(),
		inputs:          cfg.Inputs,
		symbolic:        cfg.Inputs.Symbolic(),
		trie:            cfg.Trie,
		onBranch:        cfg.OnBranch,
		libs:            cfg.LibImpls,
		maxSteps:        cfg.MaxSteps,
		allLinear:       true,
		allLocsDefinite: true,
		globals:         make([]*Input, len(cfg.Prog.Globals)),
		ext:             map[string]*extCalls{},
		shapeSearch:     cfg.ShapeSearch,
		supervised:      !cfg.Deadline.IsZero() || cfg.Cancel != nil,
		deadline:        cfg.Deadline,
		cancel:          cfg.Cancel,
	}
	if m.maxSteps == 0 {
		m.maxSteps = DefaultMaxSteps
	}
	if m.trie == nil {
		m.trie = NewInputTrie()
	}
	m.code = cfg.Code
	if err := m.initGlobals(); err != nil {
		return nil, err
	}
	return m, nil
}

// initGlobals maps the global region and initializes it: initialized
// globals get their constant values; extern globals are environment
// inputs drawn through the current InputSource.
func (m *Machine) initGlobals() error {
	m.globalBase = m.mem.MapGlobals(m.prog.GlobalSize)
	for i, g := range m.prog.Globals {
		addr := m.globalBase + g.Off
		switch {
		case g.Extern:
			// Interned on first use, like every input (Vars number
			// inputs in the order runs first reach them).
			if m.globals[i] == nil {
				m.globals[i] = m.trie.Root("g:"+g.Name, g.Type)
			}
			if err := m.RandomInit(addr, m.globals[i]); err != nil {
				return err
			}
		case g.HasInit:
			if err := m.mem.Store(addr, truncStore(g.Type, g.Init), nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reset rewinds the machine to the just-constructed state for a new run
// with a fresh input source, reusing every backing allocation (memory
// arrays, branch records, scratch stacks).  It restores exactly what New
// establishes: empty memory with re-initialized globals, zeroed step and
// shadow counters, raised completeness flags, and no branch, decision,
// or external-call state left over from the previous run — including
// after a run that ended in a fault, a step-limit trip, or a recovered
// panic.
func (m *Machine) Reset(inputs InputSource) error {
	m.inputs = inputs
	m.symbolic = inputs.Symbolic()
	m.steps = 0
	m.callDepth = 0
	m.allLinear = true
	m.allLocsDefinite = true
	m.Branches = m.Branches[:0]
	m.taintHit = false
	m.shadowEvals = 0
	m.retV = Value{}
	m.argStack = m.argStack[:0]
	for _, c := range m.ext {
		c.n = 0
	}
	clear(m.decided)
	m.undecided = 0
	m.mem.Reset()
	return m.initGlobals()
}

// AllLinear reports whether every symbolic expression stayed within the
// linear theory during this run.
func (m *Machine) AllLinear() bool { return m.allLinear }

// AllLocsDefinite reports whether every dereferenced address was
// input-independent during this run.
func (m *Machine) AllLocsDefinite() bool { return m.allLocsDefinite }

// Steps returns the number of executed instructions.
func (m *Machine) Steps() int64 { return m.steps }

// GlobalAddr returns the absolute address of the global region offset.
func (m *Machine) GlobalAddr(off int64) int64 { return m.globalBase + off }

// Mem exposes the concrete memory.
func (m *Machine) Mem() *mem.M { return m.mem }

// LoadCell reads the cell at addr for a library black box, which computes
// on the concrete value only: a cell carrying an input shadow takes the
// run outside the theory (Sec. 3.1's concrete fallback clears all_linear).
func (m *Machine) LoadCell(addr int64) (int64, error) {
	v, sym, err := m.mem.Load(addr)
	if err != nil {
		return 0, err
	}
	if sym != nil {
		m.allLinear = false
	}
	return v, nil
}

// StoreCell writes a library black box's concrete result to the cell at
// addr, dropping any symbolic shadow the cell held.
func (m *Machine) StoreCell(addr, v int64) error { return m.mem.Store(addr, v, nil) }

// ShadowEvals returns the number of instruction-level symbolic shadow
// evaluations this run performed.  Under the compiled engine, untainted
// operands skip shadow evaluation entirely, so a fully concrete program
// reports zero.
func (m *Machine) ShadowEvals() int64 { return m.shadowEvals }

// shadowEval is the counted instruction-level entry into evaluate_symbolic.
// It returns a form only when the expression is genuinely input-dependent;
// constant results and shadow-evaluation faults both come back nil, which
// every call site treats as "no live shadow" (exactly how they already
// treated const forms).
func (m *Machine) shadowEval(e ir.Expr, frame int64) *symbolic.Lin {
	m.shadowEvals++
	l, _, _ := m.evalSym(e, frame)
	return l
}

func truncStore(t types.Type, v int64) int64 {
	if b, ok := t.(*types.Basic); ok {
		return types.Truncate(b, v)
	}
	return v
}

// ---------------------------------------------------------------- inputs

// RandomInit initializes the memory at addr as the input in, following
// Fig. 8: scalars draw random bits (or the value assigned by the
// previous solve), pointers flip a coin between NULL and a fresh
// allocation whose contents are initialized recursively, and structs and
// arrays recurse member-wise.
func (m *Machine) RandomInit(addr int64, in *Input) error {
	switch t := in.Type.(type) {
	case *types.Basic:
		return m.mem.Store(addr, types.Truncate(t, m.inputs.ScalarInput(in)), m.shadow(in))
	case *types.Pointer:
		if m.symbolic {
			// Memory is reset between runs, so this is the only way a
			// pointer input's form reaches a load in this run.
			m.undecided++
		}
		if !m.inputs.PointerInput(in) {
			return m.mem.Store(addr, 0, m.shadow(in))
		}
		size := t.Elem.Size()
		if size == 0 { // void*: allocate a single opaque cell
			size = 1
		}
		region, err := m.mem.Alloc(size)
		if err != nil {
			return err
		}
		if err := m.mem.Store(addr, region, m.shadow(in)); err != nil {
			return err
		}
		if types.IsVoid(t.Elem) {
			return nil
		}
		return m.RandomInit(region, m.trie.child(in, 0))
	case *types.Struct:
		for i, f := range t.Fields {
			if err := m.RandomInit(addr+f.Offset, m.trie.child(in, i)); err != nil {
				return err
			}
		}
		return nil
	case *types.Array:
		for i := int64(0); i < t.Len; i++ {
			if err := m.RandomInit(addr+i*t.Elem.Size(), m.trie.child(in, int(i))); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("machine: cannot initialize input of type %s", in.Type)
}

// shadow is leaf in's symbolic value under a symbolic source — the form
// 1·Var, made on first use and shared by every run — and nil otherwise.
func (m *Machine) shadow(in *Input) *symbolic.Lin {
	if !m.symbolic {
		return nil
	}
	if l := in.lin.Load(); l != nil {
		return l
	}
	in.lin.CompareAndSwap(nil, symbolic.NewVar(in.Var))
	return in.lin.Load()
}

// extCalls counts one external function's calls in a run and caches the
// roots of their results.
type extCalls struct {
	n     int
	roots []*Input
}

// extInput books a call of external function fn and returns the root of
// its result, "ext:<fn>#<n>" for the run's n-th call: every call returns
// a fresh input (Sec. 3.2).  A nil result books a discarded call.
func (m *Machine) extInput(fn string, result types.Type) *Input {
	c := m.ext[fn]
	if c == nil {
		c = &extCalls{}
		m.ext[fn] = c
	}
	n := c.n
	c.n++
	if result == nil {
		return nil
	}
	c.roots = cover(c.roots, n)
	if c.roots[n] == nil {
		c.roots[n] = m.trie.Root(fmt.Sprintf("ext:%s#%d", fn, n), result)
	}
	return c.roots[n]
}

// Value is a concrete value with its symbolic shadow (nil when the value
// does not depend on inputs).
type Value struct {
	V   int64
	Sym *symbolic.Lin
}

// ---------------------------------------------------------------- run

// RunCall invokes the named function with the given arguments and runs it
// to completion.  A nil *RunError means the call returned normally.
func (m *Machine) RunCall(fn string, args []Value) (Value, *RunError) {
	f, ok := m.prog.Lookup(fn)
	if !ok {
		return Value{}, &RunError{Outcome: Crashed, Msg: "no such function " + fn}
	}
	if len(args) != len(f.Params) {
		return Value{}, &RunError{
			Outcome: Crashed,
			Msg:     fmt.Sprintf("%s expects %d arguments, got %d", fn, len(f.Params), len(args)),
		}
	}
	if m.code != nil {
		return m.execCompiled(m.code.funcs[fn], args)
	}
	return m.exec(f, args)
}

// exec runs one function activation.
func (m *Machine) exec(f *ir.Func, args []Value) (Value, *RunError) {
	if m.callDepth >= maxCallDepth {
		return Value{}, &RunError{Outcome: Crashed, Msg: "stack overflow (recursion too deep)"}
	}
	m.callDepth++
	defer func() { m.callDepth-- }()

	frame := m.mem.PushFrame(f.FrameSize)
	// PopFrame clears the frame's taint bits and shadows before the
	// addresses are recycled by a later frame.
	defer m.mem.PopFrame(frame, f.FrameSize)

	for i, p := range f.Params {
		addr := frame + p.Slot
		if err := m.mem.Store(addr, truncStore(p.Type, args[i].V), args[i].Sym); err != nil {
			return Value{}, m.memErr(err, token.Pos{})
		}
	}

	pc := 0
	for {
		if pc < 0 || pc >= len(f.Code) {
			return Value{}, &RunError{Outcome: Crashed, Msg: fmt.Sprintf("pc %d out of range in %s", pc, f.Name)}
		}
		m.steps++
		if m.steps > m.maxSteps {
			return Value{}, &RunError{Outcome: StepLimit, Msg: "step budget exhausted (possible non-termination)"}
		}
		if m.supervised && m.steps&(interruptStride-1) == 0 {
			if re := m.checkInterrupt(); re != nil {
				return Value{}, re
			}
		}

		switch ins := f.Code[pc].(type) {
		case *ir.Assign:
			if err := m.doAssign(ins, frame); err != nil {
				return Value{}, err
			}
			pc++
		case *ir.IfGoto:
			taken, err := m.doBranch(ins, frame)
			if err != nil {
				return Value{}, err
			}
			if taken {
				pc = ins.Target
			} else {
				pc++
			}
		case *ir.Goto:
			pc = ins.Target
		case *ir.Call:
			if err := m.doCall(ins, frame); err != nil {
				return Value{}, err
			}
			pc++
		case *ir.CallExt:
			if err := m.doCallExt(ins, frame); err != nil {
				return Value{}, err
			}
			pc++
		case *ir.CallLib:
			if err := m.doCallLib(ins, frame); err != nil {
				return Value{}, err
			}
			pc++
		case *ir.Ret:
			if ins.Val == nil {
				return Value{}, nil
			}
			v, err := m.evalConcrete(ins.Val, frame)
			if err != nil {
				return Value{}, m.memErr(err, ins.Pos)
			}
			return Value{V: v, Sym: m.shadowEval(ins.Val, frame)}, nil
		case *ir.Alloc:
			if err := m.doAlloc(ins, frame); err != nil {
				return Value{}, err
			}
			pc++
		case *ir.Free:
			p, err := m.evalConcrete(ins.Ptr, frame)
			if err != nil {
				return Value{}, m.memErr(err, ins.Pos)
			}
			if err := m.mem.Free(p); err != nil {
				return Value{}, m.memErr(err, ins.Pos)
			}
			pc++
		case *ir.Abort:
			return Value{}, &RunError{Outcome: Aborted, Msg: ins.Msg, Pos: ins.Pos}
		case *ir.Halt:
			return Value{}, &RunError{Outcome: HaltOK, Msg: "halt"}
		default:
			return Value{}, &RunError{Outcome: Crashed, Msg: fmt.Sprintf("bad instruction %T", ins)}
		}
	}
}

// interruptStride is how many instructions execute between deadline and
// cancellation polls; a power of two so the check compiles to a mask.
const interruptStride = 1 << 12

// checkInterrupt polls the cancel channel and the wall-clock deadline.
func (m *Machine) checkInterrupt() *RunError {
	if m.cancel != nil {
		select {
		case <-m.cancel:
			return &RunError{Outcome: Interrupted, Msg: "search cancelled"}
		default:
		}
	}
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		return &RunError{Outcome: Interrupted, Msg: "search deadline exceeded"}
	}
	return nil
}

func (m *Machine) memErr(err error, pos token.Pos) *RunError {
	// Errors that are already run errors (e.g. a misprediction raised by
	// the branch hook inside a decision record) pass through unchanged.
	if re, ok := err.(*RunError); ok {
		return re
	}
	return &RunError{Outcome: Crashed, Msg: err.Error(), Pos: pos}
}

// noteDecision emits the synthetic Decision record for a pointer input
// whose value v was just read from a cell with live shadow l (nil for a
// concrete cell, which can never be a pointer input's home), once per
// run.  Once every pointer input of the run is decided, it returns
// before walking l.
func (m *Machine) noteDecision(v int64, l *symbolic.Lin) error {
	if !m.shapeSearch || m.undecided == 0 || l == nil || len(l.Coeffs) != 1 || l.Const != 0 {
		return nil
	}
	var sv symbolic.Var
	var coeff int64
	for v, k := range l.Coeffs {
		sv, coeff = v, k
	}
	if coeff != 1 || !m.trie.isPointerVar(sv) {
		return nil
	}
	if m.decided = cover(m.decided, int(sv)); m.decided[sv] {
		return nil
	}
	m.decided[sv] = true
	m.undecided--
	taken := v != 0
	rel := symbolic.NE
	if !taken {
		rel = symbolic.EQ
	}
	rec := BranchRec{
		Site:     -1,
		Taken:    taken,
		Pred:     symbolic.Pred{L: m.shadow(m.trie.Leaves()[sv]), Rel: rel},
		HasPred:  true,
		Decision: true,
	}
	m.Branches = append(m.Branches, rec)
	if m.onBranch != nil {
		if herr := m.onBranch(rec); herr != nil {
			return &RunError{Outcome: Mispredicted, Msg: herr.Error()}
		}
	}
	return nil
}

func (m *Machine) doAssign(ins *ir.Assign, frame int64) *RunError {
	addr, err := m.evalConcrete(ins.Dst, frame)
	if err != nil {
		return m.memErr(err, ins.Pos)
	}
	v, err := m.evalConcrete(ins.Src, frame)
	if err != nil {
		return m.memErr(err, ins.Pos)
	}
	if ins.StoreTy != nil {
		v = types.Truncate(ins.StoreTy, v)
	}
	// S := S + [m -> evaluate_symbolic(e, M, S)]  (Fig. 3); constants are
	// removed from S rather than stored, keeping S the set of
	// input-dependent locations.
	sym := m.shadowEval(ins.Src, frame)
	if err := m.mem.Store(addr, v, sym); err != nil {
		return m.memErr(err, ins.Pos)
	}
	return nil
}

func (m *Machine) doAlloc(ins *ir.Alloc, frame int64) *RunError {
	size, err := m.evalConcrete(ins.Size, frame)
	if err != nil {
		return m.memErr(err, ins.Pos)
	}
	if size < 0 {
		return &RunError{Outcome: Crashed, Msg: fmt.Sprintf("malloc with negative size %d", size), Pos: ins.Pos}
	}
	region, err := m.mem.Alloc(size)
	if err != nil {
		return m.memErr(err, ins.Pos)
	}
	addr, err := m.evalConcrete(ins.Dst, frame)
	if err != nil {
		return m.memErr(err, ins.Pos)
	}
	if err := m.mem.Store(addr, region, nil); err != nil {
		return m.memErr(err, ins.Pos)
	}
	return nil
}

func (m *Machine) doCall(ins *ir.Call, frame int64) *RunError {
	f, ok := m.prog.Lookup(ins.Fn)
	if !ok {
		return &RunError{Outcome: Crashed, Msg: "no such function " + ins.Fn, Pos: ins.Pos}
	}
	args := make([]Value, len(ins.Args))
	for i, a := range ins.Args {
		v, err := m.evalConcrete(a, frame)
		if err != nil {
			return m.memErr(err, ins.Pos)
		}
		args[i] = Value{V: v, Sym: m.shadowEval(a, frame)}
	}
	// The destination is a caller-frame temporary; resolve it before the
	// callee's frame is live.
	var dstAddr int64
	if ins.Dst != nil {
		var err error
		dstAddr, err = m.evalConcrete(ins.Dst, frame)
		if err != nil {
			return m.memErr(err, ins.Pos)
		}
	}
	ret, rerr := m.exec(f, args)
	if rerr != nil {
		return rerr
	}
	if ins.Dst != nil {
		if err := m.mem.Store(dstAddr, ret.V, ret.Sym); err != nil {
			return m.memErr(err, ins.Pos)
		}
	}
	return nil
}

// doCallExt simulates an external function: its return value is a fresh
// environment input (Sec. 3.2's simulated external functions).
func (m *Machine) doCallExt(ins *ir.CallExt, frame int64) *RunError {
	if ins.Dst == nil || types.IsVoid(ins.Result) {
		m.extInput(ins.Fn, nil)
		return nil
	}
	addr, err := m.evalConcrete(ins.Dst, frame)
	if err != nil {
		return m.memErr(err, ins.Pos)
	}
	if err := m.RandomInit(addr, m.extInput(ins.Fn, ins.Result)); err != nil {
		return m.memErr(err, ins.Pos)
	}
	return nil
}

func (m *Machine) doCallLib(ins *ir.CallLib, frame int64) *RunError {
	impl, ok := m.libs[ins.Fn]
	if !ok {
		return &RunError{Outcome: Crashed, Msg: "library function " + ins.Fn + " has no implementation", Pos: ins.Pos}
	}
	args := make([]int64, len(ins.Args))
	anySymbolic := false
	for i, a := range ins.Args {
		v, err := m.evalConcrete(a, frame)
		if err != nil {
			return m.memErr(err, ins.Pos)
		}
		args[i] = v
		if s := m.shadowEval(a, frame); s != nil && !s.IsConst() {
			anySymbolic = true
		}
	}
	// A black box fed input-dependent values takes the analysis outside
	// the theory: fall back to concrete and clear the completeness flag.
	if anySymbolic {
		m.allLinear = false
	}
	ret, err := impl(m, args)
	if err != nil {
		return &RunError{Outcome: Crashed, Msg: err.Error(), Pos: ins.Pos}
	}
	if ins.Dst != nil {
		addr, cerr := m.evalConcrete(ins.Dst, frame)
		if cerr != nil {
			return m.memErr(cerr, ins.Pos)
		}
		if serr := m.mem.Store(addr, ret, nil); serr != nil {
			return m.memErr(serr, ins.Pos)
		}
	}
	return nil
}

// doBranch executes a conditional: concrete decision, symbolic predicate
// extraction, branch record, and hook dispatch.
func (m *Machine) doBranch(ins *ir.IfGoto, frame int64) (bool, *RunError) {
	cv, err := m.evalConcrete(ins.Cond, frame)
	if err != nil {
		return false, m.memErr(err, ins.Pos)
	}
	taken := cv != 0
	m.shadowEvals++
	pred, hasPred, fallback := m.branchPred(ins.Cond, frame, taken)
	rec := BranchRec{Site: ins.Site, Taken: taken, Pred: pred, HasPred: hasPred, Fallback: fallback, Pos: ins.Pos}
	m.Branches = append(m.Branches, rec)
	if m.onBranch != nil {
		if herr := m.onBranch(rec); herr != nil {
			return false, &RunError{Outcome: Mispredicted, Msg: herr.Error(), Pos: ins.Pos}
		}
	}
	return taken, nil
}

// branchPred derives the path-constraint predicate for a condition under
// the branch actually taken.  It returns hasPred=false when the condition
// does not depend on inputs (constant) or fell outside the theory, with
// the BranchRec.Fallback classification as the third result.
func (m *Machine) branchPred(cond ir.Expr, frame int64, taken bool) (symbolic.Pred, bool, string) {
	switch c := cond.(type) {
	case *ir.Un:
		if c.Op == ir.Not {
			return m.branchPred(c.A, frame, !taken)
		}
	case *ir.Bin:
		if c.Op.IsComparison() {
			linBefore, locBefore := m.allLinear, m.allLocsDefinite
			la, ka, fa := m.evalSym(c.A, frame)
			lb, kb, fb := m.evalSym(c.B, frame)
			if fa || fb {
				return symbolic.Pred{}, false, m.fallbackKind()
			}
			if la == nil && lb == nil {
				return symbolic.Pred{}, false, m.constFallback(linBefore, locBefore)
			}
			if la == nil {
				la = m.lins.NewConst(ka)
			}
			if lb == nil {
				lb = m.lins.NewConst(kb)
			}
			diff := m.lins.Sub(la, lb)
			if diff == nil {
				m.allLinear = false
				return symbolic.Pred{}, false, FallbackNonlinear
			}
			rel := relOf(c.Op)
			p := symbolic.Pred{L: diff, Rel: rel}
			if !taken {
				p = p.Negate()
			}
			return p, true, ""
		}
	}
	linBefore, locBefore := m.allLinear, m.allLocsDefinite
	l, _, fault := m.evalSym(cond, frame)
	if fault {
		return symbolic.Pred{}, false, m.fallbackKind()
	}
	if l == nil {
		return symbolic.Pred{}, false, m.constFallback(linBefore, locBefore)
	}
	p := symbolic.Pred{L: l, Rel: symbolic.NE}
	if !taken {
		p = symbolic.Pred{L: l, Rel: symbolic.EQ}
	}
	return p, true, ""
}

// BranchRec.Fallback values.
const (
	FallbackNonlinear = "nonlinear"
	FallbackPointer   = "pointer"
	FallbackConcrete  = "concrete"
)

// fallbackKind classifies an untracked condition value: when a
// completeness flag is already down, the regime the run left is the
// best available attribution; with both flags up the value simply
// never depended on inputs.
func (m *Machine) fallbackKind() string {
	switch {
	case !m.allLocsDefinite:
		return FallbackPointer
	case !m.allLinear:
		return FallbackNonlinear
	default:
		return FallbackConcrete
	}
}

// constFallback classifies a condition whose sides all evaluated to
// constants.  Falling outside the theory replaces a symbolic value with
// its concrete one (Fig. 1's simplification), so constness after a flag
// dropped DURING this condition's own evaluation is the fallback's
// artifact, not input-independence — attribute it to the regime that
// was just left.  Constness with no in-condition transition is honestly
// concrete.
func (m *Machine) constFallback(linBefore, locBefore bool) string {
	switch {
	case locBefore && !m.allLocsDefinite:
		return FallbackPointer
	case linBefore && !m.allLinear:
		return FallbackNonlinear
	default:
		return FallbackConcrete
	}
}

func relOf(op ir.Op) symbolic.Rel {
	switch op {
	case ir.Eq:
		return symbolic.EQ
	case ir.Ne:
		return symbolic.NE
	case ir.Lt:
		return symbolic.LT
	case ir.Le:
		return symbolic.LE
	case ir.Gt:
		return symbolic.GT
	case ir.Ge:
		return symbolic.GE
	}
	panic("machine: not a comparison: " + op.String())
}
