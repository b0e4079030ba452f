// Package concolic implements DART's directed search: the run_DART
// driver of Fig. 2, the stack bookkeeping of Fig. 4, and the
// solve_path_constraint procedure of Fig. 5.
//
// The engine repeatedly executes the program under test on the machine
// (concrete + symbolic), records the branch sequence, and after each run
// negates the deepest (or, per strategy, another) unexplored branch
// predicate, solving the path-constraint prefix for the next input
// vector.  Inputs not involved in the constraint keep their previous
// values (IM + IM').  Mispredicted executions clear forcing_ok and
// restart the search from a fresh random input vector; non-linear
// expressions and input-dependent dereferences clear the completeness
// flags, in which case exhausting the search space no longer proves full
// path coverage.
package concolic

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dart/internal/coverage"
	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/rng"
	"dart/internal/solver"
	"dart/internal/token"
)

// Strategy selects which unexplored branch to force next (the paper's
// footnote 4: depth-first by default, but the next branch "could be
// selected using a different strategy, e.g., randomly or in a
// breadth-first manner").
type Strategy int

// Strategies.
const (
	DFS Strategy = iota
	BFS
	RandomBranch
)

func (s Strategy) String() string {
	switch s {
	case DFS:
		return "dfs"
	case BFS:
		return "bfs"
	case RandomBranch:
		return "random-branch"
	}
	return "unknown"
}

// Options configures a directed search.
type Options struct {
	// Toplevel is the function under test (its arguments are inputs).
	Toplevel string
	// Depth is how many times the toplevel function is called per run
	// with fresh inputs (the paper's depth parameter). Default 1.
	Depth int
	// MaxRuns bounds the number of program executions. Default 10000.
	MaxRuns int
	// MaxSteps bounds each execution (non-termination watchdog).
	MaxSteps int64
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// Strategy picks the branch-selection order. Default DFS.
	Strategy Strategy
	// StopAtFirstBug ends the search at the first error, like the
	// paper's exit(); otherwise the search continues and collects every
	// distinct bug it can reach.
	StopAtFirstBug bool
	// ReportStepLimit treats step-budget exhaustion as a bug (the
	// paper's non-termination detection). Default false.
	ReportStepLimit bool
	// DisableShapeSearch turns off the systematic exploration of pointer
	// input shapes (Decision records); shapes are then chosen by random
	// coin toss only, exactly as in the paper's random_init.
	DisableShapeSearch bool
	// MaxShapeDepth caps how deep the shape search may grow recursive
	// inputs (counted in pointer indirections); deeper shapes still
	// occur randomly but are not forced. Default 6.
	MaxShapeDepth int
	// MaxFrontier bounds the pending-flip work list of the frontier pool,
	// which runs BFS and RandomBranch at any worker count and every
	// strategy at Workers > 1 (DFS at one worker uses the paper's
	// O(depth) stack and ignores it).  Overflow drops the deepest pending
	// flips, counted in Report.FrontierDropped and clearing Complete.
	// Default 32768.
	MaxFrontier int
	// Workers is the number of flip-workers of the directed search.  At
	// 1 (the default) DFS runs on the paper's stack and BFS and
	// RandomBranch on the frontier pool with one worker.  N > 1 runs
	// every strategy on the work-stealing pool: N workers pull pending
	// flips from per-worker deques (stealing when starved), each with its
	// own machine, symbolic evaluator, and RNG stream, all sharing one
	// program, one input registry, and one sharded solve cache.  Distinct
	// pending flips are independent program runs (each is re-executed
	// from its own recorded input vector), so on searches that exhaust
	// their execution tree the bug set, branch coverage, and completeness
	// flags are identical for every Workers value; run indices,
	// input-vector padding, and cache hit rates may differ.  Under
	// MaxRuns truncation different worker counts explore different
	// MaxRuns-sized subsets, exactly as different strategies do.
	Workers int
	// LibImpls supplies library black boxes (defaults to machine.StdLibImpls).
	LibImpls map[string]machine.LibImpl
	// Timeout bounds the whole search in wall-clock time.  A tripped
	// deadline ends the search with a partial Report (Stopped =
	// StopDeadline), never an error; the check is amortized inside the
	// machine's step loop, so even a single diverging run is interrupted.
	// Zero means no deadline.
	Timeout time.Duration
	// Cancel, when non-nil, cancels the search as soon as it is closed
	// (Stopped = StopCancelled).  Like Timeout, cancellation yields a
	// partial Report, not an error.
	Cancel <-chan struct{}
	// SolverBudget bounds the work of each constraint solve (in solver
	// work units; see solver.SolveWork).  On exhaustion the branch is
	// abandoned and Report.SolverComplete is cleared, degrading the
	// search toward random testing instead of hanging.  Default
	// solver.DefaultWork.
	SolverBudget int64
	// SolveCacheCap sizes the per-search solve cache of the solver fast
	// path: 0 selects solver.DefaultCacheCap, a positive value sets the
	// capacity, and a negative value disables the cache entirely (the
	// A/B baseline: every solve runs the solver).  The cache never
	// changes what a search finds — only how much solver work it spends —
	// so a fixed seed produces the identical Report at any setting.
	SolveCacheCap int
	// Observer, when non-nil, receives structured trace events (run
	// lifecycle, branch flips, solver calls, completeness fallbacks; see
	// package obs).  The engine emits each run and solve once, at the
	// end of its booking, and no emit sits on the machine's
	// per-instruction loop; with neither an observer nor a metrics
	// registry an emit is an event built on the stack and two
	// nil-checks.  A panicking observer is
	// isolated like any other internal fault: observation is disabled,
	// an InternalError is recorded, and the search continues.
	Observer obs.Sink
	// CollectMetrics populates Report.Metrics even without an Observer.
	// An attached Observer implies it.  The registry is a fold over
	// every event the engine emits (obs.Metrics.Fold), the same fold
	// the ops server applies to the observed stream, so the two agree
	// by construction.  Off by default: the registry's per-search setup
	// and snapshot, while small, are measurable on sub-millisecond
	// searches.
	CollectMetrics bool
	// CollectProfile populates Report.Profile: span-attributed wall
	// time per search phase and per-branch-site solver cost.  Unlike
	// CollectMetrics it is NOT implied by an Observer, because the
	// profile reads the clock around every run and solve; off by
	// default so the unobserved engine path stays timing-free.
	CollectProfile bool
	// CollectExplain populates Report.Explain: the coverage explainer's
	// per-branch-site cause ledger (why each uncovered direction stayed
	// dark) plus the run-indexed coverage timeline with plateau
	// detection.  Like CollectProfile it is not implied by an Observer;
	// off by default so the unobserved engine path records nothing.
	// The ledger is an exact function of the seed on tree-exhausting
	// searches — byte-identical at any Workers value — while the
	// timeline is honest schedule texture.
	CollectExplain bool
	// RecordRuns keeps a run log on the report — the (inputs → branch
	// set) pairs of every run that covered a direction no earlier kept
	// run covered (an online filter bounding the log by the program's
	// direction count).  The incremental re-audit pipeline distills the
	// log into a minimized replay suite; off by default because the kept
	// runs retain their input vectors.
	RecordRuns bool
	// Persistent, when non-nil, is the disk-backed solve memo consulted
	// on in-memory solve-cache misses and filled by fresh solves, keyed
	// portably (stable input names + domains + budget; see
	// solver.PortableKey) so entries are valid across functions,
	// searches, and processes.  Like the in-memory cache it can change
	// only how much solver work a search spends, never what it finds.
	Persistent solver.PersistentCache
	// Interpreter selects the reference tree-walking interpreter instead
	// of the default closure-threaded compiled engine.  Both produce
	// byte-identical reports (the -xcheck differential gate holds them
	// to that); the interpreter exists as the semantic reference and for
	// flushing out divergence bugs.
	Interpreter bool
	// StallWindow is the plateau window of the explainer's stall
	// detector, in completed runs: a CoverageStall event fires each time
	// coverage has not moved for a further full window.  Zero selects
	// obs.DefaultStallWindow; negative disables the detector.  Only
	// meaningful with CollectExplain.
	StallWindow int64
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Depth <= 0 {
		out.Depth = 1
	}
	if out.MaxRuns <= 0 {
		out.MaxRuns = 10000
	}
	if out.MaxSteps <= 0 {
		out.MaxSteps = machine.DefaultMaxSteps
	}
	if out.LibImpls == nil {
		out.LibImpls = machine.StdLibImpls()
	}
	if out.MaxShapeDepth <= 0 {
		out.MaxShapeDepth = 6
	}
	if out.MaxFrontier <= 0 {
		out.MaxFrontier = 1 << 15
	}
	if out.SolverBudget <= 0 {
		out.SolverBudget = solver.DefaultWork
	}
	if out.Workers <= 0 {
		out.Workers = 1
	}
	return out
}

// StopReason explains why a search ended.
type StopReason string

// Stop reasons.
const (
	// StopExhausted: the directed search ran out of branches to flip —
	// the execution tree is exhausted (if every completeness flag is
	// intact this is Theorem 1(b), reported as Report.Complete).
	StopExhausted StopReason = "exhausted"
	// StopMaxRuns: the MaxRuns execution budget was consumed.
	StopMaxRuns StopReason = "max-runs"
	// StopDeadline: Options.Timeout elapsed.
	StopDeadline StopReason = "deadline"
	// StopCancelled: Options.Cancel was closed.
	StopCancelled StopReason = "cancelled"
	// StopFirstBug: StopAtFirstBug ended the search at the first error.
	StopFirstBug StopReason = "first-bug"
	// StopInternal: the engine itself failed persistently (machine
	// construction error, or repeated internal panics).
	StopInternal StopReason = "internal-error"
)

// InternalError is a fault of the testing engine itself — an internal
// panic or a machine-construction failure — converted into a diagnostic
// instead of crashing the process.  It always clears Report.Complete:
// found bugs stay sound (each still replays, Theorem 1(a)), but the
// faulting portion of the search space was not covered.
type InternalError struct {
	// Phase locates the fault: "init" (machine construction), "run"
	// (panic while executing the program under test), "solver" (panic
	// inside constraint solving), or "observer" (panic inside a
	// user-supplied trace sink, after which observation is disabled).
	Phase string
	// Msg is the panic value or error text.
	Msg string
	// Run is the 1-based run index the fault occurred on (0 for faults
	// before the first run).
	Run int
	// Inputs is the input vector that was driving the faulting run or
	// solve, recorded for replay.
	Inputs map[string]int64
}

func (e InternalError) String() string {
	return fmt.Sprintf("internal error (%s, run %d): %s", e.Phase, e.Run, e.Msg)
}

// Bug is one distinct error found during the search.
type Bug struct {
	Kind machine.Outcome // Aborted, Crashed, or StepLimit
	Msg  string
	Pos  token.Pos
	// Run is the 1-based run index that first exposed the bug.
	Run int
	// Inputs is the input vector that triggers the bug: input key to
	// concrete value (pointer inputs: 0 = NULL, 1 = allocated).
	Inputs map[string]int64
}

func (b Bug) String() string {
	return fmt.Sprintf("[%s] %s at %s (run %d)", b.Kind, b.Msg, b.Pos, b.Run)
}

// Report summarizes a directed search.
type Report struct {
	// Runs is the number of program executions performed.
	Runs int
	// Bugs are the distinct errors found, in discovery order.
	Bugs []Bug
	// Complete is true when the search exhausted every feasible path
	// with all completeness flags intact: by Theorem 1(b), the program
	// has no reachable abort (modulo the checked error classes).
	Complete bool
	// AllLinear / AllLocsDefinite are the accumulated completeness flags.
	AllLinear       bool
	AllLocsDefinite bool
	// Restarts counts fresh random restarts forced by mispredictions.
	Restarts int
	// Mispredicts counts executions that diverged from the solver's
	// predicted branch (the machine wrapped where the solver's exact
	// arithmetic did not, or vice versa).  Each misprediction abandons
	// the predicted flip unexplored — the classic stack marks the branch
	// done and restarts, the frontier discards the item — so any
	// misprediction clears Complete: the execution tree was not provably
	// exhausted (Theorem 1(b)'s hypothesis failed).
	Mispredicts int
	// Steps is the total instruction count across runs.
	Steps int64
	// Coverage accumulates branch coverage over all runs.
	Coverage *coverage.Set
	// SolverCalls and SolverFailures count constraint-solving activity.
	SolverCalls    int
	SolverFailures int
	// SolveCacheHits, SolveCacheMisses, and SolveCacheEvictions count the
	// per-search solve cache's activity (all zero when the cache is
	// disabled).  SlicedPreds counts path-constraint predicates pruned by
	// independence slicing before solving.  These meter the fast path
	// only; they never influence what the search finds.
	SolveCacheHits      int
	SolveCacheMisses    int
	SolveCacheEvictions int
	SlicedPreds         int64
	// SolveCacheDiskHits counts solves answered by the persistent
	// (disk-backed) solve cache; zero unless Options.Persistent is set.
	SolveCacheDiskHits int
	// Workers is the number of engines the search ran with (1 for the
	// classic stack, the random baseline, and the one-worker pool).
	Workers int
	// FrontierDropped counts pending flips discarded because the
	// frontier worklist overflowed MaxFrontier.  Each dropped flip is an
	// abandoned unexplored subtree, so any drop clears Complete; the
	// count keeps the loss visible instead of silent.
	FrontierDropped int
	// Steals counts work-stealing transfers between pool workers (zero
	// at one worker).
	Steals int64
	// RunLog is the recorded (inputs → branch set) pairs for suite
	// distillation (nil unless Options.RecordRuns): every run that first
	// covered some branch direction, in keep order.  Never encoded to
	// JSON — it exists for internal/distill.
	RunLog []RunRecord `json:"-"`
	// Stopped records why the search ended; a tripped deadline or a
	// cancellation produces a partial report with the matching reason,
	// never an error.
	Stopped StopReason
	// SolverComplete is false when at least one constraint solve was
	// abandoned on budget exhaustion (or an internal solver fault): the
	// abandoned branch may have been feasible, so exhausting the tree no
	// longer proves full path coverage.
	SolverComplete bool
	// InternalErrors are faults of the engine itself, isolated per run
	// and per solve so the search could continue (or stop gracefully)
	// instead of crashing the process.
	InternalErrors []InternalError
	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
	// Metrics is the frozen metrics registry of the search: counters and
	// fixed-bucket histograms (solver latency and Fourier–Motzkin work
	// per solve, steps per run, path-constraint length, frontier depth).
	Metrics *obs.Snapshot
	// Profile is the search's cost profile (nil unless CollectProfile):
	// per-phase wall breakdown plus per-branch-site solver time/work
	// attribution, merged across workers like the rest of the report.
	Profile *obs.ProfileSnapshot
	// Explain is the coverage explainer's raw output (nil unless
	// CollectExplain): the per-site cause ledger, merged across workers
	// like the rest of the report, plus the search's coverage timeline
	// and stall count.  Resolve it against the program's site universe
	// with ResolveExplain for the per-direction verdicts.
	Explain *obs.ExplainSnapshot
}

// FirstBug returns the first bug or nil.
func (r *Report) FirstBug() *Bug {
	if len(r.Bugs) == 0 {
		return nil
	}
	return &r.Bugs[0]
}

// stackEntry is the paper's (branch, done) record.
type stackEntry struct {
	branch bool
	done   bool
}

// flipRef is one flip target: the conditional at branch index depth of
// its parent run, at site (-1 for shape decisions), forced to outcome
// taken.  path is the forced path's bit string, rendered only for trace
// events; ok is false for "no flip" (a fresh random run).
type flipRef struct {
	ok    bool
	site  int
	taken bool
	depth int
	path  string
}

// sharedSearch is what every engine of one search shares: the program
// and options, the compiled code, the input registry, the solve cache,
// the run recorder and the coverage timeline, plus the search-wide
// ledger — bug claims, the run budget, the fault budget, and the first
// stop reason.  A one-engine search (the classic stack, the random
// baseline, the pool at one worker) books through it exactly as the
// workers of a parallel pool do.
type sharedSearch struct {
	prog     *ir.Prog
	opts     Options
	start    time.Time
	deadline time.Time
	fn       *ir.Func
	// code is the program's compiled form, shared read-only by every
	// engine (nil = interpreter); it lowers each function once, under a
	// per-function sync.Once.
	code *machine.Compiled
	// regs interns every input path once, so symbolic variable numbering
	// — and with it solve-cache keys — is global to the search.
	regs *machine.InputTrie
	// cache memoizes sliced solves for every engine (nil when disabled by
	// SolveCacheCap).
	cache *solver.Cache
	// rec is the run log for suite distillation (nil unless RecordRuns);
	// one log spans the search, since the distilled suite must cover the
	// union coverage.
	rec *runRecorder
	// timeline is the coverage timeline (nil unless CollectExplain), and
	// cov a pool's search-wide coverage view for it: per-worker report
	// sets overcount directions another worker covered first (nil for
	// one engine, whose own set is the search's).
	timeline *obs.Timeline
	cov      *coverage.Set

	// The ledger below is written by every worker of a pool (runsLeft on
	// every run); the pad keeps it off the cache line of the read-mostly
	// fields above, which every run and solve of every worker reads.
	_ [64]byte

	// runsLeft is the unreserved MaxRuns budget, read without a lock
	// before every solve of the pool.
	runsLeft atomic.Int64

	mu      sync.Mutex
	bugs    map[string]bool
	faults  int
	stopped StopReason
}

// newSearch validates opts against prog and builds the state the
// search's engines share.
func newSearch(prog *ir.Prog, opts Options) (*sharedSearch, error) {
	o := opts.withDefaults()
	fn, err := toplevel(prog, o)
	if err != nil {
		return nil, err
	}
	s := &sharedSearch{
		prog:     prog,
		opts:     o,
		start:    time.Now(),
		fn:       fn,
		code:     compileFor(prog, o),
		regs:     machine.NewInputTrie(),
		timeline: newTimeline(o),
	}
	if o.Timeout > 0 {
		s.deadline = s.start.Add(o.Timeout)
	}
	if o.SolveCacheCap >= 0 {
		s.cache = solver.NewCache(o.SolveCacheCap, o.Workers)
	}
	if o.RecordRuns {
		s.rec = newRunRecorder(prog.NumSites, s.regs)
	}
	if s.timeline != nil && o.Workers > 1 {
		s.cov = coverage.New(prog.NumSites)
	}
	s.runsLeft.Store(int64(o.MaxRuns))
	return s, nil
}

// toplevel resolves the function under test.
func toplevel(prog *ir.Prog, o Options) (*ir.Func, error) {
	fn, ok := prog.Lookup(o.Toplevel)
	if !ok {
		return nil, fmt.Errorf("concolic: toplevel function %q is not defined in the program", o.Toplevel)
	}
	return fn, nil
}

// newEngine builds the engine of worker i (0-based).  A directed engine
// registers every input as a symbolic variable and follows the stack its
// flips predict; a concrete one (the random baseline) draws a fresh
// vector per run and keeps no profile or cause ledger.  Every engine of
// a one-engine search is worker 0 and stamps no worker id on its events.
func (s *sharedSearch) newEngine(i int, directed bool) *engine {
	o := s.opts
	worker := 0
	if o.Workers > 1 {
		worker = i + 1
	}
	e := &engine{
		sharedSearch: s,
		im:           &vector{},
		obs:          o.Observer,
		metrics:      newMetrics(o),
		worker:       worker,
		report: &Report{
			AllLinear:       true,
			AllLocsDefinite: true,
			SolverComplete:  true,
			Coverage:        coverage.New(s.prog.NumSites),
		},
	}
	e.in.rand = rng.New(o.Seed)
	cfg := machine.Config{Inputs: &e.in}
	if directed {
		e.in.symbolic = true
		e.prof = newProfile(o, worker)
		e.exp = newExplain(o, worker)
		cfg.OnBranch = e.onBranch
		cfg.ShapeSearch = !o.DisableShapeSearch
	}
	e.drv = newDriver(s, cfg)
	return e
}

// claimBug reports whether sig is new search-wide, claiming it: each
// distinct bug enters exactly one engine's report (and emits exactly one
// BugFound event), keeping live event-derived counters equal to the
// final report.
func (s *sharedSearch) claimBug(sig string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bugs[sig] {
		return false
	}
	if s.bugs == nil {
		// Bug-free searches (the audit's common case) never pay for the
		// dedup map.
		s.bugs = make(map[string]bool, 1)
	}
	s.bugs[sig] = true
	return true
}

// budgetLeft reports whether the run budget has an unreserved slot.
func (s *sharedSearch) budgetLeft() bool { return s.runsLeft.Load() > 0 }

// reserveRun consumes one slot of the MaxRuns budget, reporting false
// when it is spent.  Reservation happens just before a program
// execution: solver-only work (infeasible flips) consumes no budget.
func (s *sharedSearch) reserveRun() bool { return s.runsLeft.Add(-1) >= 0 }

// recordCov folds one run's branch records into the search-wide
// coverage view, returning how many directions it newly covered.
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

// noteStop records why the search stops; the first reason wins (under
// a pool, later ones are siblings winding down after the abort).
func (s *sharedSearch) noteStop(r StopReason) {
	s.mu.Lock()
	if s.stopped == "" {
		s.stopped = r
	}
	s.mu.Unlock()
}

// engine is the state of one search worker: its pooled machine, input
// vector, stack, and per-worker report and collectors.  A one-engine
// search has one; the pool has one per worker.  Everything search-wide
// comes from the embedded sharedSearch.
type engine struct {
	*sharedSearch

	// im is the current input vector (Var -> value/decision), and in the
	// input source that reads it into the machine; in.rand is the
	// engine's random stream.
	im *vector
	in inputVector
	// drv is this engine's test driver and pooled machine.
	drv *driver
	// path is the classic engine's index of the current run's path
	// constraint and hint, rebuilt in place once per run by solveNext.
	path solver.Path
	// scratch is this engine's working memory for slicing and verifying
	// flips, whichever engine built their Path (a pool worker solves
	// siblings that another worker indexed).
	scratch solver.PathScratch
	// pkey and portable are the buffer and working memory the disk
	// layer's keys are rendered into (solveIsolated).
	pkey     []byte
	portable solver.PortableScratch

	// Per-run state: the predicted stack and its cursor, whether the run
	// diverged from the prediction, and the flip the run forces.  A
	// frontier engine rebuilds the stack in place for each flip
	// (solveItem).
	stack      []stackEntry
	k          int
	mispredict bool
	flip       flipRef

	// obs receives trace events (nil = no observation); metrics is the
	// per-engine registry (nil unless observed or CollectMetrics), a
	// fold over every event the engine emits.
	obs     obs.Sink
	metrics *obs.Metrics
	// prof is the per-worker cost profiler (nil unless CollectProfile);
	// every Profile method no-ops on nil, so call sites guard only the
	// time.Now captures.
	prof *obs.Profile
	// exp is the per-worker coverage-explainer ledger (nil unless
	// CollectExplain).
	exp *obs.Explain
	// lastTickSolves is the SolverCalls total at the previous timeline
	// tick (per-run solve deltas feed the timeline's cumulative count).
	lastTickSolves int
	// kids is the frontier engine's buffer for the children of its last
	// run (childItems).
	kids []frontierItem
	// qlen reports the pool's pending-flip backlog for timeline samples
	// (nil for the classic stack engine, which derives its backlog from
	// the stack).
	qlen func() int

	// worker is the 1-based pool worker id stamped on every emitted
	// event; 0 (omitted from encodings) for a one-engine search.
	worker int

	report *Report
}

var errMispredicted = errors.New("execution diverged from predicted branch")

// compileFor builds prog's compiled form for a search's execution
// engines, which lower each function on its first call; nil selects the
// reference tree-walking interpreter.
func compileFor(prog *ir.Prog, o Options) *machine.Compiled {
	if o.Interpreter {
		return nil
	}
	return machine.Compile(prog)
}

// Run performs the directed search over prog.  The DFS strategy at one
// worker runs on the paper's stack (Figs. 4–5); every other strategy,
// and every strategy at Workers > 1, runs the generational frontier on
// the work-stealing pool (see frontier.go and parallel.go).
func Run(prog *ir.Prog, opts Options) (*Report, error) {
	s, err := newSearch(prog, opts)
	if err != nil {
		return nil, err
	}
	if s.opts.Strategy != DFS || s.opts.Workers > 1 {
		return s.runPool(), nil
	}
	e := s.newEngine(0, true)
	e.search()
	return s.finish([]*engine{e}), nil
}

// finish folds a search's engines into its one report: counters sum,
// completeness flags AND (any engine's fallback is the search's), and
// coverage, metrics, profile and explain ledger merge.  Bugs stay in
// discovery order for one engine; a pool's sort canonically by source
// position, so its report is independent of worker finishing order.
// Profile and ledger rows take their source positions from the
// program's site table; the explain ledger is stamped with the timeline
// and resolved, and its reason buckets are emitted as UncoveredReason
// events, before the report is returned.
func (s *sharedSearch) finish(engines []*engine) *Report {
	merged := &Report{
		AllLinear:       true,
		AllLocsDefinite: true,
		SolverComplete:  true,
		Workers:         len(engines),
		Coverage:        coverage.New(s.prog.NumSites),
	}
	for _, e := range engines {
		r := e.report
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
		// Only the classic stack engine proves completeness on its own
		// report; the pool proves it over the merged one (runPool).
		merged.Complete = merged.Complete || r.Complete
		merged.Coverage.Merge(r.Coverage)
		merged.Bugs = append(merged.Bugs, r.Bugs...)
		if snap := e.prof.Snapshot(); merged.Profile == nil {
			merged.Profile = snap
		} else {
			merged.Profile.Merge(snap)
		}
		if snap := e.exp.Snapshot(); merged.Explain == nil {
			merged.Explain = snap
		} else {
			merged.Explain.Merge(snap)
		}
	}
	if len(engines) > 1 {
		sortBugs(merged.Bugs)
	}
	var refs []obs.ExplainSiteRef
	if s.opts.CollectProfile || s.opts.CollectExplain {
		refs = siteRefs(s.prog)
		stampPos(refs, merged.Profile, merged.Explain)
	}
	if s.timeline != nil {
		// The random baseline keeps no cause ledger: its explainer output
		// is the timeline over an empty one, so reached-but-dark
		// directions resolve to "not-attempted".
		if merged.Explain == nil {
			merged.Explain = &obs.ExplainSnapshot{Workers: 1}
		}
		s.timeline.Stamp(merged.Explain)
		rep := resolve(refs, merged.Explain, merged.Coverage)
		for _, reason := range obs.ReasonPrecedence {
			if n := rep.Buckets[reason]; n > 0 {
				engines[0].emit(&obs.Event{Kind: obs.UncoveredReason, Run: merged.Runs, Reason: reason, Count: n})
			}
		}
	}
	// Metrics and internal errors fold last: engine 0's registry folds
	// the UncoveredReason events above, and an observer fault during
	// them still reaches the report.
	for _, e := range engines {
		if snap := e.metrics.Snapshot(); merged.Metrics == nil {
			merged.Metrics = snap
		} else {
			merged.Metrics.Merge(snap)
		}
		merged.InternalErrors = append(merged.InternalErrors, e.report.InternalErrors...)
	}
	merged.Stopped = s.stopped
	if merged.Stopped == "" {
		merged.Stopped = StopMaxRuns
	}
	merged.RunLog = s.rec.log()
	merged.Elapsed = time.Since(s.start)
	return merged
}

// sortBugs orders bugs canonically — source position, then kind, then
// message — the discovery-order-free order of a pool's report.
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

// ResolveExplain resolves a search's raw explain ledger against prog's
// full branch-site universe and the covered directions of cov, turning
// the cause tallies into one terminal reason per uncovered direction.
// The result is pure ledger — no timeline, no wall clock — so it is
// byte-identical across worker counts whenever the ledger is.
func ResolveExplain(prog *ir.Prog, snap *obs.ExplainSnapshot, cov *coverage.Set) *obs.ExplainReport {
	return resolve(siteRefs(prog), snap, cov)
}

// resolve is ResolveExplain over an already built site table.
func resolve(refs []obs.ExplainSiteRef, snap *obs.ExplainSnapshot, cov *coverage.Set) *obs.ExplainReport {
	return snap.Resolve(refs, func(site int, taken bool) bool {
		tk, ntk := cov.Site(site)
		if taken {
			return tk
		}
		return ntk
	})
}

// siteRefs is prog's branch-site table: every site with its function
// and rendered source position, in site order.
func siteRefs(prog *ir.Prog) []obs.ExplainSiteRef {
	sites := coverage.ProgSites(prog)
	refs := make([]obs.ExplainSiteRef, len(sites))
	for i, s := range sites {
		refs[i] = obs.ExplainSiteRef{Site: s.Site, Fn: s.Fn, Pos: s.Pos.String()}
	}
	return refs
}

// stampPos gives every profile and ledger row the source position of
// its site in the site table refs.  A shape decision (site -1) has no
// conditional of its own and renders the zero position.
func stampPos(refs []obs.ExplainSiteRef, prof *obs.ProfileSnapshot, exp *obs.ExplainSnapshot) {
	pos := func(site int) string {
		i := sort.Search(len(refs), func(i int) bool { return refs[i].Site >= site })
		if i < len(refs) && refs[i].Site == site {
			return refs[i].Pos
		}
		return token.Pos{}.String()
	}
	if prof != nil {
		for i := range prof.Sites {
			prof.Sites[i].Pos = pos(prof.Sites[i].Site)
		}
	}
	if exp != nil {
		for i := range exp.Sites {
			exp.Sites[i].Pos = pos(exp.Sites[i].Site)
		}
	}
}

// bugSig is the dedup identity of a program error: outcome, message, and
// source position.
func bugSig(rerr *machine.RunError) string {
	return rerr.Outcome.String() + "|" + rerr.Msg + "|" + rerr.Pos.String()
}

// ------------------------------------------------------------ observation

// newMetrics returns the search's metrics registry, or nil — every
// Metrics method no-ops on a nil receiver — when neither an observer
// nor CollectMetrics asks for one.  The gate keeps sub-millisecond
// unobserved searches free of the registry's setup and snapshot cost.
func newMetrics(o Options) *obs.Metrics {
	if o.Observer == nil && !o.CollectMetrics {
		return nil
	}
	return obs.NewMetrics()
}

// newProfile returns the search's cost profiler for one worker, or nil
// (every Profile method no-ops on nil) unless CollectProfile asks for
// one.  Deliberately NOT implied by an Observer: profiling reads the
// wall clock around every run and solve, and the event stream must
// stay free of timing for determinism.
func newProfile(o Options, worker int) *obs.Profile {
	if !o.CollectProfile {
		return nil
	}
	return obs.NewProfile(o.Toplevel, worker)
}

// newExplain returns one worker's coverage-explainer ledger, or nil
// (every Explain method no-ops on nil) unless CollectExplain asks for
// one.  Like the profiler it is NOT implied by an Observer: the ledger
// records per-branch occurrence tallies the unobserved engine path
// should not pay for.
func newExplain(o Options, worker int) *obs.Explain {
	if !o.CollectExplain {
		return nil
	}
	return obs.NewExplain(worker)
}

// newTimeline returns the search-global coverage timeline, or nil when
// the explainer is off.  StallWindow zero selects the default plateau
// window; negative disables the stall detector.
func newTimeline(o Options) *obs.Timeline {
	if !o.CollectExplain {
		return nil
	}
	w := o.StallWindow
	if w == 0 {
		w = obs.DefaultStallWindow
	} else if w < 0 {
		w = 0
	}
	return obs.NewTimeline(0, w, 0)
}

// tickTimeline records one completed run on the search's coverage
// timeline: the run's newly covered directions (deduped search-wide
// across a pool's workers), the pending-flip backlog, and the worker's
// solver-call delta.  A fired plateau is emitted by the ticking worker,
// so per-worker registries stay race-free.  No-op when the explainer is
// off.
func (e *engine) tickTimeline(newly int) {
	if e.timeline == nil {
		return
	}
	delta := e.report.SolverCalls - e.lastTickSolves
	e.lastTickSolves = e.report.SolverCalls
	if stall, fired := e.timeline.Tick(newly, e.pendingFlips(), int64(delta)); fired {
		e.emit(&obs.Event{Kind: obs.CoverageStall, Run: int(stall.Run),
			Covered: stall.Covered, Window: stall.Window})
	}
}

// pendingFlips is the search's current pending-flip backlog for the
// timeline: the classic stack engine's not-done entries, or the pool's
// queue length across all its workers.
func (e *engine) pendingFlips() int {
	if e.qlen != nil {
		return e.qlen()
	}
	n := 0
	for _, s := range e.stack {
		if !s.done {
			n++
		}
	}
	return n
}

// emit books one trace event through book when a metrics registry or an
// observer is attached.  It inlines, and the event never escapes, so
// with neither attached an emit is an event built on the caller's stack
// and two nil-checks.
func (e *engine) emit(ev *obs.Event) {
	if e.metrics != nil || e.obs != nil {
		e.book(ev)
	}
}

// book folds ev into the metrics registry (a fold over the events,
// observed or not) and forwards it to the observer behind its own
// recover barrier: a panicking user-supplied sink is
// recorded as an internal fault and observation is disabled, so the
// search itself continues (the same isolation discipline as per-run and
// per-solve panics).
func (e *engine) book(ev *obs.Event) {
	e.metrics.Fold(ev)
	if e.obs == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			e.obs = nil
			e.fault(InternalError{
				Phase: "observer",
				Msg:   fmt.Sprintf("panic: %v", r),
				Run:   e.report.Runs,
			})
		}
	}()
	ev.Fn = e.opts.Toplevel
	if ev.Worker == 0 {
		ev.Worker = e.worker
	}
	e.obs.Event(*ev)
}

// runOutcome names how a run terminated for the RunEnd event.
func runOutcome(rerr *machine.RunError) string {
	if rerr == nil {
		return machine.HaltOK.String()
	}
	return rerr.Outcome.String()
}

func pathBit(taken bool) byte {
	if taken {
		return '1'
	}
	return '0'
}

// pathString encodes an executed branch sequence as a bit string ("1"
// taken, "0" not taken); only built when an observer is attached.
func pathString(branches []machine.BranchRec) string {
	b := make([]byte, len(branches))
	for i := range branches {
		b[i] = pathBit(branches[i].Taken)
	}
	return string(b)
}

// flipPath is the bit string of the path the search is about to force:
// the executed outcomes of branches[0..j) followed by the negation of
// branches[j].
func flipPath(branches []machine.BranchRec, j int) string {
	b := make([]byte, j+1)
	for i := 0; i < j; i++ {
		b[i] = pathBit(branches[i].Taken)
	}
	b[j] = pathBit(!branches[j].Taken)
	return string(b)
}
