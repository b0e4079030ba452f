// Package dart is a Go implementation of DART — Directed Automated
// Random Testing (Godefroid, Klarlund, Sen; PLDI 2005) — for programs
// written in MiniC, a C subset with pointers, structs, arrays, and
// external interfaces.
//
// DART tests a program with no hand-written harness by combining three
// techniques:
//
//  1. interface extraction: the program's inputs are the arguments of a
//     chosen toplevel function, its extern variables, and the return
//     values of its extern functions (Interface);
//  2. an automatically generated random test driver that initializes
//     every input (pointers become NULL or fresh heap objects with
//     probability 1/2 each, recursively); and
//  3. a directed search: each run executes concretely and symbolically
//     at once, collecting a path constraint over the inputs; negating a
//     branch predicate and solving yields inputs that steer the next run
//     down a new path, sweeping the program's execution tree.
//
// Basic use:
//
//	prog, err := dart.Compile(src)
//	rep, err := dart.Run(prog, dart.Options{Toplevel: "h"})
//	if bug := rep.FirstBug(); bug != nil { ... }
//
// Run reports program crashes (segmentation faults, division by zero),
// abort() reachability and assertion violations, and optionally
// non-termination (step-budget exhaustion).  If the search terminates
// with Report.Complete, every feasible execution path was exercised and
// the program is error-free for the checked classes (Theorem 1 of the
// paper).  RandomTest provides the pure random-testing baseline the
// paper compares against.
package dart

import (
	"fmt"
	"io"

	"dart/internal/audit"
	"dart/internal/concolic"
	"dart/internal/corpus"
	"dart/internal/coverage"
	"dart/internal/iface"
	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/minisip"
	"dart/internal/obs"
	"dart/internal/ops"
	"dart/internal/parser"
	"dart/internal/sema"
	"dart/internal/serve"
	"dart/internal/solver"
	"dart/internal/types"
)

// DefaultSolveCacheCap is the default capacity of the per-search solve
// cache (Options.SolveCacheCap; see the "Solver fast path" note in the
// README).
const DefaultSolveCacheCap = solver.DefaultCacheCap

// Program is a compiled MiniC program ready for testing.
type Program struct {
	IR  *ir.Prog
	Sem *sema.Program
}

// Options configures a search; see the field documentation in the
// concolic package.
type Options = concolic.Options

// Report summarizes a search.
type Report = concolic.Report

// Bug is one distinct error found.
type Bug = concolic.Bug

// Interface is the extracted external interface of a program.
type Interface = iface.Interface

// Strategy selects the directed search's branch-selection order.
type Strategy = concolic.Strategy

// Search strategies.
const (
	DFS          = concolic.DFS
	BFS          = concolic.BFS
	RandomBranch = concolic.RandomBranch
)

// Outcome re-exports the run outcome classification for bug kinds.
type Outcome = machine.Outcome

// Bug kinds.
const (
	Aborted   = machine.Aborted
	Crashed   = machine.Crashed
	StepLimit = machine.StepLimit
)

// StopReason explains why a search ended (Report.Stopped).  A tripped
// deadline or a cancellation yields a partial Report with the matching
// reason, never an error.
type StopReason = concolic.StopReason

// Stop reasons.
const (
	StopExhausted = concolic.StopExhausted
	StopMaxRuns   = concolic.StopMaxRuns
	StopDeadline  = concolic.StopDeadline
	StopCancelled = concolic.StopCancelled
	StopFirstBug  = concolic.StopFirstBug
	StopInternal  = concolic.StopInternal
)

// InternalError is an isolated fault of the testing engine itself,
// reported on Report.InternalErrors instead of crashing the process.
type InternalError = concolic.InternalError

// CompileConfig adjusts compilation.
type CompileConfig struct {
	// DisableOptimizer skips the IR optimizer (constant folding, branch
	// folding, jump threading, dead-code removal); useful as an ablation
	// or when debugging lowered code.
	DisableOptimizer bool
	// Lib overrides the library (black-box) function signatures; nil
	// selects the standard library.
	Lib map[string]*types.Func
}

// Compile parses, type-checks, and lowers a MiniC translation unit.  The
// standard library (abs, min, max, mix, cube, alloca, memset, memcpy,
// strlen, strcmp) is available to the program as black-box functions,
// and the IR optimizer runs by default.
func Compile(src string) (*Program, error) {
	return CompileWith(src, CompileConfig{})
}

// CompileWith is Compile with explicit configuration.
func CompileWith(src string, cfg CompileConfig) (*Program, error) {
	file, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	lib := cfg.Lib
	if lib == nil {
		lib = machine.StdLibSigs()
	}
	sem, err := sema.Check(file, lib)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	prog, err := ir.Compile(sem)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	if !cfg.DisableOptimizer {
		ir.Optimize(prog)
	}
	return &Program{IR: prog, Sem: sem}, nil
}

// Run performs DART's directed search on the program.
func Run(p *Program, opts Options) (*Report, error) {
	return concolic.Run(p.IR, opts)
}

// RandomTest performs pure random testing (the baseline of the paper's
// evaluation tables).
func RandomTest(p *Program, opts Options) (*Report, error) {
	return concolic.RandomTest(p.IR, opts)
}

// Replay executes the program once, concretely, on a recorded input
// vector — typically a Bug's Inputs.  It returns nil when the run
// terminates normally, or the error the inputs reproduce.  Every bug
// reported by Run replays to the same error (the paper's Theorem 1(a):
// errors found by DART are sound).
func Replay(p *Program, opts Options, inputs map[string]int64) (*machine.RunError, error) {
	return concolic.Replay(p.IR, opts, inputs)
}

// RunError describes how a replayed execution terminated abnormally.
type RunError = machine.RunError

// ExtractInterface returns the program's external interface for the
// given toplevel function (the paper's technique 1).
func ExtractInterface(p *Program, toplevel string) (*Interface, error) {
	return iface.Extract(p.Sem, toplevel)
}

// Functions lists every defined function, i.e. every valid toplevel
// choice; a whole-library audit (the oSIP experiment) iterates over it.
func Functions(p *Program) []string {
	return iface.Candidates(p.Sem)
}

// AuditOptions configures a whole-library audit; see the field
// documentation in the audit package.
type AuditOptions = audit.Options

// AuditResult is a whole-library audit's batch outcome.
type AuditResult = audit.Result

// AuditEntry is the audit result for one function.
type AuditEntry = audit.Entry

// AuditStatus classifies one function's audit outcome.
type AuditStatus = audit.Status

// Audit statuses.
const (
	AuditOK        = audit.OK
	AuditBuggy     = audit.Buggy
	AuditTimedOut  = audit.TimedOut
	AuditFaulted   = audit.Faulted
	AuditCancelled = audit.Cancelled
)

// TraceEvent is one structured event of the search observability layer
// (see the obs package).  Events carry only deterministic payloads, so
// a fixed-seed search traces byte-identically on every replay.
type TraceEvent = obs.Event

// TraceKind discriminates trace events.
type TraceKind = obs.Kind

// Trace event kinds.
const (
	EvRunStart         = obs.RunStart
	EvRunEnd           = obs.RunEnd
	EvBranchFlip       = obs.BranchFlip
	EvMisprediction    = obs.Misprediction
	EvRestart          = obs.Restart
	EvSolverCall       = obs.SolverCall
	EvSolverVerdict    = obs.SolverVerdict
	EvSolveCacheHit    = obs.SolveCacheHit
	EvFallbackConcrete = obs.FallbackConcrete
	EvBugFound         = obs.BugFound
	EvAuditFnStart     = obs.AuditFnStart
	EvAuditFnEnd       = obs.AuditFnEnd
)

// TraceSink receives trace events; set Options.Observer (or
// AuditOptions.Observer) to attach one.  With a nil observer and no
// metrics registry an event is a stack value and two nil-checks; a
// panicking observer is isolated like any other internal fault and
// observation is disabled for the rest of the search.
type TraceSink = obs.Sink

// TraceSinkFunc adapts a function to the TraceSink interface.
type TraceSinkFunc = obs.SinkFunc

// NDJSONSink writes one JSON object per event line with monotonic
// sequence numbers; safe for concurrent audit workers.
type NDJSONSink = obs.NDJSON

// NewNDJSONSink returns an NDJSONSink writing to w.
func NewNDJSONSink(w io.Writer) *NDJSONSink { return obs.NewNDJSON(w) }

// TeeSinks fans events out to several sinks (nils are skipped).
func TeeSinks(sinks ...TraceSink) TraceSink { return obs.Tee(sinks...) }

// PathTree is a sink reconstructing the explored execution tree from
// the event stream; it renders to JSON or Graphviz DOT.
type PathTree = obs.Tree

// NewPathTree returns a PathTree capped at maxNodes nodes
// (0 = the default cap).
func NewPathTree(maxNodes int) *PathTree { return obs.NewTree(maxNodes) }

// MetricsSnapshot is the point-in-time view of a search's metrics
// registry (Report.Metrics, AuditResult.Metrics).
type MetricsSnapshot = obs.Snapshot

// ProfileSnapshot is a search's cost profile (Report.Profile,
// AuditResult.Profile; enabled by Options.CollectProfile): the
// per-phase wall-time breakdown and per-branch-site solver attribution.
type ProfileSnapshot = obs.ProfileSnapshot

// PhaseProfile and SiteProfile are a ProfileSnapshot's rows.
type (
	PhaseProfile = obs.PhaseProfile
	SiteProfile  = obs.SiteProfile
)

// ExplainSnapshot is a search's raw coverage-explainer ledger plus its
// run-indexed timeline (Report.Explain, AuditResult.Explain; enabled by
// Options.CollectExplain).  The ledger half is deterministic — an exact
// function of the seed on tree-exhausting searches, byte-identical
// across worker counts — while the timeline and stall count are honest
// schedule texture.
type ExplainSnapshot = obs.ExplainSnapshot

// ExplainReport is the resolved coverage explanation: every branch
// direction of the program accounted covered or carrying exactly one
// "why not covered" reason.  Render it with Table.
type ExplainReport = obs.ExplainReport

// SiteOutcome and DirOutcome are an ExplainReport's rows; TimelineSample
// and TimelineStall are the timeline's entries.
type (
	SiteOutcome    = obs.SiteOutcome
	DirOutcome     = obs.DirOutcome
	TimelineSample = obs.TimelineSample
	TimelineStall  = obs.TimelineStall
)

// ResolveExplain resolves a raw explainer ledger against the program's
// full branch-site universe and the accumulated coverage: the report
// accounts covered + every reason bucket to exactly 100% of the
// program's branch directions.
func ResolveExplain(p *Program, snap *ExplainSnapshot, cov *CoverageSet) *ExplainReport {
	return concolic.ResolveExplain(p.IR, snap, cov)
}

// CoverageSet accumulates branch-direction coverage over runs
// (Report.Coverage, AuditResult.Coverage).  Sets from different
// searches over the same program merge with Merge.
type CoverageSet = coverage.Set

// BranchSite locates one conditional branch site of a compiled program
// in its source.
type BranchSite = coverage.SiteInfo

// CoverageReport is an annotated source-level coverage view; render it
// with Text or HTML.
type CoverageReport = coverage.Report

// BranchSites indexes every conditional branch site of the compiled
// program by source position, for source-level coverage reports.
func BranchSites(p *Program) []BranchSite {
	return coverage.ProgSites(p.IR)
}

// AnnotateCoverage builds the source-level coverage report for src
// (the program text) under the accumulated set.
func AnnotateCoverage(src string, sites []BranchSite, set *CoverageSet) *CoverageReport {
	return coverage.Annotate(src, sites, set)
}

// OpsConfig configures the live operations HTTP server; see the ops
// package for the endpoint catalogue.
type OpsConfig = ops.Config

// OpsServer is a running live-operations HTTP server.  Feed it by
// adding Sink() to the search's observer tee and calling
// ReportCoverage as reports complete.
type OpsServer = ops.Server

// ServeOps starts the live operations server on cfg.Addr
// ("127.0.0.1:0" picks a free port; Addr() reports the binding).
func ServeOps(cfg OpsConfig) (*OpsServer, error) {
	return ops.Start(cfg)
}

// NewOpsServer builds an ops server without binding its socket, so a
// job service can mount its endpoints (JobService.RegisterOn) before
// Listen starts serving.
func NewOpsServer(cfg OpsConfig) *OpsServer {
	return ops.NewServer(cfg)
}

// JobsConfig configures the audit-as-a-service layer; see the serve
// package for field documentation (queue depth, executor pool, per-job
// deadline, retry policy, result-store and history caps).
type JobsConfig = serve.Config

// JobService is a running audit-as-a-service instance: a bounded job
// queue feeding a fixed executor pool, with per-job fault isolation and
// a bounded content-addressed result store.  Mount its HTTP surface on
// an ops server with RegisterOn, shut it down with Drain.
type JobService = serve.Service

// JobSubmission is one job request (source or registered library name,
// plus the search options that form the job's cache identity).
type JobSubmission = serve.Submission

// JobRecord is one submission's lifecycle record.
type JobRecord = serve.Job

// JobReport is the deterministic, cacheable outcome of one job.
type JobReport = serve.JobReport

// Job-admission errors: a full queue and a draining service are
// backpressure signals (HTTP 429 / 503), not faults.
var (
	ErrJobQueueFull = serve.ErrQueueFull
	ErrJobsDraining = serve.ErrDraining
)

// Job-service defaults, re-exported so cmd/dart's flag defaults show
// the real values in -help.
const (
	DefaultJobQueueDepth = serve.DefaultQueueDepth
	DefaultJobTimeout    = serve.DefaultJobTimeout
	DefaultDrainTimeout  = serve.DefaultDrainTimeout
	DefaultJobMaxBody    = serve.DefaultMaxBody
)

// NewJobService starts an audit-as-a-service instance; its executor
// pool is live on return.
func NewJobService(cfg JobsConfig) *JobService {
	return serve.New(cfg)
}

// BuiltinLibraries returns the registered library sources a job service
// can audit by name ("minisip": the paper's oSIP stand-in), for
// JobsConfig.Libraries.
func BuiltinLibraries() map[string]string {
	return map[string]string{"minisip": minisip.SourceText()}
}

// Corpus is an open incremental re-audit corpus: a versioned,
// checksummed directory holding each audited function's distilled
// replay suite and bug fixtures (keyed by IR content hash and options
// signature), the persistent solve cache layered under the in-memory
// LRU, and the job service's report spill.  Attach one via
// AuditOptions.Corpus or JobsConfig.Corpus; any corrupt file degrades
// to a full re-search, never a wrong verdict.
type Corpus = corpus.Corpus

// OpenCorpus opens (creating when absent) the corpus directory at dir.
func OpenCorpus(dir string) (*Corpus, error) {
	return corpus.Open(dir)
}

// Audit tests every function of the program (or opts.Toplevels when
// set) as the toplevel in turn — the paper's oSIP experiment — fanned
// out over a worker pool, with each function supervised by its own
// deadline and recover barrier.  The batch always returns per-function
// partial results; a hung or faulting function cannot take it down.
func Audit(p *Program, opts AuditOptions) *AuditResult {
	if len(opts.Toplevels) == 0 {
		opts.Toplevels = Functions(p)
	}
	return audit.Run(p.IR, opts)
}
