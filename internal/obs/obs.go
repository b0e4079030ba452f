// Package obs is the search observability layer: structured trace
// events, a metrics registry, cost profile and explain ledgers, and an
// explorable execution-tree model, all zero-dependency (standard library
// only) so the engine, the audit pool and the servers can use it without
// coupling.  The machine does not import it.
//
// The engine books each run and each solve once and emits one typed
// Event per fact to a Sink carried on the search options.  Every view is
// a fold over those facts: the metrics registry folds each event the
// engine emits (Metrics.Fold), and LiveMetrics and LiveProfile fold the
// observed stream with the same functions, so the live views and the
// final report agree by construction.  With no sink and no registry an
// emit is a stack value and two nil-checks, and none sits inside the
// machine's per-instruction step loop, so observation never taxes raw
// execution throughput.  Events carry only deterministic payloads (run
// indices, branch depths, path bit strings, solver work units — never
// wall-clock times), so a fixed-seed search produces a byte-identical
// NDJSON trace on every replay.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Kind discriminates trace events.
type Kind string

// Event kinds, in rough lifecycle order.  DESIGN.md maps each kind to
// the paper's algorithm (e.g. BranchFlip is directed_search's branch
// negation; Restart is the forcing_ok outer-loop restart).
const (
	// RunStart: one concrete+symbolic execution is about to begin.
	RunStart Kind = "run-start"
	// RunEnd: the execution finished; carries steps, outcome, and the
	// executed branch path as a bit string ("1" taken, "0" not taken).
	RunEnd Kind = "run-end"
	// BranchFlip: the search negated the branch predicate at Depth and
	// will drive the next run down Path (Fig. 5's branch negation).
	BranchFlip Kind = "branch-flip"
	// Misprediction: the run diverged from the predicted branch at Depth
	// (Fig. 4 cleared forcing_ok).
	Misprediction Kind = "mispredict"
	// Restart: the outer loop restarted from fresh random inputs.
	Restart Kind = "restart"
	// SolverCall: a path-constraint solve is starting; PCLen is the
	// constraint length, Path the target path being forced.
	SolverCall Kind = "solver-call"
	// SolverVerdict: the solve finished with Verdict after Work units.
	SolverVerdict Kind = "solver-verdict"
	// SolveCacheHit: the per-search solve cache answered this solve from
	// a memoized slice-level result (between the solve's SolverCall and
	// SolverVerdict events); PCLen is the sliced constraint length and
	// Verdict the memoized verdict.  Deterministic like every other
	// payload: a fixed seed hits the cache at the same points every run.
	SolveCacheHit Kind = "solve-cache-hit"
	// FrontierDrop: the pending-flip worklist overflowed MaxFrontier and
	// Dropped items were discarded.  Dropped flips are abandoned subtrees:
	// a search that dropped anything can no longer claim completeness, so
	// the drops are counted (Report.FrontierDropped) instead of silent.
	FrontierDrop Kind = "frontier-drop"
	// FrontierSteal: a parallel frontier worker ran out of local work and
	// stole a pending flip from a sibling's deque (Worker identifies the
	// thief).
	FrontierSteal Kind = "frontier-steal"
	// FrontierIdle: a parallel frontier worker found every deque empty
	// and slept until new work arrived (one event per idle episode, not
	// per wakeup).
	FrontierIdle Kind = "frontier-idle"
	// FallbackConcrete: a symbolic expression left the theory and fell
	// back to its concrete value; Flag names the completeness flag that
	// was cleared ("all_linear" or "all_locs_definite").  Emitted once
	// per run per flag, on the true-to-false transition.
	FallbackConcrete Kind = "fallback-concrete"
	// BugFound: a distinct program error was recorded.
	BugFound Kind = "bug-found"
	// AuditFnStart / AuditFnEnd bracket one function of a library audit.
	AuditFnStart Kind = "audit-fn-start"
	AuditFnEnd   Kind = "audit-fn-end"
	// CorpusHit: an audited function's corpus entry matched (same IR
	// content hash, same search options) and its distilled suite
	// replayed and validated, so the full search was skipped.  Count is
	// the number of replayed fixtures (suite cases plus bug fixtures).
	CorpusHit Kind = "corpus-hit"
	// CorpusMiss: an audited function fell through to full search;
	// Reason says why ("absent", "hash-changed", "options-changed",
	// "invalid", "replay-mismatch").
	CorpusMiss Kind = "corpus-miss"
	// CorpusStore: a completed search distilled its run log and wrote
	// (or refreshed) the function's corpus entry; Count is the distilled
	// suite size.
	CorpusStore Kind = "corpus-store"
	// JobQueued: the serve layer admitted a submission into the bounded
	// job queue (Job carries the id; Depth the queue depth after the
	// enqueue).  A cache-served submission is also announced as
	// JobQueued + JobEnd with Status "cached".
	JobQueued Kind = "job-queued"
	// JobStart: an executor picked the job up and its audit began.
	JobStart Kind = "job-start"
	// JobRetry: the job's attempt died to an isolated executor fault and
	// is being retried after backoff (Run is the 1-based attempt that
	// failed, Msg the fault).
	JobRetry Kind = "job-retry"
	// JobEnd: the job completed; Status is the job's terminal disposition
	// ("done", "cached", or a stop reason such as "deadline", "drain",
	// "internal-fault"), Runs/Bugs summarize its report.
	JobEnd Kind = "job-end"
	// JobRejected: a submission was refused at admission; Status says why
	// ("queue-full", "draining", "too-large", "bad-request").  Rejections
	// are the service's honest load-shedding signal — every 429/413/503
	// on POST /jobs emits exactly one.
	JobRejected Kind = "job-rejected"
	// CoverageStall: the explainer's plateau detector saw branch
	// coverage flat for a further full window of runs (Runs = completed
	// runs, Covered = the flat direction count, Window = the configured
	// window).  Fires once per full window and re-arms when coverage
	// moves.  Run counts, not wall clock: the payload stays
	// deterministic for a fixed schedule.
	CoverageStall Kind = "coverage-stall"
	// UncoveredReason: one resolved reason bucket of a finished search's
	// coverage explanation (Reason = the bucket, Count = its dark
	// direction count).  Emitted once per non-zero bucket at search end,
	// mirroring the report's explain ledger, so LiveMetrics can expose
	// dart_uncovered_total{reason=...} without replaying the ledger.
	UncoveredReason Kind = "uncovered-reason"
)

// OutcomeInternalError is the RunEnd outcome of a run the engine itself
// faulted on: the run counts like any other, but it has no recorded
// path, coverage or bug.
const OutcomeInternalError = "internal-error"

// Event is one structured trace record.  A single flat struct (rather
// than one type per kind) keeps NDJSON encoding allocation-free of
// reflection surprises and lets sinks switch on Kind without type
// assertions; unused fields are omitted from the JSON encoding.
type Event struct {
	// Seq is a monotonic sequence number assigned by the NDJSON sink at
	// write time (zero until then), making interleaved multi-worker
	// streams totally ordered on disk.
	Seq uint64 `json:"seq"`
	// Kind discriminates the event.
	Kind Kind `json:"ev"`
	// Fn is the toplevel function under test (always set by the engine;
	// lets per-function streams be demultiplexed from an audit trace).
	Fn string `json:"fn,omitempty"`
	// Job is the serve-layer job id the event belongs to; absent outside
	// job execution, so single-search and CLI-audit traces are unchanged.
	// Per-job streams demultiplex from the shared /events ring on it.
	Job string `json:"job,omitempty"`
	// Run is the 1-based run index within the function's search.  Under
	// the parallel frontier engine it is the index within the emitting
	// worker's own run stream (each worker numbers its runs from 1), so
	// (Fn, Worker, Run) identifies a run and per-worker streams stay
	// individually deterministic.
	Run int `json:"run,omitempty"`
	// Worker is the 1-based parallel frontier worker that emitted the
	// event; absent (0) for sequential searches, so single-worker traces
	// are byte-identical to pre-parallel ones.
	Worker int `json:"worker,omitempty"`
	// Dropped is the number of pending flips a FrontierDrop discarded.
	Dropped int `json:"dropped,omitempty"`
	// Depth is the branch index the event refers to (flip index,
	// misprediction point).
	Depth int `json:"depth,omitempty"`
	// Site is the 1-based branch-site index a SolverCall, SolverVerdict,
	// or BranchFlip targets (the machine's site number plus one, so the
	// zero value means "not site-attributed" — decision records and
	// non-branch events).  Deterministic: it names a static program
	// point, letting cost profiles be rebuilt from the event stream.
	Site int `json:"site,omitempty"`
	// PCLen is the path-constraint length of a solver call.
	PCLen int `json:"pc_len,omitempty"`
	// Path is a branch-outcome bit string ("1" taken, "0" not taken):
	// the executed path on RunEnd, the forced target on SolverCall and
	// BranchFlip.
	Path string `json:"path,omitempty"`
	// Verdict is the solver verdict ("sat", "unsat", "budget-exhausted").
	Verdict string `json:"verdict,omitempty"`
	// Work is the solver work spent (solver work units, deterministic).
	Work int64 `json:"work,omitempty"`
	// Sliced is the number of path-constraint predicates independence
	// slicing pruned before this solve (on SolverVerdict).
	Sliced int `json:"sliced,omitempty"`
	// Cache is the memo layer that answered a SolverVerdict: "hit" (the
	// in-memory cache), "disk" (the persistent solve cache), "miss" (both
	// missed and the solver ran), or absent when the in-memory cache is
	// disabled and no disk layer answered.  A hit is also announced by
	// its own SolveCacheHit event just before the verdict.
	Cache string `json:"cache,omitempty"`
	// CacheEvict marks a SolverVerdict whose memoization evicted the
	// least-recently-used cache entry.
	CacheEvict bool `json:"cache_evict,omitempty"`
	// Steps is the instruction count of a finished run.
	Steps int64 `json:"steps,omitempty"`
	// Outcome classifies a finished run ("halt", "abort", "crash", ...,
	// or OutcomeInternalError).
	Outcome string `json:"outcome,omitempty"`
	// Flag names the completeness flag a FallbackConcrete cleared.
	Flag string `json:"flag,omitempty"`
	// Msg carries the bug message of a BugFound.
	Msg string `json:"msg,omitempty"`
	// Pos is the source position of a BugFound.
	Pos string `json:"pos,omitempty"`
	// Status is the per-function outcome of an AuditFnEnd.
	Status string `json:"status,omitempty"`
	// Bugs is the bug count of an AuditFnEnd.
	Bugs int `json:"bugs,omitempty"`
	// Runs is the run count of an AuditFnEnd, and the completed-run
	// count of a CoverageStall.
	Runs int `json:"runs,omitempty"`
	// Reason is the explain bucket of an UncoveredReason event.
	Reason string `json:"reason,omitempty"`
	// Count is the dark-direction count of an UncoveredReason event.
	Count int `json:"count,omitempty"`
	// Window is the stall detector's plateau window (runs) on a
	// CoverageStall.
	Window int64 `json:"window,omitempty"`
	// Covered is the flat covered-direction count on a CoverageStall.
	Covered int `json:"covered,omitempty"`
}

// Sink receives trace events.  Implementations used from a parallel
// audit must be safe for concurrent use; the bundled sinks are.  A
// panicking sink is isolated by the engine's recover barriers (it is
// reported as an internal fault and observation is disabled), so a
// faulty observer can never take down a search.
type Sink interface {
	Event(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Event implements Sink.
func (f SinkFunc) Event(ev Event) { f(ev) }

// Tee fans every event out to each sink in order.  A nil entry is
// skipped; Tee(nil...) collapses to nil so an unobserved engine sees a
// nil sink.
func Tee(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeSink(live)
}

type teeSink []Sink

func (t teeSink) Event(ev Event) {
	for _, s := range t {
		s.Event(ev)
	}
}

// Guarded wraps sink so a panic inside Event permanently disables
// forwarding instead of unwinding into the caller.  The engine has its
// own per-search isolation (panics become InternalError diagnostics);
// Guarded is for emitters outside any search — the audit pool's
// function-lifecycle events, the CLI's progress line — where there is
// no report to attach a diagnostic to.  Guarded(nil) is nil.
func Guarded(sink Sink) Sink {
	if sink == nil {
		return nil
	}
	return &guarded{sink: sink}
}

type guarded struct {
	sink Sink
	dead atomic.Bool
}

// Event implements Sink.
func (g *guarded) Event(ev Event) {
	if g.dead.Load() {
		return
	}
	defer func() {
		if recover() != nil {
			g.dead.Store(true)
		}
	}()
	g.sink.Event(ev)
}

// WithJob wraps sink so every event passing through carries the given
// serve-layer job id, letting one shared event ring (and one metrics
// bridge) serve many concurrent jobs while keeping each job's stream
// separable.  WithJob(id, nil) is nil.
func WithJob(id string, sink Sink) Sink {
	if sink == nil {
		return nil
	}
	return SinkFunc(func(ev Event) {
		ev.Job = id
		sink.Event(ev)
	})
}

// NDJSON is a Sink writing one JSON object per line, assigning
// monotonic sequence numbers under a mutex so concurrent audit workers
// produce an interleaved but well-formed, totally ordered stream.  For
// a single-threaded search with a fixed seed the output is
// byte-identical across runs (events carry no wall-clock data and maps
// never appear in the encoding).
type NDJSON struct {
	mu  sync.Mutex
	w   io.Writer
	seq uint64
	err error
}

// NewNDJSON returns an NDJSON sink writing to w.
func NewNDJSON(w io.Writer) *NDJSON {
	return &NDJSON{w: w}
}

// Event implements Sink.
func (s *NDJSON) Event(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.seq++
	ev.Seq = s.seq
	b, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Err returns the first write or encoding error, if any.
func (s *NDJSON) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Events returns the number of events written so far.
func (s *NDJSON) Events() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Collector is a Sink accumulating events in memory, mainly for tests
// and for post-hoc analysis (tree reconstruction, multiset checks).
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Event implements Sink.
func (c *Collector) Event(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of the collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}
