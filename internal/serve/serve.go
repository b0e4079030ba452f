// Package serve turns the whole-library audit into a long-running
// service: audit-as-a-service.  POST a MiniC program (or name a
// registered library) and get a job id; a bounded queue feeds a fixed
// pool of executors, each running one job — a fault-tolerant audit of
// every function of the submitted program (package audit, PR 1) — under
// per-job panic isolation, a per-job wall-clock deadline, and a bounded
// retry-with-backoff policy that degrades a persistently faulting job
// to an honest partial report instead of failing it.
//
// The robustness contract, in order of importance:
//
//   - One poisoned job can never take down the service or its
//     neighbours: executor faults are recovered per attempt, deadlines
//     are per job, and the report always says what was and was not
//     covered (Stopped/StopReason, mirroring the per-search
//     Report.Stopped semantics of PR 1).
//   - Memory is bounded everywhere: the queue has a fixed depth (full
//     means 429 + Retry-After, never an unbounded backlog), the result
//     store and the completed-job history are capped with counted LRU
//     eviction, and job sources/IR are released the moment a job
//     finishes.
//   - Shutdown is graceful: Drain stops admission, lets in-flight and
//     queued jobs finish, and at the drain deadline checkpoints the
//     rest — cancelling their searches so they complete with honest
//     partial reports — before returning.
//
// Reports contain only deterministic fields (no wall-clock data), so a
// submission with the same (source, seed, options) always produces
// byte-identical report bytes — which is what lets the bounded
// content-addressed result store serve repeat submissions from cache,
// marked cached but provably indistinguishable from a fresh run.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dart/internal/audit"
	"dart/internal/concolic"
	"dart/internal/corpus"
	"dart/internal/iface"
	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/parser"
	"dart/internal/sema"
)

// Defaults for Config and Submission zero values.
const (
	DefaultQueueDepth   = 64
	DefaultJobTimeout   = 60 * time.Second
	DefaultDrainTimeout = 10 * time.Second
	DefaultMaxBody      = 1 << 20
	DefaultHistoryCap   = 512
	DefaultAuditRuns    = 1000
	DefaultMaxWaiters   = 256
	defaultMaxRetries   = 2
	defaultRetryBackoff = 25 * time.Millisecond
	// DefaultHeartbeat is the keep-alive interval on streaming responses
	// (GET /jobs/{id} as SSE): a comment frame every interval of idleness
	// keeps proxies and slow consumers from reaping a healthy stream.
	DefaultHeartbeat = 15 * time.Second
)

// Config configures the job service.
type Config struct {
	// QueueDepth bounds the job queue (default 64).  A full queue
	// rejects submissions with ErrQueueFull — load is shed at admission,
	// memory never grows with traffic.
	QueueDepth int
	// Executors is the audit-executor pool size (default GOMAXPROCS):
	// how many jobs run concurrently.  Each job's audit itself fans its
	// functions over max(1, GOMAXPROCS/Executors) audit workers, so the
	// service respects one total CPU budget.
	Executors int
	// JobTimeout is the per-job wall-clock deadline (default 60s;
	// negative disables).  A job that exceeds it is checkpointed: its
	// in-flight searches are cancelled and the job completes with a
	// partial report marked Stopped/StopReason "deadline".
	JobTimeout time.Duration
	// DrainTimeout bounds Drain when the caller passes none (default 10s).
	DrainTimeout time.Duration
	// MaxBody caps the POST /jobs request body (default 1 MiB); larger
	// submissions are refused with 413.
	MaxBody int64
	// StoreCap bounds the content-addressed result store in entries
	// (0 = DefaultStoreCap, negative = caching off).
	StoreCap int
	// Corpus, when non-nil, makes the service incremental across
	// restarts: finished job reports spill to the corpus's reports/
	// area (an in-memory store miss re-loads and serves byte-identical
	// bytes), and every job's audit runs with the corpus attached —
	// unchanged functions replay their distilled suites and the
	// persistent solve cache pre-answers repeated constraint systems.
	Corpus *corpus.Corpus
	// HistoryCap bounds how many completed job records are retained for
	// GET /jobs/{id} (default 512); older completed jobs are evicted in
	// completion order.
	HistoryCap int
	// MaxRuns caps the per-function run budget a submission may request
	// (0 = no cap beyond the int range).
	MaxRuns int
	// MaxRetries bounds the retry-with-backoff policy for isolated
	// executor faults (default 2; negative disables retries).
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry, doubling
	// per attempt (default 25ms).
	RetryBackoff time.Duration
	// Libraries maps registered library names to their MiniC sources, so
	// POST /jobs?lib=name audits a built-in without shipping its source.
	Libraries map[string]string
	// Sink receives the service's job-lifecycle events and every
	// per-search event of every job, each tagged with its job id.
	// Usually the ops server's Sink().  May be nil.
	Sink obs.Sink
	// MaxWaiters bounds the total number of blocking GET /jobs/{id}
	// completion waiters — long-polls and SSE streams — held open at
	// once (default 256; negative disables waiting entirely).  Beyond
	// the cap, wait requests degrade to 429 so slow readers cannot pin
	// unbounded handler goroutines.
	MaxWaiters int
	// Heartbeat is the keep-alive interval for streaming responses
	// (default DefaultHeartbeat; negative disables): an SSE comment
	// frame is emitted after every interval of idleness while a stream
	// waits on job completion.
	Heartbeat time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueDepth <= 0 {
		out.QueueDepth = DefaultQueueDepth
	}
	if out.Executors <= 0 {
		out.Executors = runtime.GOMAXPROCS(0)
	}
	if out.JobTimeout == 0 {
		out.JobTimeout = DefaultJobTimeout
	}
	if out.DrainTimeout <= 0 {
		out.DrainTimeout = DefaultDrainTimeout
	}
	if out.MaxBody <= 0 {
		out.MaxBody = DefaultMaxBody
	}
	if out.StoreCap == 0 {
		out.StoreCap = DefaultStoreCap
	}
	if out.HistoryCap <= 0 {
		out.HistoryCap = DefaultHistoryCap
	}
	if out.MaxRetries == 0 {
		out.MaxRetries = defaultMaxRetries
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = defaultRetryBackoff
	}
	if out.MaxWaiters == 0 {
		out.MaxWaiters = DefaultMaxWaiters
	}
	if out.Heartbeat == 0 {
		out.Heartbeat = DefaultHeartbeat
	}
	return out
}

// Submission is one job request.
type Submission struct {
	// Source is the MiniC program to audit; empty when Lib names a
	// registered library instead.
	Source string
	// Lib names a registered library (Config.Libraries).
	Lib string
	// Seed drives the audit (function i runs with Seed+i); default 1.
	Seed int64
	// Runs is the per-function run budget (0 = DefaultAuditRuns, the
	// paper's oSIP budget).
	Runs int
	// Depth is the calls-per-run depth parameter (0 = 1).
	Depth int
	// Random selects the pure random-testing baseline.
	Random bool
	// FnTimeout is an optional per-function deadline inside the job.
	// Reports produced under a tripped per-function deadline are partial
	// and therefore never cached.
	FnTimeout time.Duration
}

// Admission errors.
var (
	// ErrQueueFull: the bounded queue is at capacity; retry later (HTTP
	// 429 + Retry-After).
	ErrQueueFull = errors.New("job queue full")
	// ErrDraining: the service is shutting down and admits no new work
	// (HTTP 503 + Retry-After).
	ErrDraining = errors.New("service draining")
)

// BadSubmissionError wraps a submission the service refused for its
// content (unknown library, compile failure); HTTP 400.
type BadSubmissionError struct{ Reason string }

func (e *BadSubmissionError) Error() string { return e.Reason }

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states.  A job always reaches StateDone — there is no
// failed state; failure modes degrade to a done job whose report is
// partial and whose StopReason says why (DESIGN.md maps these states to
// the audit package's supervision verdicts).
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
)

// Job is one submission's record.
type Job struct {
	// ID is the service-assigned job id ("j1", "j2", ...).
	ID string

	svc  *Service
	spec Submission
	key  string // content-address of (source, seed, options)

	// compiled program, released on completion to keep memory bounded.
	prog *ir.Prog
	sem  *sema.Program

	// done is closed when the job reaches StateDone.
	done chan struct{}
	// cancel is closed (once) to checkpoint the job: deadline or drain.
	cancel    chan struct{}
	cancelled bool

	mu         sync.Mutex
	state      JobState
	cached     bool
	cacheSrc   string // where a cached report came from: "store"/"corpus-disk"
	corpusHits int    // functions this job answered from the corpus fast path
	report     []byte // deterministic report JSON, set at completion
	// profile is the job's merged search-cost profile plus its queue
	// wait, set at completion.  It lives on the job envelope only —
	// never inside the cacheable report, which must stay wall-clock
	// free (see report.go) — so cache-served jobs have none.
	profile *obs.ProfileSnapshot
	// explain is the job's resolved coverage explanation — every branch
	// direction of the submitted program accounted covered or carrying
	// exactly one "why not" reason.  Resolved at completion against the
	// job's compiled program (before its release) and served on the job
	// envelope; cache-served jobs have none.
	explain    *obs.ExplainReport
	errMsg     string
	stopReason string // "", "deadline", "drain", "internal-fault"
	retries    int
	created    time.Time
	started    time.Time
	finished   time.Time
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job completes, after its
// JobEnd event has gone to the sink and its profile to the ops server.
func (j *Job) Done() <-chan struct{} { return j.done }

// Report returns the completed report bytes (nil before StateDone) and
// whether they were served from the content-addressed store.
func (j *Job) Report() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report, j.cached
}

// StopReason returns why the job was cut short ("" = it ran to its
// natural end).
func (j *Job) StopReason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stopReason
}

// noteStop records the first checkpoint reason and cancels the job's
// in-flight searches.  Later reasons lose the race and are dropped.
func (j *Job) noteStop(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		return
	}
	j.cancelled = true
	j.stopReason = reason
	close(j.cancel)
}

// Service is the audit-as-a-service layer: bounded queue, executor
// pool, result store.
type Service struct {
	cfg   Config
	sink  obs.Sink // guarded: a panicking observer cannot hurt the service
	store *store

	mu       sync.RWMutex
	draining bool
	queue    chan *Job
	jobs     map[string]*Job
	order    []string // live job ids in admission order
	history  []string // completed job ids in completion order (eviction)
	nextID   uint64

	running   int64 // jobs currently executing (under mu)
	drainKill chan struct{}
	wg        sync.WaitGroup

	// waiters counts blocking GET /jobs/{id} completion waiters
	// (long-polls plus SSE streams) held open across all jobs, bounded
	// by cfg.MaxWaiters.
	waiters atomic.Int64

	// beforeRun, when non-nil, runs inside each attempt's recover
	// barrier just before the audit; tests use it to poison a job.
	beforeRun func(*Job)

	// profileSink, when non-nil, receives each completed job's cost
	// profile; RegisterOn points it at the ops server so GET /profile
	// aggregates across every submission, not just the last envelope.
	profileSink func(*obs.ProfileSnapshot)
}

// New starts a service: the executor pool is live on return.
func New(cfg Config) *Service {
	c := cfg.withDefaults()
	s := &Service{
		cfg:       c,
		sink:      obs.Guarded(c.Sink),
		store:     newStore(c.StoreCap, c.Corpus),
		queue:     make(chan *Job, c.QueueDepth),
		jobs:      map[string]*Job{},
		drainKill: make(chan struct{}),
	}
	for i := 0; i < c.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// emit sends a lifecycle event to the sink (nil-safe).
func (s *Service) emit(ev obs.Event) {
	if s.sink != nil {
		s.sink.Event(ev)
	}
}

// Submit admits one job: resolve the source, answer from the result
// store when the identical (source, seed, options) has already been
// audited, otherwise compile and enqueue.  The store lookup needs only
// the content key, so a hit never pays for the front end; a hit cannot
// admit a bad program either, because stored bytes come from a run of
// the identical source.  The compile still gates every job that will
// execute.  Submit never blocks: a full queue is ErrQueueFull, a
// draining service ErrDraining (hits included).
func (s *Service) Submit(sub Submission) (*Job, error) {
	src := sub.Source
	if sub.Lib != "" {
		reg, ok := s.cfg.Libraries[sub.Lib]
		if !ok {
			s.reject("bad-request")
			return nil, &BadSubmissionError{Reason: fmt.Sprintf("unknown library %q", sub.Lib)}
		}
		src = reg
	}
	if src == "" {
		s.reject("bad-request")
		return nil, &BadSubmissionError{Reason: "empty submission: provide a MiniC source body or ?lib=name"}
	}
	if sub.Seed == 0 {
		sub.Seed = 1
	}
	if sub.Runs <= 0 {
		sub.Runs = DefaultAuditRuns
	}
	if s.cfg.MaxRuns > 0 && sub.Runs > s.cfg.MaxRuns {
		s.reject("bad-request")
		return nil, &BadSubmissionError{Reason: fmt.Sprintf("runs %d exceeds the service cap %d", sub.Runs, s.cfg.MaxRuns)}
	}
	if sub.Depth <= 0 {
		sub.Depth = 1
	}
	sub.Source = src

	key := cacheKey(src, sub.Seed, sub.Runs, sub.Depth, sub.Random, sub.FnTimeout)
	cached, from := s.store.get(key)
	var prog *ir.Prog
	var sem *sema.Program
	if from == "" {
		var err error
		if prog, sem, err = compile(src); err != nil {
			s.reject("bad-request")
			return nil, &BadSubmissionError{Reason: err.Error()}
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reject("draining")
		return nil, ErrDraining
	}
	s.nextID++
	j := &Job{
		ID:      fmt.Sprintf("j%d", s.nextID),
		svc:     s,
		spec:    sub,
		key:     key,
		done:    make(chan struct{}),
		cancel:  make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}

	// Served from the store: the job is born completed, its report the
	// cached bytes — byte-identical to what a fresh run would produce.
	if from != "" {
		j.state = StateDone
		j.cached = true
		j.cacheSrc = from
		j.report = cached
		j.finished = j.created
		s.admit(j)
		s.retire(j)
		s.mu.Unlock()
		s.emit(obs.Event{Kind: obs.JobQueued, Job: j.ID, Depth: len(s.queue)})
		s.emit(obs.Event{Kind: obs.JobEnd, Job: j.ID, Status: "cached"})
		close(j.done)
		return j, nil
	}

	j.prog, j.sem = prog, sem
	select {
	case s.queue <- j:
	default:
		s.nextID-- // the id was never observable
		s.mu.Unlock()
		s.reject("queue-full")
		return nil, ErrQueueFull
	}
	s.admit(j)
	depth := len(s.queue)
	s.mu.Unlock()
	s.emit(obs.Event{Kind: obs.JobQueued, Job: j.ID, Depth: depth})
	return j, nil
}

// reject emits the one JobRejected event every refused submission owes.
func (s *Service) reject(why string) {
	s.emit(obs.Event{Kind: obs.JobRejected, Status: why})
}

// admit records a job in the live tables.  Caller holds mu.
func (s *Service) admit(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
}

// retire appends a completed job to the bounded history, evicting the
// oldest completed records (and their ids from the order list) beyond
// HistoryCap.  Caller holds mu.
func (s *Service) retire(j *Job) {
	s.history = append(s.history, j.ID)
	for len(s.history) > s.cfg.HistoryCap {
		evict := s.history[0]
		s.history = s.history[1:]
		delete(s.jobs, evict)
		for i, id := range s.order {
			if id == evict {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// Job returns the job record for id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns the live job records in admission order.
func (s *Service) Jobs() []*Job {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Ready implements the ops readiness probe: not ready while draining or
// while the queue is saturated, so load balancers stop routing before
// clients see 429s.
func (s *Service) Ready() (bool, string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return false, "draining"
	}
	if len(s.queue) >= cap(s.queue) {
		return false, "queue saturated"
	}
	return true, ""
}

// Gauges provides the service's live /metrics gauges.  The store hit
// and miss counts tally lookups, which Submit makes before it compiles
// or admits: a submission that then fails to compile counts one
// jobs_store_misses, and one refused for a full queue or a drain
// counts its lookup too.
func (s *Service) Gauges() map[string]float64 {
	s.mu.RLock()
	queueDepth := len(s.queue)
	queueCap := cap(s.queue)
	running := s.running
	draining := 0.0
	if s.draining {
		draining = 1
	}
	s.mu.RUnlock()
	hits, misses, evictions, diskHits := s.store.stats()
	return map[string]float64{
		"jobs_queue_depth":      float64(queueDepth),
		"jobs_queue_capacity":   float64(queueCap),
		"jobs_running":          float64(running),
		"jobs_draining":         draining,
		"jobs_store_entries":    float64(s.store.len()),
		"jobs_store_hits":       float64(hits),
		"jobs_store_misses":     float64(misses),
		"jobs_store_evictions":  float64(evictions),
		"jobs_store_disk_hits":  float64(diskHits),
		"jobs_history_retained": float64(len(s.history)),
	}
}

// Drain shuts the service down gracefully: stop admitting, let
// in-flight and queued jobs finish, and at the deadline checkpoint
// whatever is still running — their searches are cancelled and each job
// completes with an honest partial report (StopReason "drain").  Drain
// returns once every executor has exited; timeout 0 selects
// Config.DrainTimeout.  Draining twice is safe.
func (s *Service) Drain(timeout time.Duration) {
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.queue) // executors drain the backlog, then exit
	s.mu.Unlock()

	kill := time.AfterFunc(timeout, func() { close(s.drainKill) })
	s.wg.Wait()
	kill.Stop()
}

// executor is one worker of the fixed pool: pull, run, repeat, until
// the queue is closed and empty.
func (s *Service) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job end to end: deadline arm, retry loop around
// the isolated attempt, report finalization.  It never lets the job
// escape without a completed record — that is the service's core
// robustness promise.
func (s *Service) runJob(j *Job) {
	s.mu.Lock()
	s.running++
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.mu.Unlock()
	s.emit(obs.Event{Kind: obs.JobStart, Job: j.ID})

	// The job's checkpoint sources: its own deadline, and the service's
	// drain kill.  Whichever fires first records the reason and cancels
	// the in-flight searches; the audit then returns quickly with honest
	// per-function Cancelled statuses.
	var deadline *time.Timer
	if s.cfg.JobTimeout > 0 {
		deadline = time.AfterFunc(s.cfg.JobTimeout, func() { j.noteStop("deadline") })
	}
	finished := make(chan struct{})
	go func() {
		select {
		case <-s.drainKill:
			j.noteStop("drain")
		case <-finished:
		}
	}()

	var res *audit.Result
	var faultMsg string
	for attempt := 0; ; attempt++ {
		r, err := s.attempt(j)
		if err == nil {
			res = r
			break
		}
		faultMsg = err.Error()
		if attempt >= s.cfg.MaxRetries || j.checkpointed() {
			break
		}
		s.emit(obs.Event{Kind: obs.JobRetry, Job: j.ID, Run: attempt + 1, Msg: faultMsg})
		j.mu.Lock()
		j.retries++
		j.mu.Unlock()
		// Exponential backoff, cut short by a checkpoint: a draining
		// service must not sit out a backoff window.
		select {
		case <-time.After(s.cfg.RetryBackoff << uint(attempt)):
		case <-j.cancel:
		}
	}
	if deadline != nil {
		deadline.Stop()
	}
	close(finished)

	s.finalize(j, res, faultMsg)
}

// checkpointed reports whether the job's cancel has fired.
func (j *Job) checkpointed() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

// attempt runs the job's audit once under the executor's recover
// barrier.  The audit has its own per-function isolation (PR 1); this
// barrier is the per-job line of defense above it, so even a fault in
// the audit scaffolding itself (or in report assembly) is contained to
// this job.
func (s *Service) attempt(j *Job) (res *audit.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panic: %v", r)
		}
	}()
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	fns := iface.Candidates(j.sem)
	auditJobs := runtime.GOMAXPROCS(0) / s.cfg.Executors
	if auditJobs < 1 {
		auditJobs = 1
	}
	res = audit.Run(j.prog, audit.Options{
		Toplevels: fns,
		Seed:      j.spec.Seed,
		MaxRuns:   j.spec.Runs,
		Depth:     j.spec.Depth,
		UseRandom: j.spec.Random,
		Timeout:   j.spec.FnTimeout,
		Jobs:      auditJobs,
		Workers:   1,
		Cancel:    j.cancel,
		Observer:  obs.WithJob(j.ID, s.sink),
		// Every job gets a cost profile: it rides the job envelope
		// (wall-clock is fine there), and audits are long enough that
		// the profiler's per-run clock reads are noise.
		CollectProfile: true,
		// And a coverage explanation: the resolved "why not covered"
		// ledger is deterministic data, but it rides the envelope (not
		// the cacheable report) because it is a derived view, not the
		// report's identity.
		CollectExplain: true,
		// The incremental corpus, when configured: unchanged functions
		// replay their distilled suites instead of re-searching, and
		// repeated constraint systems hit the persistent solve cache.
		// The result is byte-identical either way (tryWarm's gates),
		// so the report stays cacheable; hit counts ride the envelope.
		Corpus: s.cfg.Corpus,
	})
	return res, nil
}

// finalize turns the attempt outcome into the job's completed record:
// build the deterministic report, cache it when cacheable, release the
// job's compiled program, retire the record into the bounded history,
// announce the end, and only then close Done.
func (s *Service) finalize(j *Job, res *audit.Result, faultMsg string) {
	j.mu.Lock()
	stopReason := j.stopReason
	j.mu.Unlock()

	rep := buildReport(res, stopReason, faultMsg)
	bytes := rep.marshal()

	status := "done"
	switch {
	case rep.StopReason != "":
		status = rep.StopReason
	case rep.Buggy > 0:
		status = "bugs"
	}
	if cacheable(rep) {
		s.store.put(j.key, bytes)
	}

	// The job's cost profile: the audit's merged per-search profile
	// plus a synthesized job_queue_wait phase (admission → executor
	// pickup) — envelope-only data, never part of the cacheable report.
	profile := &obs.ProfileSnapshot{}
	if res != nil && res.Profile != nil {
		profile.Merge(res.Profile)
	}
	j.mu.Lock()
	queueWait := j.started.Sub(j.created)
	j.mu.Unlock()
	profile.Merge(&obs.ProfileSnapshot{Phases: []obs.PhaseProfile{
		{Phase: obs.SpanJobQueueWait, Count: 1, Nanos: queueWait.Nanoseconds()},
	}})

	// The job's coverage explanation, resolved while the compiled
	// program (the site universe) is still alive — the release below is
	// exactly why this cannot be deferred to request time.
	var explain *obs.ExplainReport
	if res != nil && res.Explain != nil && j.prog != nil {
		explain = concolic.ResolveExplain(j.prog, res.Explain, res.Coverage)
	}

	s.mu.Lock()
	s.running--
	j.mu.Lock()
	j.state = StateDone
	j.report = bytes
	if res != nil {
		j.corpusHits = res.CorpusHits
	}
	j.errMsg = faultMsg
	j.profile = profile
	j.explain = explain
	j.finished = time.Now()
	j.prog, j.sem = nil, nil // release: memory stays bounded
	j.mu.Unlock()
	s.retire(j)
	s.mu.Unlock()

	if s.profileSink != nil {
		s.profileSink(profile)
	}

	ev := obs.Event{Kind: obs.JobEnd, Job: j.ID, Status: status, Runs: rep.TotalRuns}
	ev.Bugs = 0
	for i := range rep.Entries {
		ev.Bugs += len(rep.Entries[i].Bugs)
	}
	s.emit(ev)
	close(j.done)
}

// acquireWaiter reserves one slot of the bounded completion-waiter
// pool (long-poll and SSE handlers).  It returns false — the caller
// must degrade to an immediate response — when the pool is exhausted
// or waiting is disabled.
func (s *Service) acquireWaiter() bool {
	if s.cfg.MaxWaiters < 0 {
		return false
	}
	if s.waiters.Add(1) > int64(s.cfg.MaxWaiters) {
		s.waiters.Add(-1)
		return false
	}
	return true
}

// releaseWaiter returns a slot taken by acquireWaiter.
func (s *Service) releaseWaiter() { s.waiters.Add(-1) }

// Profile returns the job's completed cost profile (nil while running
// and for cache-served jobs).
func (j *Job) Profile() *obs.ProfileSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.profile
}

// Explain returns the job's resolved coverage explanation (nil while
// running and for cache-served jobs).
func (j *Job) Explain() *obs.ExplainReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.explain
}

// cacheable reports whether rep may be served to future identical
// submissions.  Only full, fault-free runs qualify: a report shaped by
// a deadline, a drain, or an internal fault is honest but not
// deterministic, so caching it would break the byte-identity guarantee.
func cacheable(rep *JobReport) bool {
	return rep.StopReason == "" && rep.TimedOut == 0 && rep.Cancelled == 0 && rep.Faulted == 0
}

// compile mirrors dart.Compile for the service (the root package sits
// above this one): parse, type-check against the standard library
// signatures, lower, optimize.
func compile(src string) (*ir.Prog, *sema.Program, error) {
	file, err := parser.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	sem, err := sema.Check(file, machine.StdLibSigs())
	if err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}
	prog, err := ir.Compile(sem)
	if err != nil {
		return nil, nil, fmt.Errorf("compile: %w", err)
	}
	ir.Optimize(prog)
	return prog, sem, nil
}
