// Command dart tests a MiniC program with directed automated random
// testing, exactly as the paper's tool does for C: point it at a source
// file and a toplevel function, and it automatically extracts the
// interface, generates the random test driver, and runs the directed
// search.
//
// Usage:
//
//	dart [flags] program.mc
//
//	-top name      toplevel function under test (required unless -list/-audit)
//	-depth n       calls to the toplevel function per run (default 1)
//	-runs n        maximum number of executions (default 10000)
//	-seed n        random seed (default 1)
//	-strategy s    branch selection: dfs, bfs, random (default dfs)
//	-random        pure random testing instead of the directed search
//	-all-bugs      keep searching after the first bug
//	-hangs         report step-budget exhaustion (non-termination)
//	-timeout d     wall-clock budget (whole search, or per function with -audit)
//	-audit         audit every function of the program as toplevel in turn
//	-corpus dir    incremental re-audit corpus: with -audit, functions
//	               whose IR content hash is unchanged replay their
//	               distilled suite (and bug fixtures) instead of
//	               re-searching, and solver results persist on disk
//	               under the in-memory cache; with the job server,
//	               cached reports survive restarts.  Corrupt corpus
//	               files degrade to a full re-search, never a wrong
//	               verdict
//	-jobs n        audit worker-pool size (default all CPUs / -workers)
//	-workers n     parallel flip-workers per directed search (default 1);
//	               with -audit, -jobs defaults to CPUs/workers so
//	               -jobs × -workers respects one total CPU budget
//	-trace file    write an NDJSON trace of search events to file
//	-metrics       print the search metrics registry after the run
//	-explain       explain coverage: account every branch direction as
//	               covered or exactly one "why not" reason (solver-unsat,
//	               never-reached, fallbacks, ...) and print the table
//	               after the run; with -json the resolved explanation and
//	               the search timeline ride the report
//	-stall-window n  coverage-stall detector window in runs (0 = default
//	               256, negative disables); needs -explain
//	-progress      live progress line on stderr while -audit runs
//	-serve addr    serve live ops endpoints (/metrics /status /events
//	               /coverage /healthz /readyz /debug/pprof) on addr during
//	               the run; with NO program file, run the persistent
//	               audit-as-a-service job server instead: POST /jobs
//	               accepts MiniC sources (or ?lib=minisip), a bounded
//	               queue feeds the executor pool, SIGTERM drains
//	-queue-depth n   job-service queue bound (default 64; full = 429)
//	-executors n     job-service executor pool (default all CPUs)
//	-job-timeout d   per-job wall-clock deadline (default 60s)
//	-max-body n      POST /jobs body cap in bytes (default 1 MiB; 413 past it)
//	-drain-timeout d shutdown drain deadline (default 10s)
//	-covreport f   write an annotated source coverage report (.html = HTML)
//	-tree file     dump the explored execution tree (.dot = Graphviz, else JSON)
//	-list          list the functions that can serve as toplevel
//	-iface         print the extracted interface and exit
//	-dump-ir       print the compiled RAM-machine code and exit
//	-json          emit the report as JSON
//
// Exit status: 0 when no bugs were found, 1 on bugs (or, with -audit,
// internal faults), 2 on usage or compile errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dart"
	"dart/internal/ir"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		top      = flag.String("top", "", "toplevel function under test")
		depth    = flag.Int("depth", 1, "calls to the toplevel function per run")
		runs     = flag.Int("runs", 10000, "maximum number of executions")
		seed     = flag.Int64("seed", 1, "random seed")
		strategy = flag.String("strategy", "dfs", "branch selection: dfs, bfs, random")
		random   = flag.Bool("random", false, "pure random testing (baseline)")
		allBugs  = flag.Bool("all-bugs", false, "keep searching after the first bug")
		hangs    = flag.Bool("hangs", false, "report potential non-termination")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget (whole search, or per function with -audit)")
		cacheF   = flag.Int("solve-cache", dart.DefaultSolveCacheCap, "per-search solve-cache capacity (0 disables the solver fast-path cache)")
		corpusF  = flag.String("corpus", "", "incremental re-audit corpus `dir`: unchanged functions replay their distilled suites instead of re-searching, solver results persist across processes, and the job server's cached reports survive restarts")
		auditF   = flag.Bool("audit", false, "audit every function of the program as toplevel in turn")
		jobs     = flag.Int("jobs", 0, "audit worker-pool size (default all CPUs / -workers)")
		workersF = flag.Int("workers", 1, "parallel flip-workers per directed search")
		traceF   = flag.String("trace", "", "write an NDJSON trace of search events to `file`")
		metricsF = flag.Bool("metrics", false, "print the search metrics registry after the run")
		explainF = flag.Bool("explain", false, "explain coverage: per-site \"why not covered\" ledger and search timeline, printed after the run (attached to -json output)")
		stallF   = flag.Int64("stall-window", 0, "coverage-stall detector window in `runs` (0 = default, negative disables); needs -explain")
		profileF = flag.Bool("profile", false, "collect a search cost profile (per-phase wall breakdown, per-site solver time/work) and print it after the run")
		progress = flag.Bool("progress", false, "live progress line on stderr while -audit runs")
		serveF   = flag.String("serve", "", "serve live ops HTTP endpoints on `addr` during the run (e.g. 127.0.0.1:8080, :0 picks a port); with no program file, run the persistent job server")
		queueF   = flag.Int("queue-depth", dart.DefaultJobQueueDepth, "job-service queue bound (full = HTTP 429)")
		execF    = flag.Int("executors", 0, "job-service executor pool size (default all CPUs)")
		jobTmoF  = flag.Duration("job-timeout", dart.DefaultJobTimeout, "per-job wall-clock deadline (0 disables)")
		maxBodyF = flag.Int64("max-body", dart.DefaultJobMaxBody, "POST /jobs body cap in `bytes` (HTTP 413 past it)")
		drainF   = flag.Duration("drain-timeout", dart.DefaultDrainTimeout, "shutdown drain deadline before in-flight jobs are cancelled")
		covrepF  = flag.String("covreport", "", "write an annotated source coverage report to `file` (.html = HTML, else text)")
		treeF    = flag.String("tree", "", "dump the explored execution tree to `file` (.dot = Graphviz, else JSON)")
		list     = flag.Bool("list", false, "list candidate toplevel functions")
		ifaceF   = flag.Bool("iface", false, "print the extracted interface")
		dumpIR   = flag.Bool("dump-ir", false, "print compiled RAM-machine code")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		interpF  = flag.Bool("interp", false, "execute on the reference interpreter instead of the compiled engine")
		xcheckF  = flag.Bool("xcheck", false, "differential gate: run the search under both engines and fail on any report divergence (disables the solve cache)")
	)
	flag.Parse()

	// -serve with no program file is service mode: a persistent
	// audit-as-a-service job server instead of a one-shot search.
	if *serveF != "" && flag.NArg() == 0 {
		return runJobService(serviceConfig{
			addr:         *serveF,
			queueDepth:   *queueF,
			executors:    *execF,
			jobTimeout:   *jobTmoF,
			maxBody:      *maxBodyF,
			drainTimeout: *drainF,
			corpusDir:    *corpusF,
		})
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dart [flags] program.mc   (or: dart -serve addr  with no file for the job server)")
		flag.PrintDefaults()
		return 2
	}
	if *treeF != "" && *auditF {
		fmt.Fprintln(os.Stderr, "dart: -tree needs a single search; it cannot be combined with -audit")
		return 2
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dart:", err)
		return 2
	}
	prog, err := dart.Compile(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dart:", err)
		return 2
	}

	if *list {
		for _, fn := range dart.Functions(prog) {
			fmt.Println(fn)
		}
		return 0
	}
	if *dumpIR {
		fmt.Print(ir.DisasmProg(prog.IR))
		return 0
	}

	// The trace sink is shared by both modes: one NDJSON stream, whether
	// it carries a single search or a whole interleaved audit.
	var trace *traceWriter
	if *traceF != "" {
		trace, err = newTraceWriter(*traceF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dart:", err)
			return 2
		}
	}

	if *xcheckF && (*auditF || *random) {
		fmt.Fprintln(os.Stderr, "dart: -xcheck applies to a single directed search (drop -audit/-random)")
		return 2
	}

	// The incremental corpus, shared by every mode that can use it.
	var corp *dart.Corpus
	if *corpusF != "" {
		corp, err = dart.OpenCorpus(*corpusF)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dart:", err)
			return 2
		}
	}

	if *auditF {
		srv, ok := startOps(*serveF, "audit", string(src), prog, dart.Functions(prog))
		if !ok {
			return 2
		}
		code := runAudit(prog, auditConfig{
			seed:        *seed,
			maxRuns:     *runs,
			timeout:     *timeout,
			jobs:        *jobs,
			workers:     *workersF,
			cacheCap:    solveCacheCap(*cacheF),
			random:      *random,
			json:        *jsonOut,
			metrics:     *metricsF,
			explain:     *explainF,
			stallWindow: *stallF,
			profile:     *profileF,
			progress:    *progress,
			interp:      *interpF,
			trace:       trace,
			serve:       srv,
			covreport:   *covrepF,
			source:      string(src),
			corpus:      corp,
		})
		if srv != nil {
			srv.Done()
			srv.Close()
		}
		warnTrace(trace)
		return code
	}
	if *top == "" {
		fmt.Fprintln(os.Stderr, "dart: -top is required (use -list to see candidates)")
		return 2
	}
	if *ifaceF {
		in, err := dart.ExtractInterface(prog, *top)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dart:", err)
			return 2
		}
		fmt.Print(in.String())
		return 0
	}

	var strat dart.Strategy
	switch *strategy {
	case "dfs":
		strat = dart.DFS
	case "bfs":
		strat = dart.BFS
	case "random":
		strat = dart.RandomBranch
	default:
		fmt.Fprintf(os.Stderr, "dart: unknown strategy %q\n", *strategy)
		return 2
	}

	mode := "directed"
	if *random {
		mode = "random"
	}
	srv, ok := startOps(*serveF, mode, string(src), prog, []string{*top})
	if !ok {
		return 2
	}

	var tree *dart.PathTree
	if *treeF != "" {
		tree = dart.NewPathTree(0)
	}
	var observer dart.TraceSink
	if trace != nil || tree != nil || srv != nil {
		var sinks []dart.TraceSink
		if trace != nil {
			sinks = append(sinks, trace.sink)
		}
		if tree != nil {
			sinks = append(sinks, tree)
		}
		if srv != nil {
			sinks = append(sinks, srv.Sink())
		}
		observer = dart.TeeSinks(sinks...)
	}

	opts := dart.Options{
		Toplevel:        *top,
		Depth:           *depth,
		MaxRuns:         *runs,
		Seed:            *seed,
		Strategy:        strat,
		StopAtFirstBug:  !*allBugs,
		ReportStepLimit: *hangs,
		Timeout:         *timeout,
		SolveCacheCap:   solveCacheCap(*cacheF),
		Workers:         *workersF,
		Observer:        observer,
		CollectMetrics:  true,
		CollectProfile:  *profileF,
		// A live ops server explains regardless of -explain, so /explain
		// answers during any served search.
		CollectExplain: *explainF || srv != nil,
		StallWindow:    *stallF,
		Interpreter:    *interpF,
	}
	if *xcheckF {
		// No persistent cache here: the second engine would see disk
		// hits the first one seeded, skewing the compared counters.
		return runXcheck(prog, opts)
	}
	if corp != nil {
		// A single search gets the persistent solve cache (repeated
		// constraint systems answered from disk); the distilled-suite
		// fast path is audit-only.
		opts.Persistent = corp
	}
	var rep *dart.Report
	if *random {
		rep, err = dart.RandomTest(prog, opts)
	} else {
		rep, err = dart.Run(prog, opts)
	}
	if corp != nil {
		if ferr := corp.FlushSolves(); ferr != nil {
			fmt.Fprintln(os.Stderr, "dart: warning:", ferr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dart:", err)
		return 2
	}
	if srv != nil {
		srv.ReportCoverage(rep.Coverage)
		srv.ReportProfile(rep.Profile)
		srv.ReportExplain(rep.Explain)
		srv.Done()
		defer srv.Close()
	}
	warnTrace(trace)
	if tree != nil {
		if err := writeTree(tree, *treeF); err != nil {
			fmt.Fprintln(os.Stderr, "dart:", err)
			return 2
		}
	}
	if *covrepF != "" {
		if err := writeCovReport(*covrepF, string(src), prog, rep.Coverage); err != nil {
			fmt.Fprintln(os.Stderr, "dart:", err)
			return 2
		}
	}

	// The resolved coverage explanation: pure ledger over the program's
	// whole site universe, byte-identical across worker counts — what
	// -explain prints and what the "explain" key of -json carries.
	var explain *dart.ExplainReport
	if rep.Explain != nil {
		explain = dart.ResolveExplain(prog, rep.Explain, rep.Coverage)
	}

	if *jsonOut {
		return emitJSON(rep, *random, explain)
	}
	if rep.Workers > 1 {
		mode = fmt.Sprintf("%s (%d workers)", mode, rep.Workers)
	}
	fmt.Printf("%s search: %d runs, %d instructions in %s (%s steps/s), branch coverage %d/%d (%.1f%%)\n",
		mode, rep.Runs, rep.Steps, fmtElapsed(rep.Elapsed), fmtRate(stepsPerSecond(rep)),
		rep.Coverage.Covered(), rep.Coverage.Total(), 100*rep.Coverage.Fraction())
	if rep.Complete {
		fmt.Println("all feasible execution paths explored; no errors are reachable")
	} else if !*random {
		fmt.Printf("search incomplete (all_linear=%v all_locs_definite=%v restarts=%d mispredicts=%d)\n",
			rep.AllLinear, rep.AllLocsDefinite, rep.Restarts, rep.Mispredicts)
	}
	if rep.Stopped == dart.StopDeadline || rep.Stopped == dart.StopCancelled {
		fmt.Printf("search stopped early: %s (partial report)\n", rep.Stopped)
	}
	if *metricsF && rep.Metrics != nil {
		fmt.Print(rep.Metrics.Table())
	}
	if *profileF && rep.Profile != nil {
		fmt.Print(rep.Profile.Table(profileTopSites))
	}
	if *explainF && explain != nil {
		fmt.Print(explain.Table(explainTopRows))
	}
	for _, ie := range rep.InternalErrors {
		fmt.Printf("INTERNAL %v\n", ie)
	}
	for _, b := range rep.Bugs {
		fmt.Printf("BUG %v\n", b)
		fmt.Printf("    inputs: %v\n", b.Inputs)
	}
	if len(rep.Bugs) > 0 {
		return 1
	}
	return 0
}

// runXcheck is the CLI face of the differential gate: the same
// directed search is run twice — once on the compiled closure-threaded
// engine, once on the reference interpreter — and the deterministic
// report signature planes (bugs, coverage, completeness flags, explain
// ledger, per-site solver counters; exact run/step/solver tallies at
// one worker) must match byte for byte.  The solve cache is disabled
// because its per-site hit/miss counters are engine-independent only
// without the cross-run fast path.
func runXcheck(prog *dart.Program, opts dart.Options) int {
	opts.Observer = nil
	opts.CollectProfile = true
	opts.CollectExplain = true
	opts.SolveCacheCap = -1
	var sigs [2]string
	for i, interp := range []bool{false, true} {
		opts.Interpreter = interp
		rep, err := dart.Run(prog, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dart:", err)
			return 2
		}
		sigs[i] = rep.EngineSignature(prog.IR)
	}
	if sigs[0] != sigs[1] {
		fmt.Println("xcheck: ENGINES DIVERGED")
		fmt.Println("--- compiled engine")
		fmt.Print(sigs[0])
		fmt.Println("--- reference interpreter")
		fmt.Print(sigs[1])
		return 1
	}
	fmt.Println("xcheck: compiled engine and reference interpreter agree")
	fmt.Print(sigs[0])
	return 0
}

// ----------------------------------------------------------- job service

// serviceConfig carries the flag values relevant to service mode.
type serviceConfig struct {
	addr         string
	queueDepth   int
	executors    int
	jobTimeout   time.Duration
	maxBody      int64
	drainTimeout time.Duration
	corpusDir    string
}

// runJobService runs `dart -serve addr` with no program file: the
// persistent audit-as-a-service job server.  It binds the ops HTTP
// surface with the job endpoints mounted, then blocks until SIGTERM or
// SIGINT, drains the queue within the drain deadline, and exits 0 — a
// graceful shutdown is a success, not an error.  Bind and configuration
// failures exit 2 like every other usage error.
func runJobService(cfg serviceConfig) int {
	if cfg.queueDepth < 1 {
		fmt.Fprintln(os.Stderr, "dart: -queue-depth must be at least 1")
		return 2
	}
	if cfg.maxBody < 1 {
		fmt.Fprintln(os.Stderr, "dart: -max-body must be at least 1")
		return 2
	}

	var corp *dart.Corpus
	if cfg.corpusDir != "" {
		var err error
		corp, err = dart.OpenCorpus(cfg.corpusDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dart:", err)
			return 2
		}
	}

	srv := dart.NewOpsServer(dart.OpsConfig{Addr: cfg.addr, Mode: "serve"})
	jobTimeout := cfg.jobTimeout
	if jobTimeout == 0 {
		jobTimeout = -1 // flag 0 = no deadline; the library's 0 = default
	}
	svc := dart.NewJobService(dart.JobsConfig{
		QueueDepth:   cfg.queueDepth,
		Executors:    cfg.executors,
		JobTimeout:   jobTimeout,
		DrainTimeout: cfg.drainTimeout,
		MaxBody:      cfg.maxBody,
		Libraries:    dart.BuiltinLibraries(),
		Sink:         srv.Sink(),
		Corpus:       corp,
	})
	svc.RegisterOn(srv)
	// The handler goes in before the server can be reached or announced:
	// a SIGTERM sent on reading the announcement must drain, not take
	// Go's default action and kill the process.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if err := srv.Listen(); err != nil {
		svc.Drain(0)
		fmt.Fprintln(os.Stderr, "dart:", err)
		return 2
	}
	// Same machine-parseable announcement as the ride-along ops mode, so
	// scripts can scrape the bound port when -serve :0 is used.
	fmt.Fprintf(os.Stderr, "dart: serving ops on http://%s\n", srv.Addr())

	got := <-sig
	fmt.Fprintf(os.Stderr, "dart: %s: draining job queue (deadline %s)\n", got, cfg.drainTimeout)
	svc.Drain(cfg.drainTimeout)
	srv.Done()
	srv.Close()
	fmt.Fprintln(os.Stderr, "dart: drained; exiting")
	return 0
}

// ------------------------------------------------------------- trace file

// traceWriter pairs an NDJSON sink with the file it writes to.
type traceWriter struct {
	f    *os.File
	sink *dart.NDJSONSink
}

func newTraceWriter(path string) (*traceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &traceWriter{f: f, sink: dart.NewNDJSONSink(f)}, nil
}

// closeTrace flushes and closes the trace file, surfacing the first
// write or encoding error.  closeTrace(nil) is a no-op.
func closeTrace(t *traceWriter) error {
	if t == nil {
		return nil
	}
	if err := t.sink.Err(); err != nil {
		t.f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := t.f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// warnTrace downgrades a trace-file failure to a stderr warning: the
// search finished and its report stands; losing the ride-along trace
// must not change the exit code, but it must not be silent either.
func warnTrace(t *traceWriter) {
	if err := closeTrace(t); err != nil {
		fmt.Fprintln(os.Stderr, "dart: warning:", err)
	}
}

// ------------------------------------------------------------- live ops

// startOps starts the live operations server when -serve is set and
// announces the bound address on stderr (machine-parseable, so :0 is
// usable from scripts).
func startOps(addr, mode, src string, prog *dart.Program, fns []string) (*dart.OpsServer, bool) {
	if addr == "" {
		return nil, true
	}
	srv, err := dart.ServeOps(dart.OpsConfig{
		Addr:      addr,
		Mode:      mode,
		Source:    src,
		Sites:     dart.BranchSites(prog),
		NumSites:  prog.IR.NumSites,
		Functions: fns,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dart:", err)
		return nil, false
	}
	fmt.Fprintf(os.Stderr, "dart: serving ops on http://%s\n", srv.Addr())
	return srv, true
}

// writeCovReport renders the annotated source coverage report to path
// (.html = standalone HTML page, anything else = terminal text).
func writeCovReport(path, src string, prog *dart.Program, set *dart.CoverageSet) error {
	rep := dart.AnnotateCoverage(src, dart.BranchSites(prog), set)
	var out []byte
	if strings.HasSuffix(path, ".html") {
		out = rep.HTML()
	} else {
		out = []byte(rep.Text())
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("covreport: %w", err)
	}
	return nil
}

// writeTree renders the explored execution tree: Graphviz DOT when the
// file name ends in .dot, JSON otherwise.
func writeTree(tree *dart.PathTree, path string) error {
	var out []byte
	if strings.HasSuffix(path, ".dot") {
		out = []byte(tree.DOT())
	} else {
		b, err := tree.JSON()
		if err != nil {
			return fmt.Errorf("tree: %w", err)
		}
		out = b
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	return nil
}

// ------------------------------------------------------------ human bits

// fmtElapsed rounds a duration for the human summary.
func fmtElapsed(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.String()
}

// stepsPerSecond is the whole-search execution rate; zero when the
// elapsed time is too small to divide by meaningfully.
func stepsPerSecond(rep *dart.Report) float64 {
	if rep.Elapsed <= 0 {
		return 0
	}
	return float64(rep.Steps) / rep.Elapsed.Seconds()
}

// fmtRate renders an events-per-second figure compactly.
func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}

// -------------------------------------------------------------- progress

// progressSink renders a live one-line audit progress display on w,
// redrawn in place with carriage returns.  It is an obs sink fed by the
// same event stream as every other observer, so it needs no hooks of
// its own into the audit pool; being write-only and mutex-guarded it is
// safe under any -jobs value.
type progressSink struct {
	mu         sync.Mutex
	w          io.Writer
	total      int
	done       int
	bugs       int
	restarts   int
	solverFail int
	last       time.Time
	width      int
}

func newProgressSink(w io.Writer, total int) *progressSink {
	return &progressSink{w: w, total: total}
}

// Event implements dart.TraceSink.
func (p *progressSink) Event(ev dart.TraceEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fnEdge := false
	switch ev.Kind {
	case dart.EvAuditFnStart:
		fnEdge = true
	case dart.EvAuditFnEnd:
		p.done++
		fnEdge = true
	case dart.EvBugFound:
		p.bugs++
	case dart.EvRestart:
		p.restarts++
	case dart.EvSolverVerdict:
		if ev.Verdict != "sat" {
			p.solverFail++
		}
	}
	// Function boundaries always redraw; the high-frequency per-run
	// events are throttled so the terminal is not flooded.
	now := time.Now()
	if !fnEdge && now.Sub(p.last) < 100*time.Millisecond {
		return
	}
	p.last = now
	p.redraw()
}

// finish draws the final state and moves off the progress line.
func (p *progressSink) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.redraw()
	fmt.Fprintln(p.w)
}

func (p *progressSink) redraw() {
	line := fmt.Sprintf("audit: %d/%d functions, %d bugs, %d restarts, %d solver failures",
		p.done, p.total, p.bugs, p.restarts, p.solverFail)
	if pad := p.width - len(line); pad > 0 {
		line += strings.Repeat(" ", pad)
	}
	p.width = len(line)
	fmt.Fprint(p.w, "\r"+line)
}

// ----------------------------------------------------------------- audit

// solveCacheCap maps the -solve-cache flag onto Options.SolveCacheCap:
// the flag's 0 means "off" (the library encodes that as negative, with 0
// reserved for "default capacity").
func solveCacheCap(flagVal int) int {
	if flagVal <= 0 {
		return -1
	}
	return flagVal
}

// profileTopSites is how many branch sites the -profile table ranks.
const profileTopSites = 10

// explainTopRows is how many uncovered directions the -explain table
// lists before eliding the rest (the bucket summary always covers 100%).
const explainTopRows = 25

// auditConfig carries the flag values relevant to -audit mode.
type auditConfig struct {
	seed        int64
	maxRuns     int
	timeout     time.Duration
	jobs        int
	workers     int
	cacheCap    int
	random      bool
	json        bool
	metrics     bool
	explain     bool
	stallWindow int64
	profile     bool
	progress    bool
	interp      bool
	trace       *traceWriter
	serve       *dart.OpsServer
	covreport   string
	source      string
	corpus      *dart.Corpus
}

// runAudit tests every function of the program as toplevel in turn over
// a worker pool, each function under its own deadline and recover
// barrier, and prints one status line (or JSON entry) per function plus
// a batch summary.
func runAudit(prog *dart.Program, cfg auditConfig) int {
	fns := dart.Functions(prog)
	var pr *progressSink
	var sinks []dart.TraceSink
	if cfg.trace != nil {
		sinks = append(sinks, cfg.trace.sink)
	}
	if cfg.progress {
		pr = newProgressSink(os.Stderr, len(fns))
		sinks = append(sinks, pr)
	}
	opts := dart.AuditOptions{
		Toplevels:     fns,
		Seed:          cfg.seed,
		MaxRuns:       cfg.maxRuns,
		Timeout:       cfg.timeout,
		Jobs:          cfg.jobs,
		Workers:       cfg.workers,
		SolveCacheCap: cfg.cacheCap,
		UseRandom:     cfg.random,
		Interpreter:   cfg.interp,
		// A live ops server profiles regardless of -profile: /profile
		// should answer during any served audit, and audits are long
		// enough that the profiler's clock reads are noise.
		CollectProfile: cfg.profile || cfg.serve != nil,
		// Likewise /explain answers during any served audit.
		CollectExplain: cfg.explain || cfg.serve != nil,
		StallWindow:    cfg.stallWindow,
		Corpus:         cfg.corpus,
	}
	if srv := cfg.serve; srv != nil {
		sinks = append(sinks, srv.Sink())
		// Fold each function's coverage, cost profile, and explainer
		// ledger into /coverage, /profile, and /explain as it lands,
		// and tag workers so /debug/pprof attributes CPU per function.
		opts.OnEntry = func(e dart.AuditEntry) {
			if e.Report != nil {
				srv.ReportCoverage(e.Report.Coverage)
				srv.ReportProfile(e.Report.Profile)
				srv.ReportExplain(e.Report.Explain)
			}
		}
		opts.ProfileLabels = true
	}
	opts.Observer = dart.TeeSinks(sinks...)
	res := dart.Audit(prog, opts)
	if pr != nil {
		pr.finish()
	}
	// Corpus degradation notes (corrupt files, flush failures) are
	// warnings: the audit's verdicts stand either way.  The human
	// summary's solve count reads the solve log if no search did, so it
	// is taken first and the notes that read leaves are warned with the
	// rest (-json prints no count and never reads the log for one).
	notes, solves := res.CorpusNotes, 0
	if cfg.corpus != nil && !cfg.json {
		solves = cfg.corpus.SolveCount()
		notes = append(notes, cfg.corpus.Notes()...)
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "dart: warning:", n)
	}
	if cfg.covreport != "" {
		if err := writeCovReport(cfg.covreport, cfg.source, prog, res.Coverage); err != nil {
			fmt.Fprintln(os.Stderr, "dart:", err)
			return 2
		}
	}
	// The whole-library coverage explanation: merged ledger resolved
	// against merged coverage over the program's full site universe.
	var explain *dart.ExplainReport
	if res.Explain != nil {
		explain = dart.ResolveExplain(prog, res.Explain, res.Coverage)
	}
	if cfg.json {
		return emitAuditJSON(res, explain)
	}
	for _, e := range res.Entries {
		if e.Report == nil {
			fmt.Printf("%-24s %-14s %s\n", e.Function, e.Status, e.Err)
			continue
		}
		extra := ""
		if len(e.Report.Bugs) > 0 {
			extra = fmt.Sprintf("  bugs=%d first_run=%d", len(e.Report.Bugs), e.Report.Bugs[0].Run)
		}
		if e.Retried {
			extra += "  retried"
		}
		if e.CachedByCorpus {
			extra += "  cached"
		}
		fmt.Printf("%-24s %-14s runs=%-6d time=%-10s%s\n",
			e.Function, e.Status, e.Report.Runs, fmtElapsed(e.Elapsed), extra)
	}
	fmt.Printf("audit: %d functions, %d runs: %d ok, %d with bugs, %d timed out, %d faulted, %d cancelled\n",
		res.Functions(), res.TotalRuns, res.OK, res.Buggy, res.TimedOut, res.Faulted, res.Cancelled)
	if cfg.corpus != nil {
		fmt.Printf("audit: corpus: %d functions replayed from corpus, %d entries stored, %d solves persisted\n",
			res.CorpusHits, res.CorpusStores, solves)
	}
	fmt.Printf("audit: aggregate branch coverage %d/%d directions (%.1f%%), %d/%d sites touched\n",
		res.Coverage.Covered(), res.Coverage.Total(), 100*res.Coverage.Fraction(),
		res.Coverage.SitesTouched(), res.Coverage.Sites())
	if cfg.metrics && res.Metrics != nil {
		fmt.Print(res.Metrics.Table())
	}
	if cfg.profile && res.Profile != nil {
		fmt.Print(res.Profile.Table(profileTopSites))
	}
	if cfg.explain && explain != nil {
		fmt.Print(explain.Table(explainTopRows))
	}
	if res.Buggy > 0 || res.Faulted > 0 {
		return 1
	}
	return 0
}

// jsonAudit is the machine-readable audit batch shape.
type jsonAudit struct {
	Mode      string `json:"mode"`
	Functions int    `json:"functions"`
	TotalRuns int    `json:"total_runs"`
	OK        int    `json:"ok"`
	Buggy     int    `json:"buggy"`
	TimedOut  int    `json:"timed_out"`
	Faulted   int    `json:"faulted"`
	Cancelled int    `json:"cancelled"`
	// Incremental re-audit provenance (only with -corpus): how many
	// functions were answered by distilled-suite replay and how many
	// fresh entries this batch stored.
	CorpusHits   int `json:"corpus_hits,omitempty"`
	CorpusStores int `json:"corpus_stores,omitempty"`
	// Aggregate branch coverage over the whole library (union of every
	// per-function search; sites are program-global).
	CoverageCovered        int                   `json:"branch_directions_covered"`
	CoverageTotal          int                   `json:"branch_directions_total"`
	BranchCoverageFraction float64               `json:"branch_coverage_fraction"`
	Metrics                *dart.MetricsSnapshot `json:"metrics,omitempty"`
	Profile                *dart.ProfileSnapshot `json:"profile,omitempty"`
	// Explain is the whole-library coverage explanation: merged
	// per-function ledgers resolved against the merged coverage (pure
	// ledger, no timeline).
	Explain *dart.ExplainReport `json:"explain,omitempty"`
	Entries []jsonAuditEntry    `json:"entries"`
}

type jsonAuditEntry struct {
	Function       string    `json:"function"`
	Status         string    `json:"status"`
	Runs           int       `json:"runs"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	Retried        bool      `json:"retried,omitempty"`
	CachedByCorpus bool      `json:"cached_by_corpus,omitempty"`
	Err            string    `json:"error,omitempty"`
	Bugs           []jsonBug `json:"bugs"`
}

func emitAuditJSON(res *dart.AuditResult, explain *dart.ExplainReport) int {
	out := jsonAudit{
		Mode:                   "audit",
		Functions:              res.Functions(),
		TotalRuns:              res.TotalRuns,
		OK:                     res.OK,
		Buggy:                  res.Buggy,
		TimedOut:               res.TimedOut,
		Faulted:                res.Faulted,
		Cancelled:              res.Cancelled,
		CorpusHits:             res.CorpusHits,
		CorpusStores:           res.CorpusStores,
		CoverageCovered:        res.Coverage.Covered(),
		CoverageTotal:          res.Coverage.Total(),
		BranchCoverageFraction: res.Coverage.Fraction(),
		Metrics:                res.Metrics,
		Profile:                res.Profile,
		Explain:                explain,
		Entries:                []jsonAuditEntry{},
	}
	for _, e := range res.Entries {
		je := jsonAuditEntry{
			Function:       e.Function,
			Status:         string(e.Status),
			ElapsedSeconds: e.Elapsed.Seconds(),
			Retried:        e.Retried,
			CachedByCorpus: e.CachedByCorpus,
			Err:            e.Err,
			Bugs:           []jsonBug{},
		}
		if e.Report != nil {
			je.Runs = e.Report.Runs
			for _, b := range e.Report.Bugs {
				je.Bugs = append(je.Bugs, jsonBug{
					Kind:   b.Kind.String(),
					Msg:    b.Msg,
					Pos:    b.Pos.String(),
					Run:    b.Run,
					Inputs: b.Inputs,
				})
			}
		}
		out.Entries = append(out.Entries, je)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "dart:", err)
		return 2
	}
	if out.Buggy > 0 || out.Faulted > 0 {
		return 1
	}
	return 0
}

// jsonReport is the machine-readable report shape.
type jsonReport struct {
	Mode                   string                `json:"mode"`
	Runs                   int                   `json:"runs"`
	Steps                  int64                 `json:"instructions"`
	ElapsedSeconds         float64               `json:"elapsed_seconds"`
	StepsPerSecond         float64               `json:"steps_per_second"`
	Complete               bool                  `json:"complete"`
	AllLinear              bool                  `json:"all_linear"`
	AllLocsDefinite        bool                  `json:"all_locs_definite"`
	CoverageCovered        int                   `json:"branch_directions_covered"`
	CoverageTotal          int                   `json:"branch_directions_total"`
	BranchCoverageFraction float64               `json:"branch_coverage_fraction"`
	Restarts               int                   `json:"restarts"`
	Mispredicts            int                   `json:"mispredicts"`
	SolverCalls            int                   `json:"solver_calls"`
	SolverFailures         int                   `json:"solver_failures"`
	SolveCacheHits         int                   `json:"solve_cache_hits"`
	SolveCacheMisses       int                   `json:"solve_cache_misses"`
	SolveCacheEvictions    int                   `json:"solve_cache_evictions"`
	SlicedPreds            int64                 `json:"solver_sliced_preds"`
	Workers                int                   `json:"workers"`
	FrontierDropped        int                   `json:"frontier_dropped"`
	Steals                 int64                 `json:"frontier_steals"`
	StopReason             string                `json:"stop_reason"`
	SolverComplete         bool                  `json:"solver_complete"`
	Metrics                *dart.MetricsSnapshot `json:"metrics,omitempty"`
	Profile                *dart.ProfileSnapshot `json:"profile,omitempty"`
	// Explain is the resolved coverage explanation: pure ledger over the
	// whole site universe, byte-identical across -workers values (the
	// check.sh explain gate diffs exactly this object).
	Explain *dart.ExplainReport `json:"explain,omitempty"`
	// ExplainTimeline is the search's run-indexed progress ring and
	// stall count — honest schedule texture, excluded from byte
	// comparisons, hence a sibling of the deterministic Explain.
	ExplainTimeline *jsonTimeline  `json:"explain_timeline,omitempty"`
	InternalErrors  []jsonInternal `json:"internal_errors,omitempty"`
	Bugs            []jsonBug      `json:"bugs"`
}

// jsonTimeline is the timeline half of an ExplainSnapshot on the JSON
// report.
type jsonTimeline struct {
	Timeline []dart.TimelineSample `json:"timeline,omitempty"`
	Stalls   int64                 `json:"stalls,omitempty"`
}

type jsonInternal struct {
	Phase  string           `json:"phase"`
	Msg    string           `json:"message"`
	Run    int              `json:"run"`
	Inputs map[string]int64 `json:"inputs,omitempty"`
}

type jsonBug struct {
	Kind   string           `json:"kind"`
	Msg    string           `json:"message"`
	Pos    string           `json:"position"`
	Run    int              `json:"run"`
	Inputs map[string]int64 `json:"inputs"`
}

func emitJSON(rep *dart.Report, random bool, explain *dart.ExplainReport) int {
	mode := "directed"
	if random {
		mode = "random"
	}
	out := jsonReport{
		Mode:                   mode,
		Runs:                   rep.Runs,
		Steps:                  rep.Steps,
		ElapsedSeconds:         rep.Elapsed.Seconds(),
		StepsPerSecond:         stepsPerSecond(rep),
		Complete:               rep.Complete,
		AllLinear:              rep.AllLinear,
		AllLocsDefinite:        rep.AllLocsDefinite,
		CoverageCovered:        rep.Coverage.Covered(),
		CoverageTotal:          rep.Coverage.Total(),
		BranchCoverageFraction: rep.Coverage.Fraction(),
		Restarts:               rep.Restarts,
		Mispredicts:            rep.Mispredicts,
		SolverCalls:            rep.SolverCalls,
		SolverFailures:         rep.SolverFailures,
		SolveCacheHits:         rep.SolveCacheHits,
		SolveCacheMisses:       rep.SolveCacheMisses,
		SolveCacheEvictions:    rep.SolveCacheEvictions,
		SlicedPreds:            rep.SlicedPreds,
		Workers:                rep.Workers,
		FrontierDropped:        rep.FrontierDropped,
		Steals:                 rep.Steals,
		StopReason:             string(rep.Stopped),
		SolverComplete:         rep.SolverComplete,
		Metrics:                rep.Metrics,
		Profile:                rep.Profile,
		Explain:                explain,
	}
	if snap := rep.Explain; snap != nil && (len(snap.Timeline) > 0 || snap.Stalls > 0) {
		out.ExplainTimeline = &jsonTimeline{Timeline: snap.Timeline, Stalls: snap.Stalls}
	}
	out.Bugs = []jsonBug{}
	for _, ie := range rep.InternalErrors {
		out.InternalErrors = append(out.InternalErrors, jsonInternal{
			Phase:  ie.Phase,
			Msg:    ie.Msg,
			Run:    ie.Run,
			Inputs: ie.Inputs,
		})
	}
	for _, b := range rep.Bugs {
		out.Bugs = append(out.Bugs, jsonBug{
			Kind:   b.Kind.String(),
			Msg:    b.Msg,
			Pos:    b.Pos.String(),
			Run:    b.Run,
			Inputs: b.Inputs,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "dart:", err)
		return 2
	}
	if len(out.Bugs) > 0 {
		return 1
	}
	return 0
}
