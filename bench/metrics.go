package main

import "sort"

// metricDef is one metric as BENCHMARK.json declares it.  Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of dart sees, measured with tracing
// off.  Every workload reports every one of them.
//
// Every bound is 0.10.  Over ten seeds on the two-CPU VM of README.md's
// baseline, after host-speed normalization, wall_ms_p50 and ops_per_s
// spread by up to 0.062 and peak_rss_mb by up to 0.052 (jobs-cached,
// whose one server gives one sample a run), so a tighter bound on peak
// RSS would reject the benchmark's own runs.
var endToEnd = []metricDef{
	// Median of several set-ups in one run, so work moved out of the
	// timed phase into set-up shows.
	{"setup_s", "s", "lower", 0.10},
	// One dart invocation (CLI workloads) or one job from POST to report.
	{"wall_ms_p50", "ms", "lower", 0.10},
	// dart invocations (CLI workloads) or jobs (jobs-*) per second; on
	// dy-sweep, whose run count is fixed, runs/s is 47,727 times this.
	{"ops_per_s", "1/s", "higher", 0.10},
	// The median over the run's dart processes of each one's peak RSS;
	// on jobs-* the one server's, read after its drain.
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are measured in the traced run: the workload's own operations
// again with -profile, plus direct calls into each module.  Every
// workload reports every one of them; a layer the workload does not
// reach reads 0, and only counts and shares can read 0.
var perLayer = []metricDef{
	// Front end, direct calls on the workload's sources.
	{Name: "lexer.ms", Unit: "ms", Better: "lower"},
	{Name: "lexer.tokens", Unit: "count", Better: "lower"},
	{Name: "parser.ms", Unit: "ms", Better: "lower"},
	{Name: "sema.ms", Unit: "ms", Better: "lower"},
	{Name: "ir.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.instrs", Unit: "count", Better: "lower"},
	{Name: "ir.hash_ms", Unit: "ms", Better: "lower"},
	{Name: "machine.compile_ms", Unit: "ms", Better: "lower"},

	// Traced pass: the program's own profile, per operation.  A share is
	// a phase's time over the CPU time the program had (wall × cpus).
	{Name: "concolic.runs", Unit: "count", Better: "lower"},
	{Name: "concolic.restarts", Unit: "count", Better: "lower"},
	{Name: "concolic.mispredicts", Unit: "count", Better: "lower"},
	{Name: "concolic.steals", Unit: "count", Better: "lower"},
	{Name: "machine.steps", Unit: "count", Better: "lower"},
	{Name: "machine.shadow_evals", Unit: "count", Better: "lower"},
	{Name: "machine.exec_share", Unit: "frac", Better: "lower"},
	{Name: "solver.slices", Unit: "count", Better: "lower"},
	{Name: "solver.slice_share", Unit: "frac", Better: "lower"},
	{Name: "solver.cache_lookup_share", Unit: "frac", Better: "lower"},
	{Name: "solver.cache_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "solver.solves", Unit: "count", Better: "lower"},
	{Name: "solver.solve_share", Unit: "frac", Better: "lower"},
	{Name: "solver.work", Unit: "count", Better: "lower"},
	{Name: "solver.verifies", Unit: "count", Better: "lower"},
	{Name: "solver.verify_share", Unit: "frac", Better: "lower"},
	{Name: "concolic.frontier_wait_share", Unit: "frac", Better: "lower"},
	{Name: "serve.queue_wait_share", Unit: "frac", Better: "lower"},
	{Name: "audit.corpus_hits", Unit: "count", Better: "higher"},
	{Name: "trace.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	// The untraced half's p90: a tail only where the half has 100
	// operations or more (sip-warm, jobs-*).
	{Name: "trace.base_wall_ms_p90", Unit: "ms", Better: "lower"},

	// Solver and symbolic, direct calls over the committed captured
	// solves of the workload's program.
	{Name: "solver.replay_solves", Unit: "count", Better: "higher"},
	{Name: "solver.replay_us_p50", Unit: "us", Better: "lower"},
	{Name: "solver.replay_us_p99", Unit: "us", Better: "lower"},
	{Name: "solver.replay_mismatch", Unit: "count", Better: "lower"},
	{Name: "solver.cachekey_ns", Unit: "ns", Better: "lower"},
	{Name: "solver.portablekey_ns", Unit: "ns", Better: "lower"},
	{Name: "symbolic.add_ns", Unit: "ns", Better: "lower"},
	{Name: "symbolic.scale_ns", Unit: "ns", Better: "lower"},
	{Name: "symbolic.render_ns", Unit: "ns", Better: "lower"},

	// Corpus, replay and distill, direct calls on a minisip corpus.
	{Name: "corpus.open_ms", Unit: "ms", Better: "lower"},
	{Name: "corpus.solve_log_kb", Unit: "KB", Better: "lower"},
	{Name: "corpus.solves", Unit: "count", Better: "lower"},
	{Name: "corpus.load_entries_ms", Unit: "ms", Better: "lower"},
	{Name: "corpus.store_entries_ms", Unit: "ms", Better: "lower"},
	{Name: "concolic.replay_suite_ms", Unit: "ms", Better: "lower"},
	{Name: "concolic.replay_cases", Unit: "count", Better: "lower"},
	{Name: "distill.ms", Unit: "ms", Better: "lower"},
	{Name: "distill.cases", Unit: "count", Better: "lower"},

	// Job service, direct in-process calls on the workload's source.
	{Name: "serve.submit_us", Unit: "us", Better: "lower"},
	{Name: "serve.cached_submit_us", Unit: "us", Better: "lower"},
	{Name: "serve.job_ms", Unit: "ms", Better: "lower"},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]value

// set records name with the unit its definition (in defs) declares.
func (m metrics) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = value{v, d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// names returns m's metric names in sorted order.
func (m metrics) names() []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
