package dart

// Benchmarks regenerating the paper's tables and figures; each benchmark
// corresponds to one experiment of DESIGN.md's index and reports, besides
// Go's time/op, the number of program executions (runs/op) the search
// needed — the unit the paper's own tables use.  EXPERIMENTS.md records
// paper-vs-measured values.
//
// The multi-minute Fig. 10 depth-4 search (e7full) and the Lowe-fix
// comparison (e8) are exercised by cmd/dart-experiments instead of a
// benchmark; their single-shot cost (paper: 18 minutes) does not fit the
// benchmarking harness.

import (
	"fmt"
	"sort"
	"testing"

	"dart/internal/audit"
	"dart/internal/corpus"
	"dart/internal/iface"
	"dart/internal/minisip"
	"dart/internal/obs"
	"dart/internal/progs"
	"dart/internal/protocols"
)

func benchProgram(b *testing.B, src string) *Program {
	b.Helper()
	prog, err := Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// reportSearch runs one directed search per iteration and reports its
// run count as a metric.
func benchDirected(b *testing.B, prog *Program, opts Options, wantBug bool) {
	b.Helper()
	var totalRuns int64
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		rep, err := Run(prog, opts)
		if err != nil {
			b.Fatal(err)
		}
		if wantBug && rep.FirstBug() == nil {
			b.Fatalf("iteration %d: bug not found in %d runs", i, rep.Runs)
		}
		if !wantBug && len(rep.Bugs) != 0 {
			b.Fatalf("iteration %d: unexpected bugs %v", i, rep.Bugs)
		}
		totalRuns += int64(rep.Runs)
	}
	b.ReportMetric(float64(totalRuns)/float64(b.N), "runs/op")
}

// BenchmarkE1IntroExample: Sec. 2.1 — directed search solves
// f(x) == x+10 (paper: a couple of runs).
func BenchmarkE1IntroExample(b *testing.B) {
	prog := benchProgram(b, progs.Section21)
	benchDirected(b, prog, Options{Toplevel: "h", MaxRuns: 100, StopAtFirstBug: true}, true)
}

// BenchmarkE2Completeness: Sec. 2.4 — proving the abort unreachable.
func BenchmarkE2Completeness(b *testing.B) {
	prog := benchProgram(b, progs.Section24)
	benchDirected(b, prog, Options{Toplevel: "f", MaxRuns: 100}, false)
}

// BenchmarkE3PointerCast: Sec. 2.5 — solving a->c == 0 through the
// char* alias.
func BenchmarkE3PointerCast(b *testing.B) {
	prog := benchProgram(b, progs.Section25Cast)
	benchDirected(b, prog, Options{Toplevel: "bar", MaxRuns: 200, StopAtFirstBug: true}, true)
}

// BenchmarkE4Foobar: Sec. 2.5 — graceful degradation on non-linear
// conditions (abort found with probability ~1/2 per restart; the bench
// uses a run budget that makes discovery near-certain).
func BenchmarkE4Foobar(b *testing.B) {
	prog := benchProgram(b, progs.Foobar)
	var totalRuns int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(prog, Options{Toplevel: "foobar", MaxRuns: 200, Seed: int64(i + 1), StopAtFirstBug: true})
		if err != nil {
			b.Fatal(err)
		}
		totalRuns += int64(rep.Runs)
	}
	b.ReportMetric(float64(totalRuns)/float64(b.N), "runs/op")
}

// BenchmarkACControllerDepth1: Sec. 4.1 row 1 — exhaustive sweep
// (paper: 6 iterations, <1s).
func BenchmarkACControllerDepth1(b *testing.B) {
	prog := benchProgram(b, progs.ACController)
	benchDirected(b, prog, Options{Toplevel: "ac_controller", Depth: 1, MaxRuns: 2000}, false)
}

// BenchmarkACControllerDepth2: Sec. 4.1 row 2 — the (3, 0) violation
// (paper: 7 iterations, <1s).
func BenchmarkACControllerDepth2(b *testing.B) {
	prog := benchProgram(b, progs.ACController)
	benchDirected(b, prog, Options{Toplevel: "ac_controller", Depth: 2, MaxRuns: 2000, StopAtFirstBug: true}, true)
}

// BenchmarkACControllerRandomBaseline: the random-search column of
// Sec. 4.1 at a fixed 10k-run budget (finds nothing).
func BenchmarkACControllerRandomBaseline(b *testing.B) {
	prog := benchProgram(b, progs.ACController)
	for i := 0; i < b.N; i++ {
		rep, err := RandomTest(prog, Options{Toplevel: "ac_controller", Depth: 2, MaxRuns: 10000, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Bugs) != 0 {
			b.Fatal("random search got impossibly lucky")
		}
	}
}

// BenchmarkNSPossibilisticDepth1: Fig. 9 row 1 (paper: 69 runs).
func BenchmarkNSPossibilisticDepth1(b *testing.B) {
	prog := benchProgram(b, protocols.Source(protocols.Possibilistic, protocols.NoFix))
	benchDirected(b, prog, Options{Toplevel: protocols.Toplevel, Depth: 1, MaxRuns: 20000}, false)
}

// BenchmarkNSPossibilisticDepth2: Fig. 9 row 2 — the projected attack
// (paper: 664 runs, 2s).
func BenchmarkNSPossibilisticDepth2(b *testing.B) {
	prog := benchProgram(b, protocols.Source(protocols.Possibilistic, protocols.NoFix))
	benchDirected(b, prog, Options{Toplevel: protocols.Toplevel, Depth: 2, MaxRuns: 50000, StopAtFirstBug: true}, true)
}

// BenchmarkNSDolevYaoDepth1: Fig. 10 row 1 (paper: 5 runs).
func BenchmarkNSDolevYaoDepth1(b *testing.B) {
	prog := benchProgram(b, protocols.Source(protocols.DolevYao, protocols.NoFix))
	benchDirected(b, prog, Options{Toplevel: protocols.Toplevel, Depth: 1, MaxRuns: 50000}, false)
}

// BenchmarkNSDolevYaoDepth2: Fig. 10 row 2 (paper: 85 runs).
func BenchmarkNSDolevYaoDepth2(b *testing.B) {
	prog := benchProgram(b, protocols.Source(protocols.DolevYao, protocols.NoFix))
	benchDirected(b, prog, Options{Toplevel: protocols.Toplevel, Depth: 2, MaxRuns: 50000}, false)
}

// BenchmarkNSDolevYaoDepth3: Fig. 10 row 3 (paper: 6260 runs, 22s).
// The exhaustive sweep takes ~10s per iteration.
func BenchmarkNSDolevYaoDepth3(b *testing.B) {
	if testing.Short() {
		b.Skip("exhaustive depth-3 sweep")
	}
	prog := benchProgram(b, protocols.Source(protocols.DolevYao, protocols.NoFix))
	benchDirected(b, prog, Options{Toplevel: protocols.Toplevel, Depth: 3, MaxRuns: 300000}, false)
}

// BenchmarkSIPAudit: Sec. 4.3 — the whole-library audit at a reduced
// 100-run budget per function (the full 1000-run audit is exercised by
// cmd/dart-experiments -exp e9 and the tests).
func BenchmarkSIPAudit(b *testing.B) {
	prog, sem, err := minisip.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var crashedPct float64
	for i := 0; i < b.N; i++ {
		res, err := minisip.Audit(prog, sem, int64(i+1), 100, false)
		if err != nil {
			b.Fatal(err)
		}
		crashedPct = 100 * res.Fraction()
	}
	b.ReportMetric(crashedPct, "%crashed")
}

// BenchmarkE10AllocaVulnerability: Sec. 4.3 — deriving the oversized
// packet that defeats the parser's filters.
func BenchmarkE10AllocaVulnerability(b *testing.B) {
	prog, _, err := minisip.Compile()
	if err != nil {
		b.Fatal(err)
	}
	p := &Program{IR: prog}
	var totalRuns int64
	for i := 0; i < b.N; i++ {
		rep, err := Run(p, Options{Toplevel: "parse_packet", MaxRuns: 2000, Seed: int64(i + 1), StopAtFirstBug: true})
		if err != nil {
			b.Fatal(err)
		}
		found := false
		for _, bug := range rep.Bugs {
			if bug.Kind == Crashed {
				found = true
			}
		}
		if !found {
			b.Fatalf("iteration %d: vulnerability not found", i)
		}
		totalRuns += int64(rep.Runs)
	}
	b.ReportMetric(float64(totalRuns)/float64(b.N), "runs/op")
}

// BenchmarkStrategies: ablation A1 — branch-selection strategy on the
// AC-controller violation.
func BenchmarkStrategies(b *testing.B) {
	prog := benchProgram(b, progs.ACController)
	for _, s := range []Strategy{DFS, BFS, RandomBranch} {
		b.Run(s.String(), func(b *testing.B) {
			var totalRuns int64
			for i := 0; i < b.N; i++ {
				rep, err := Run(prog, Options{
					Toplevel: "ac_controller", Depth: 2, MaxRuns: 5000,
					Seed: int64(i + 1), Strategy: s, StopAtFirstBug: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.FirstBug() == nil {
					b.Fatalf("strategy %v missed the violation", s)
				}
				totalRuns += int64(rep.Runs)
			}
			b.ReportMetric(float64(totalRuns)/float64(b.N), "runs/op")
		})
	}
}

// BenchmarkCoverageCurve: ablation A2 — branch coverage reached by a
// 50-run budget, directed vs random, on the input-filter program.
func BenchmarkCoverageCurve(b *testing.B) {
	prog := benchProgram(b, progs.Filter)
	b.Run("directed", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			rep, err := Run(prog, Options{Toplevel: "entry", MaxRuns: 50, Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			cov = rep.Coverage.Fraction()
		}
		b.ReportMetric(100*cov, "%coverage")
	})
	b.Run("random", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			rep, err := RandomTest(prog, Options{Toplevel: "entry", MaxRuns: 50, Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			cov = rep.Coverage.Fraction()
		}
		b.ReportMetric(100*cov, "%coverage")
	})
}

// BenchmarkShapeSearchAblation: design-choice ablation — systematic
// pointer-shape search vs the paper's coin-toss-only shapes, on a
// straight-line dereference with no NULL-check branch (so the paper's
// search has no predicate to flip).  The systematic search always finds
// the NULL crash by its second run; the coin-toss variant executes the
// single branch-free path, concludes the tree is exhausted, and stops —
// finding the crash only when its first coin lands on NULL (~50%).
func BenchmarkShapeSearchAblation(b *testing.B) {
	prog := benchProgram(b, progs.StraightLineDeref)
	for _, v := range []struct {
		name    string
		disable bool
	}{{"systematic", false}, {"coin-toss", true}} {
		b.Run(v.name, func(b *testing.B) {
			var found int
			for i := 0; i < b.N; i++ {
				rep, err := Run(prog, Options{
					Toplevel: "poke", MaxRuns: 2, Seed: int64(i + 1),
					StopAtFirstBug: true, DisableShapeSearch: v.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.FirstBug() != nil {
					found++
				}
			}
			b.ReportMetric(100*float64(found)/float64(b.N), "%found")
		})
	}
}

// BenchmarkSolverHeavyGate: the solver fast path on the cache workload —
// a gauntlet of sequential conditionals whose flips reduce, after
// independence slicing, to a handful of distinct (slice, hint) keys.
// Besides time/op it reports the solver work units actually spent
// (cache hits spend none) and the solver call count; the cache/nocache
// pair is the A/B the -solve-cache flag exposes.
func BenchmarkSolverHeavyGate(b *testing.B) {
	prog := benchProgram(b, progs.SolverGate)
	for _, v := range []struct {
		name string
		cap  int
	}{{"cache", 0}, {"nocache", -1}} {
		b.Run(v.name, func(b *testing.B) {
			var work, calls int64
			for i := 0; i < b.N; i++ {
				rep, err := Run(prog, Options{
					Toplevel: "gate", MaxRuns: 300, Seed: int64(i + 1),
					SolveCacheCap: v.cap, CollectMetrics: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				work += rep.Metrics.Histograms[obs.HSolverWork].Sum
				calls += int64(rep.SolverCalls)
			}
			b.ReportMetric(float64(work)/float64(b.N), "solverwork/op")
			b.ReportMetric(float64(calls)/float64(b.N), "solvercalls/op")
		})
	}
}

// BenchmarkMachineThroughput: raw concolic-execution speed — one full
// depth-2 Dolev-Yao sweep (1228 runs) per iteration, reporting runs per
// second (the paper's search did ~300 runs/s on 2005 hardware).  The
// compiled/interp split is the PR 9 engine A/B: identical search (the
// differential gate proves the reports byte-identical), only the
// execution engine differs.  The PR 9 and PR 10 entries of CHANGES.md
// hold its gates: compiled ≥2× the pre-compilation baseline, with
// allocs/op down ≥10×.
func BenchmarkMachineThroughput(b *testing.B) {
	prog := benchProgram(b, protocols.Source(protocols.DolevYao, protocols.NoFix))
	for _, v := range []struct {
		name   string
		interp bool
	}{{"compiled", false}, {"interp", true}} {
		b.Run(v.name, func(b *testing.B) {
			var runs, steps int64
			for i := 0; i < b.N; i++ {
				rep, err := Run(prog, Options{Toplevel: protocols.Toplevel, Depth: 2,
					MaxRuns: 5000, Seed: int64(i + 1), Interpreter: v.interp})
				if err != nil {
					b.Fatal(err)
				}
				runs += int64(rep.Runs)
				steps += rep.Steps
			}
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
			b.ReportMetric(float64(steps)/float64(runs), "instructions/run")
		})
	}
}

// BenchmarkProfileOverhead: the profiler's cost discipline as a direct
// A/B.  "off" is the default path — a nil *obs.Profile whose methods
// are no-ops and which reads no clock, so it must stay within noise of
// a build that predates the profiler (the PR 7 entry of CHANGES.md,
// <2% on per-side minimums).  "on" prices what span-attributed timing costs
// when asked for; it is allowed to be slower, it just has to be honest
// about it.  The machine-heavy workload maximises spans per second and
// is therefore the worst case for both sides.
func BenchmarkProfileOverhead(b *testing.B) {
	prog := benchProgram(b, protocols.Source(protocols.DolevYao, protocols.NoFix))
	for _, v := range []struct {
		name    string
		collect bool
	}{{"off", false}, {"on", true}} {
		b.Run(v.name, func(b *testing.B) {
			var runs int64
			for i := 0; i < b.N; i++ {
				rep, err := Run(prog, Options{
					Toplevel: protocols.Toplevel, Depth: 2, MaxRuns: 5000,
					Seed: int64(i + 1), CollectProfile: v.collect,
				})
				if err != nil {
					b.Fatal(err)
				}
				if v.collect && rep.Profile == nil {
					b.Fatal("profiled run returned no profile")
				}
				runs += int64(rep.Runs)
			}
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}

// BenchmarkWorkerScaling: the parallel frontier's scaling curve over a
// machine-heavy workload (a depth-2 Dolev-Yao sweep: thousands of
// concrete executions, cheap solves) and a solver-heavy one (the
// SolverGate gauntlet: most of the time inside the solver fast path).
// BFS puts every worker count on the same frontier scheduler, so each
// sub-benchmark performs the same logical search and time/op isolates
// the pool's effect.  runs/op must not drift across worker counts (the
// determinism contract); speedup is bounded by available cores — on a
// single-CPU container expect a flat curve, and the interesting gate is
// that workers=2..8 stay within the coordination-overhead noise of
// workers=1 rather than behind it.
func BenchmarkWorkerScaling(b *testing.B) {
	workloads := []struct {
		name string
		prog *Program
		opts Options
	}{
		{"machine", benchProgram(b, protocols.Source(protocols.DolevYao, protocols.NoFix)),
			Options{Toplevel: protocols.Toplevel, Depth: 2, MaxRuns: 5000, Strategy: BFS}},
		{"solver", benchProgram(b, progs.SolverGate),
			Options{Toplevel: "gate", MaxRuns: 300, Strategy: BFS}},
	}
	for _, wl := range workloads {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", wl.name, workers), func(b *testing.B) {
				var runs int64
				for i := 0; i < b.N; i++ {
					opts := wl.opts
					opts.Seed = int64(i + 1)
					opts.Workers = workers
					rep, err := Run(wl.prog, opts)
					if err != nil {
						b.Fatal(err)
					}
					runs += int64(rep.Runs)
				}
				b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
			})
		}
	}
}

// BenchmarkCompile: front-end cost over the largest source (minisip).
func BenchmarkCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile(minisip.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalReaudit: the incremental re-audit cold/warm A/B
// on the paper's flagship target.  cold audits the full miniSIP
// library into a fresh corpus — search, set-cover distillation, entry
// store.  warm re-audits the unchanged library from a populated corpus
// — IR hash check, distilled-suite replay, bug-fixture validation.
// The 1000-run budget is the paper's own (Sec. 4.3); replay cost is
// proportional to the distilled suite, not the search budget, which is
// the point of distillation.  Gate (the PR 10 entry of CHANGES.md):
// warm ns/op at least 10x below cold; verdict equality itself is
// TestIncrementalSIPWarmMatchesCold's job.
func BenchmarkIncrementalReaudit(b *testing.B) {
	prog, sem, err := minisip.Compile()
	if err != nil {
		b.Fatal(err)
	}
	fns := iface.Candidates(sem)
	sort.Strings(fns)
	newOpts := func(c *corpus.Corpus) audit.Options {
		return audit.Options{Toplevels: fns, Seed: 1, MaxRuns: 1000, Corpus: c}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, err := corpus.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if res := audit.Run(prog, newOpts(c)); res.CorpusHits != 0 {
				b.Fatal("cold run hit the corpus")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c, err := corpus.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		seed := audit.Run(prog, newOpts(c))
		if seed.CorpusStores == 0 {
			b.Fatal("seeding run stored nothing")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := audit.Run(prog, newOpts(c)); res.CorpusHits != seed.CorpusStores {
				b.Fatalf("warm run hit %d of %d entries", res.CorpusHits, seed.CorpusStores)
			}
		}
	})
}
