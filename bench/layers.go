package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dart"
	"dart/internal/ast"
	"dart/internal/concolic"
	"dart/internal/corpus"
	"dart/internal/distill"
	"dart/internal/ir"
	"dart/internal/lexer"
	"dart/internal/machine"
	"dart/internal/parser"
	"dart/internal/sema"
	"dart/internal/serve"
	"dart/internal/solver"
	"dart/internal/symbolic"
)

// The layer probes call each module's public functions directly, from
// outside the program, so an end-to-end number can be split by layer
// before the program has spans of its own.  Every probe runs on every
// workload; the workload picks the inputs.

const (
	frontEndReps = 200
	probeReps    = 5
	serveReps    = 30
)

// probeFrontEnd times each front-end stage over the workload's sources:
// one repetition compiles every source once, stage by stage, and each
// metric is the median repetition's total.
func probeFrontEnd(tr *tracer, parent int, srcs []string, m metrics) error {
	stages := []string{"lexer.ms", "parser.ms", "sema.ms", "ir.compile_ms", "ir.optimize_ms", "ir.hash_ms", "machine.compile_ms"}
	samples := make(map[string][]float64, len(stages))
	var tokens, instrs int
	lib := machine.StdLibSigs()
	for rep := 0; rep < frontEndReps; rep++ {
		total := map[string]float64{}
		tokens, instrs = 0, 0
		for _, src := range srcs {
			var (
				file *ast.File
				sem  *sema.Program
				prog *ir.Prog
			)
			steps := []func() error{
				func() error { tokens += len(lexer.New(src).All()); return nil },
				func() (err error) { file, err = parser.Parse(src); return err },
				func() (err error) { sem, err = sema.Check(file, lib); return err },
				func() (err error) { prog, err = ir.Compile(sem); return err },
				func() error { ir.Optimize(prog); return nil },
				func() error { ir.FuncHashes(prog); return nil },
				func() error { machine.Compile(prog); return nil },
			}
			for i, step := range steps {
				id := tr.begin(parent, stages[i])
				t0 := time.Now()
				err := step()
				total[stages[i]] += ms(time.Since(t0))
				tr.end(id)
				if err != nil {
					return fmt.Errorf("front-end probe: %w", err)
				}
			}
			for _, f := range prog.Funcs {
				instrs += len(f.Code)
			}
		}
		for _, s := range stages {
			samples[s] = append(samples[s], total[s])
		}
	}
	for _, s := range stages {
		m.set(perLayer, s, median(samples[s]))
	}
	m.set(perLayer, "lexer.tokens", float64(tokens))
	m.set(perLayer, "ir.instrs", float64(instrs))
	return nil
}

// probeSolver replays the captured solves of one program through
// solver.SolveWork and times the key renderings and the symbolic
// operations the engine performs on the same predicates.  It returns
// how many replays missed the logged verdict or a valid model.
func probeSolver(tr *tracer, parent int, set string, m metrics) (int, error) {
	cases, err := loadSolves(set)
	if err != nil {
		return 0, err
	}
	if len(cases) == 0 {
		return 0, fmt.Errorf("no captured solves for %q", set)
	}
	id := tr.begin(parent, "solver.replay")
	var lat []float64
	mismatch := 0
	for rep := 0; rep < 3; rep++ {
		for _, c := range cases {
			t0 := time.Now()
			sol, verdict := solver.SolveWork(c.slice, c.meta, c.hint, c.budget)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			if rep == 0 && !sameOutcome(c, sol, verdict) {
				mismatch++
			}
		}
	}
	tr.end(id)
	p50, _ := percentile(lat, 0.50)
	p99, _ := percentile(lat, 0.99)
	m.set(perLayer, "solver.replay_solves", float64(len(cases)))
	m.set(perLayer, "solver.replay_us_p50", p50)
	m.set(perLayer, "solver.replay_us_p99", p99)
	m.set(perLayer, "solver.replay_mismatch", float64(mismatch))

	// Per-call means over the whole set, median of probeReps passes.
	var preds []*symbolic.Lin
	for _, c := range cases {
		for _, p := range c.slice {
			if p.L != nil {
				preds = append(preds, p.L)
			}
		}
	}
	perCall := func(name string, n int, f func()) {
		id := tr.begin(parent, name)
		var xs []float64
		for rep := 0; rep < probeReps; rep++ {
			t0 := time.Now()
			f()
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
		}
		tr.end(id)
		m.set(perLayer, name, median(xs))
	}
	perCall("solver.cachekey_ns", len(cases), func() {
		for _, c := range cases {
			solver.CacheKey(c.slice, c.hint)
		}
	})
	perCall("solver.portablekey_ns", len(cases), func() {
		for _, c := range cases {
			solver.PortableKey(c.slice, c.hint, c.budget, c.name, c.meta)
		}
	})
	perCall("symbolic.add_ns", len(preds), func() {
		for i, l := range preds {
			symbolic.Add(l, preds[(i+1)%len(preds)])
		}
	})
	perCall("symbolic.scale_ns", len(preds), func() {
		for _, l := range preds {
			symbolic.Scale(l, 3)
		}
	})
	perCall("symbolic.render_ns", len(preds), func() {
		for _, l := range preds {
			_ = l.String()
		}
	})
	return mismatch, nil
}

// sameOutcome reports whether a replayed solve reached the logged
// verdict and, for Sat, whether both its model and the logged one solve
// the slice.  The two models need not be equal: which of several the
// solver picks depends on the engine's variable numbering, which the key
// does not carry.
func sameOutcome(c *solveCase, sol map[symbolic.Var]int64, verdict solver.Verdict) bool {
	if verdict != c.verdict {
		return false
	}
	if verdict != solver.Sat {
		return true
	}
	logged := map[symbolic.Var]int64{}
	for v, name := range c.names {
		x, ok := c.model[name]
		if !ok {
			return false
		}
		logged[symbolic.Var(v)] = x
	}
	return c.solves(sol) && c.solves(logged)
}

// solves reports whether model gives every variable a value in its
// domain (NULL or a fresh allocation for a pointer) and satisfies every
// predicate of the slice.
func (c *solveCase) solves(model map[symbolic.Var]int64) bool {
	for v, m := range c.metas {
		x, ok := model[symbolic.Var(v)]
		switch {
		case !ok:
			return false
		case m.Kind == symbolic.PointerVar && x != solver.PtrNull && x != solver.PtrAlloc:
			return false
		case m.Kind == symbolic.ScalarVar && (x < m.Lo || x > m.Hi):
			return false
		}
	}
	for _, p := range c.slice {
		if p.L != nil && !p.Holds(model) {
			return false
		}
	}
	return true
}

// probeCorpus builds a minisip corpus in-process (an audit with the
// corpus attached, untimed) and then times the corpus layer's calls on
// it: Open with its solve log, LoadEntry and StoreEntry for every
// function, suite replay, and distillation of the recorded run logs.
func probeCorpus(tr *tracer, parent int, dir string, seed int64, m metrics) error {
	prog, err := dart.Compile(minisipSource())
	if err != nil {
		return err
	}
	src := filepath.Join(dir, "probe-corpus")
	if err := os.RemoveAll(src); err != nil {
		return err
	}
	c, err := dart.OpenCorpus(src)
	if err != nil {
		return err
	}
	id := tr.begin(parent, "corpus.populate")
	res := dart.Audit(prog, dart.AuditOptions{Seed: seed, MaxRuns: sipRuns, Jobs: 2, Corpus: c})
	tr.end(id)
	if res.CorpusStores != res.Functions() {
		return fmt.Errorf("corpus probe: stored %d of %d entries", res.CorpusStores, res.Functions())
	}
	fns := dart.Functions(prog)

	timedReps := func(name string, f func(rep int) error) error {
		id := tr.begin(parent, name)
		defer tr.end(id)
		var xs []float64
		for rep := 0; rep < probeReps; rep++ {
			t0 := time.Now()
			if err := f(rep); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		m.set(perLayer, name, median(xs))
		return nil
	}

	var opened *corpus.Corpus
	if err := timedReps("corpus.open_ms", func(int) (err error) {
		opened, err = corpus.Open(src)
		return err
	}); err != nil {
		return err
	}
	st, err := os.Stat(filepath.Join(src, "solve.log"))
	if err != nil {
		return err
	}
	m.set(perLayer, "corpus.solve_log_kb", float64(st.Size())/1024)
	m.set(perLayer, "corpus.solves", float64(opened.SolveCount()))

	entries := make([]*corpus.Entry, len(fns))
	if err := timedReps("corpus.load_entries_ms", func(int) error {
		for i, fn := range fns {
			e, reason := opened.LoadEntry(fn)
			if e == nil {
				return fmt.Errorf("entry %s: %s", fn, reason)
			}
			entries[i] = e
		}
		return nil
	}); err != nil {
		return err
	}

	cases := 0
	if err := timedReps("concolic.replay_suite_ms", func(int) error {
		cases = 0
		for _, e := range entries {
			if _, err := concolic.ReplaySuite(prog.IR, concolic.Options{Toplevel: e.Function}, e.Suite); err != nil {
				return err
			}
			cases += len(e.Suite)
		}
		return nil
	}); err != nil {
		return err
	}
	m.set(perLayer, "concolic.replay_cases", float64(cases))

	if err := timedReps("corpus.store_entries_ms", func(rep int) error {
		dst, err := corpus.Open(filepath.Join(dir, fmt.Sprintf("probe-store-%d", rep)))
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := dst.StoreEntry(e); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	picked := 0
	if err := timedReps("distill.ms", func(int) error {
		picked = 0
		for _, e := range res.Entries {
			picked += distill.Distill(e.Report.RunLog, e.Report.Coverage).Picked
		}
		return nil
	}); err != nil {
		return err
	}
	m.set(perLayer, "distill.cases", float64(picked))
	for rep := 0; rep < probeReps; rep++ {
		if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("probe-store-%d", rep))); err != nil {
			return err
		}
	}
	return os.RemoveAll(src)
}

// probeServe times the job service's admission path in-process on the
// workload's source: a fresh submission (compile, content key, enqueue),
// the same submission again once its report is stored (compile, key,
// store hit), and a one-run job from admission to completion.
func probeServe(tr *tracer, parent int, src string, m metrics) error {
	svc := serve.New(serve.Config{Executors: 1})
	defer svc.Drain(0)
	var fresh, cached, job []float64
	for i := 0; i < serveReps; i++ {
		sub := serve.Submission{Source: src, Seed: int64(i + 1), Runs: 1}
		id := tr.begin(parent, "serve.job")
		t0 := time.Now()
		j, err := svc.Submit(sub)
		fresh = append(fresh, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		<-j.Done()
		job = append(job, ms(time.Since(t0)))
		tr.end(id)
		if stop := j.StopReason(); stop != "" {
			return fmt.Errorf("serve probe: job stopped: %s", stop)
		}
		t0 = time.Now()
		j, err = svc.Submit(sub)
		cached = append(cached, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		if _, hit := j.Report(); !hit {
			return fmt.Errorf("serve probe: repeat submission was not served from the store")
		}
	}
	m.set(perLayer, "serve.submit_us", median(fresh))
	m.set(perLayer, "serve.cached_submit_us", median(cached))
	m.set(perLayer, "serve.job_ms", median(job))
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
