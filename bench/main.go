// Command bench is DART's benchmark: five workloads against the dart
// binary built from the same checkout, each run printing its end-to-end
// metrics (or, traced, its per-layer metrics) as one JSON line.
//
//	bash bench/run.sh --workload sip-cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh compare OLD.jsonl NEW.jsonl
//
// bench/run.sh builds this program and the dart binary, untimed, into
// .bench_build; README.md describes the workloads, the metrics and how
// to record and compare two sets of runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dart/internal/obs"
)

// A run sets its workload up setUpReps times, and more while the
// set-ups have taken less than setUpTime, so that a set-up of a few
// milliseconds is timed often enough; setup_s is the median.
const (
	setUpReps = 5
	setUpTime = 2 * time.Second
)

// The benchmark runs from the root of a checkout; bench/run.sh builds
// dart into buildDir, and the runs keep their files under it.
const (
	buildDir = ".bench_build"
	dartBin  = buildDir + "/dart"
	workDir  = buildDir + "/work"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // file the run's record is appended to
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: sip-cold, sip-warm, dy-sweep, jobs-fresh or jobs-cached")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 15, "measured time of the run")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run, which reports the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "append the run's record, as one JSON line, to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := findWorkload(o.workload)
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]")
		return 2
	}
	o.trace = trace == 1
	runtime.GOMAXPROCS(programCPUs)

	rec, err := run(def, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench %s: %v\n", o.workload, err)
		return 1
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(stderr, "bench %s: FAIL %s\n", o.workload, f)
	}
	rec.print(stderr)
	if o.out != "" {
		if err := rec.appendTo(o.out); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// result is the line a run ends with: whether every output checked out,
// how many operations were attempted and failed, and the metrics.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is what --out keeps of a run: the result with its context and
// the workload-specific numbers no other workload has.
type record struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    bool      `json:"trace"`
	Date     string    `json:"date"`
	Commit   string    `json:"commit,omitempty"`
	NProc    int       `json:"nproc"`
	Samples  int       `json:"samples"` // timed operations behind the medians
	Detail   metrics   `json:"detail,omitempty"`
	Failures []string  `json:"failures,omitempty"`
	Result   result    `json:"result"`
	started  time.Time // for the stderr summary
}

// runner is what every workload drives the program with.
type runner struct {
	dart  string  // the dart binary under test
	work  string  // the workload's files; emptied before and after the run
	tr    *tracer // nil outside the traced run
	clock hostClock
}

// run sets the workload up several times, measures it for o.seconds
// and checks every output.  An error means the run could not be made
// at all; a wrong output is a failure inside the record.
func run(def workloadDef, o options) (*record, error) {
	dart, err := filepath.Abs(dartBin)
	if err != nil {
		return nil, err
	}
	r := &runner{dart: dart, work: filepath.Join(workDir, def.name)}
	if err := os.RemoveAll(r.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.work)

	rec := &record{Workload: def.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Date: time.Now().UTC().Format(time.RFC3339), Commit: commit(), NProc: runtime.NumCPU(),
		Detail: metrics{}, started: time.Now()}
	root := 0
	if o.trace {
		r.tr = newTracer()
		root = r.tr.begin(0, def.name)
	}
	w := def.make(o.seed)
	id := r.tr.begin(root, "prepare")
	err = w.prepare(r)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	done := false
	defer func() {
		if !done {
			_ = w.tearDown(r, &pass{}) // the run already failed; stop what set-up started
		}
	}()
	var setups []timed
	var spent time.Duration
	for len(setups) < setUpReps || spent < setUpTime {
		if r.clock.due() {
			r.clock.tick()
		} else {
			settle()
		}
		id := r.tr.begin(root, "setup")
		t0 := time.Now()
		err := w.setUp(r)
		d := time.Since(t0)
		spent += d
		setups = append(setups, timed{ms(d), r.clock.at()})
		r.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	r.clock.tick()

	d := time.Duration(o.seconds) * time.Second
	var p, base *pass
	if o.trace {
		// Half the time untraced, half with -profile: the pair gives the
		// tracing overhead.
		id := r.tr.begin(root, "untraced")
		base, err = w.pass(r, d/2, false, id)
		r.tr.end(id)
		if err == nil {
			id = r.tr.begin(root, "traced")
			p, err = w.pass(r, d/2, true, id)
			r.tr.end(id)
		}
	} else {
		p, err = w.pass(r, d, false, root)
	}
	if err != nil {
		return nil, err
	}
	r.clock.tick()
	done = true
	if err := w.tearDown(r, p); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}

	res := &rec.Result
	res.Attempted, res.Failed = p.attempted, p.failed
	rec.Failures = p.failures
	rec.Samples = len(p.wall)
	for k, v := range p.detail {
		rec.Detail[k] = v
	}
	if !o.trace {
		res.Metrics = endToEndMetrics(&r.clock, setups, p)
	} else {
		res.Attempted += base.attempted
		res.Failed += base.failed
		rec.Failures = append(rec.Failures, base.failures...)
		res.Metrics = layerMetrics(&r.clock, p, base)
		probes := metrics{}
		mismatch, err := probeLayers(r, w, o.seed, root, probes)
		if err != nil {
			return nil, err
		}
		if mismatch > 0 {
			res.Failed++
			rec.Failures = append(rec.Failures, fmt.Sprintf("%d captured solves replayed to another outcome", mismatch))
		}
		r.clock.normalize(probes)
		maps.Copy(res.Metrics, probes)
		r.tr.end(root)
		if err := r.tr.write(filepath.Join(workDir, def.name+".trace.json")); err != nil {
			return nil, err
		}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation completed")
	}
	rec.Detail["host.cal_ms"] = value{r.clock.normalize(rec.Detail), "ms"}
	rec.Detail["peak_rss_mb.min"] = value{slices.Min(p.rssMB), "MB"}
	res.Correct = res.Failed == 0
	return rec, nil
}

// endToEndMetrics are the untraced run's numbers, each time scaled to
// the reference host speed by the samples around it.
func endToEndMetrics(clock *hostClock, setups []timed, p *pass) metrics {
	m := metrics{}
	m.set(endToEnd, "setup_s", median(clock.scaled(setups))/1e3)
	m.set(endToEnd, "wall_ms_p50", median(clock.scaled(p.wall)))
	m.set(endToEnd, "ops_per_s", float64(p.attempted)/sum(clock.scaled(p.busy))*1e3)
	m.set(endToEnd, "peak_rss_mb", median(p.rssMB))
	return m
}

// layerMetrics reads the traced pass: the program's own cost profile,
// per operation or as a share of the CPU time the program had, and the
// traced pass's wall times against the untraced pass's.
func layerMetrics(clock *hostClock, p, base *pass) metrics {
	m := metrics{}
	n := float64(p.attempted)
	cpuNanos := sum(timedMS(p.busy)) * 1e6 * programCPUs
	phase := func(name string) (count, nanos float64) {
		for _, ph := range p.prof.Phases {
			if ph.Phase == name {
				return float64(ph.Count), float64(ph.Nanos)
			}
		}
		return 0, 0
	}
	perOp := func(name, span string) {
		c, _ := phase(span)
		m.set(perLayer, name, c/n)
	}
	share := func(name, span string) {
		_, ns := phase(span)
		m.set(perLayer, name, ns/cpuNanos)
	}
	m.set(perLayer, "concolic.runs", float64(p.runs)/n)
	perOp("machine.shadow_evals", obs.SpanShadow)
	share("machine.exec_share", obs.SpanExec)
	perOp("solver.slices", obs.SpanSlice)
	share("solver.slice_share", obs.SpanSlice)
	share("solver.cache_lookup_share", obs.SpanCacheLookup)
	perOp("solver.solves", obs.SpanSolve)
	share("solver.solve_share", obs.SpanSolve)
	perOp("solver.verifies", obs.SpanVerify)
	share("solver.verify_share", obs.SpanVerify)
	share("concolic.frontier_wait_share", obs.SpanFrontierWait)
	share("serve.queue_wait_share", obs.SpanJobQueueWait)

	var hits, misses, work float64
	for _, s := range p.prof.Sites {
		hits += float64(s.CacheHits)
		misses += float64(s.CacheMisses)
		work += float64(s.Work)
	}
	m.set(perLayer, "solver.work", work/n)
	hitFrac := 0.0
	if hits+misses > 0 {
		hitFrac = hits / (hits + misses)
	}
	m.set(perLayer, "solver.cache_hit_frac", hitFrac)
	m.set(perLayer, "machine.steps", float64(p.steps)/n)
	m.set(perLayer, "concolic.restarts", float64(p.restarts)/n)
	m.set(perLayer, "concolic.mispredicts", float64(p.mispredicts)/n)
	m.set(perLayer, "concolic.steals", float64(p.steals)/n)
	m.set(perLayer, "audit.corpus_hits", float64(p.corpusHit)/n)

	tracedWall, baseWall := clock.scaled(p.wall), clock.scaled(base.wall)
	traced := median(tracedWall)
	m.set(perLayer, "trace.wall_ms", traced)
	m.set(perLayer, "trace.overhead_frac", traced/median(baseWall)-1)
	p90, _ := percentile(baseWall, 0.90)
	m.set(perLayer, "trace.base_wall_ms_p90", p90)
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func timedMS(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

// probeLayers runs every direct layer probe with the workload's inputs
// and returns how many captured solves replayed to another outcome.
func probeLayers(r *runner, w workload, seed int64, root int, m metrics) (int, error) {
	id := r.tr.begin(root, "probes")
	defer r.tr.end(id)
	r.clock.tick()
	if err := probeFrontEnd(r.tr, id, w.sources(), m); err != nil {
		return 0, err
	}
	r.clock.tick()
	mismatch, err := probeSolver(r.tr, id, w.solveSet(), m)
	if err != nil {
		return 0, err
	}
	r.clock.tick()
	if err := probeCorpus(r.tr, id, r.work, seed, m); err != nil {
		return 0, err
	}
	r.clock.tick()
	err = probeServe(r.tr, id, w.sources()[0], m)
	r.clock.tick()
	return mismatch, err
}

// commit is the revision the benchmark was built from, when the build
// could read it from version control.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}

// appendTo appends the record to path as one JSON line.
func (rec *record) appendTo(path string) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes every metric by name and unit, with the sample count.
func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "bench %s seed=%d trace=%v: %d ops (%d timed), %d failed, %.1fs\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Result.Attempted, rec.Samples, rec.Result.Failed,
		time.Since(rec.started).Seconds())
	for _, set := range []metrics{rec.Result.Metrics, rec.Detail} {
		for _, name := range set.names() {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, set[name].Value, set[name].Unit)
		}
	}
}
