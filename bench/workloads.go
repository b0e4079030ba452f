package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dart"
	"dart/internal/minisip"
	"dart/internal/obs"
	"dart/internal/protocols"
)

// programCPUs is the GOMAXPROCS every dart process gets: all load comes
// from one process using at most two threads, whatever the host has, so
// results do not depend on the machine's core count.
const programCPUs = 2

// sipRuns is the paper's per-function run budget for the oSIP audit.
const sipRuns = 1000

// workloadDef names a workload; BENCHMARK.json and README.md say why
// the benchmark has it.
type workloadDef struct {
	name string
	make func(seed int64) workload
}

var workloads = []workloadDef{
	{"sip-cold", func(seed int64) workload { return newSIP(seed, false) }},
	{"sip-warm", func(seed int64) workload { return newSIP(seed, true) }},
	{"dy-sweep", func(seed int64) workload { return newDY(seed) }},
	{"jobs-fresh", func(seed int64) workload { return newJobs(seed, false) }},
	{"jobs-cached", func(seed int64) workload { return newJobs(seed, true) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// workload is one traffic shape against the dart binary.
type workload interface {
	// prepare writes the workload's inputs and computes its reference
	// answers, untimed: none of it is work the program under test does.
	prepare(r *runner) error
	// setUp readies the program for the timed phase, replacing any
	// earlier set-up; the runner calls it several times and times each.
	setUp(r *runner) error
	// pass runs operations for at least d and reports them; traced runs
	// ask the program for its cost profile.
	pass(r *runner, d time.Duration, traced bool, parent int) (*pass, error)
	// tearDown stops what set-up started and adds what only shows at
	// the end (the job server's peak RSS, deferred checks) to p.  The
	// runner also calls it, with an empty p, when a run fails.
	tearDown(r *runner, p *pass) error
	// sources are the MiniC sources the workload compiles; solveSet
	// names its captured solves.
	sources() []string
	solveSet() string
}

// pass is what one timed or traced phase measured.
type pass struct {
	wall      []timed // each operation
	busy      []timed // the measured time: the operations, or the closed loop's windows
	attempted int
	failed    int
	failures  []string // the first few failure descriptions
	runs      int64    // concolic executions the program performed
	rssMB     []float64
	prof      obs.ProfileSnapshot
	corpusHit int64
	// Summed over operations from the program's metrics registry.
	steps, restarts, mispredicts, steals int64
	detail                               metrics // numbers only this workload has
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// ---------------------------------------------------------------- dart CLI

// dartResult is one finished dart invocation.
type dartResult struct {
	out   []byte
	code  int
	wall  time.Duration
	rssMB float64
}

// runDart runs the built binary once and waits for it.  An error means
// the process could not be run at all; a nonzero exit is a result.
func (r *runner) runDart(args ...string) (dartResult, error) {
	cmd := exec.Command(r.dart, args...)
	cmd.Env = r.childEnv()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	res := dartResult{out: out.Bytes(), wall: time.Since(t0)}
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return res, fmt.Errorf("dart %v: %w", args, err)
	}
	res.code = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if res.code == 2 {
		return res, fmt.Errorf("dart %v: usage or compile error: %s", args, bytes.TrimSpace(errb.Bytes()))
	}
	return res, nil
}

func (r *runner) childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(programCPUs))
}

// cliReport is the union of dart's -audit -json and single-search -json
// shapes: the benchmark reads the fields its checks and metrics need.
type cliReport struct {
	auditJSON
	TotalRuns  int                  `json:"total_runs"`
	CorpusHits int                  `json:"corpus_hits"`
	Runs       int                  `json:"runs"`
	Complete   bool                 `json:"complete"`
	StopReason string               `json:"stop_reason"`
	Bugs       []json.RawMessage    `json:"bugs"`
	Metrics    *obs.Snapshot        `json:"metrics"`
	Profile    *obs.ProfileSnapshot `json:"profile"`
}

// auditJSON is the part of an audit document (dart -audit -json, or a
// job report) the verdict plane is read from.
type auditJSON struct {
	Covered int `json:"branch_directions_covered"`
	Total   int `json:"branch_directions_total"`
	Entries []struct {
		Function string  `json:"function"`
		Status   string  `json:"status"`
		Elapsed  float64 `json:"elapsed_seconds"` // dart -audit only; job reports have no timing
		Bugs     []struct {
			Kind string `json:"kind"`
		} `json:"bugs"`
	} `json:"entries"`
}

// plane is an audit's verdict: each function's status and bug kinds,
// plus aggregate branch coverage.  Run counts and bug inputs are left
// out; the plane is what must not depend on the engine or the corpus.
type plane struct {
	Covered, Total int
	Fns            []planeRow // sorted by function
}

type planeRow struct{ Fn, Status, Kinds string }

func (a *auditJSON) plane() plane {
	p := plane{Covered: a.Covered, Total: a.Total}
	for _, e := range a.Entries {
		var kinds []string
		for _, b := range e.Bugs {
			kinds = append(kinds, b.Kind)
		}
		p.add(e.Function, e.Status, kinds)
	}
	p.sort()
	return p
}

func (p *plane) add(fn, status string, kinds []string) {
	sort.Strings(kinds)
	p.Fns = append(p.Fns, planeRow{fn, status, strings.Join(kinds, ",")})
}

func (p *plane) sort() { sort.Slice(p.Fns, func(i, j int) bool { return p.Fns[i].Fn < p.Fns[j].Fn }) }

func (p plane) equal(o plane) bool {
	if p.Covered != o.Covered || p.Total != o.Total || len(p.Fns) != len(o.Fns) {
		return false
	}
	for i := range p.Fns {
		if p.Fns[i] != o.Fns[i] {
			return false
		}
	}
	return true
}

// exitCode is the status dart -audit exits with for this verdict: 1 when
// any function has bugs or faulted.
func (p plane) exitCode() int {
	for _, f := range p.Fns {
		if f.Status != string(dart.AuditOK) {
			return 1
		}
	}
	return 0
}

// referencePlane audits src in-process on the reference interpreter,
// an answer that does not come from the compiled engine under test.
func referencePlane(src string, seed int64, runs, jobs int) (plane, error) {
	prog, err := dart.Compile(src)
	if err != nil {
		return plane{}, err
	}
	res := dart.Audit(prog, dart.AuditOptions{Seed: seed, MaxRuns: runs, Jobs: jobs, Interpreter: true})
	p := plane{Covered: res.Coverage.Covered(), Total: res.Coverage.Total()}
	for _, e := range res.Entries {
		var kinds []string
		if e.Report != nil {
			for _, b := range e.Report.Bugs {
				kinds = append(kinds, b.Kind.String())
			}
		}
		p.add(e.Function, string(e.Status), kinds)
	}
	p.sort()
	return p, nil
}

// cliWorkload is a workload of sequential dart invocations.
type cliWorkload struct {
	src  string
	set  string
	name string // the source's file name under the work directory
	file string
	// reference computes the answers the checks compare with; warm is
	// the timed set-up; args readies and builds the command line of the
	// next operation; check validates one report and returns the
	// executions it performed.
	reference func() error
	warm      func(r *runner) error
	args      func() ([]string, error)
	check     func(rep *cliReport, code int) (int64, error)
}

func (w *cliWorkload) sources() []string { return []string{w.src} }
func (w *cliWorkload) solveSet() string  { return w.set }

func (w *cliWorkload) prepare(r *runner) error {
	w.file = filepath.Join(r.work, w.name)
	if err := os.WriteFile(w.file, []byte(w.src), 0o644); err != nil {
		return err
	}
	return w.reference()
}

func (w *cliWorkload) setUp(r *runner) error { return w.warm(r) }

func (w *cliWorkload) tearDown(*runner, *pass) error { return nil }

func (w *cliWorkload) pass(r *runner, d time.Duration, traced bool, parent int) (*pass, error) {
	p := &pass{detail: metrics{}}
	var fnMax, fnSum []float64
	var busy time.Duration
	for i := 0; i == 0 || busy < d; i++ {
		if r.clock.due() {
			r.clock.tick()
		} else {
			settle()
		}
		at := r.clock.at()
		args, err := w.args()
		if err != nil {
			return nil, err
		}
		if traced {
			args = append([]string{"-profile"}, args...)
		}
		id := r.tr.begin(parent, "dart")
		res, err := r.runDart(args...)
		r.tr.end(id)
		if err != nil {
			return nil, err
		}
		p.attempted++
		busy += res.wall
		op := timed{ms(res.wall), at}
		p.wall, p.busy = append(p.wall, op), append(p.busy, op)
		p.rssMB = append(p.rssMB, res.rssMB)
		var rep cliReport
		if err := json.Unmarshal(res.out, &rep); err != nil {
			p.fail("op %d: report: %v", i, err)
			continue
		}
		runs, err := w.check(&rep, res.code)
		if err != nil {
			p.fail("op %d: %v", i, err)
			continue
		}
		p.runs += runs
		p.corpusHit += int64(rep.CorpusHits)
		if rep.Profile != nil {
			p.prof.Merge(rep.Profile)
		}
		if m := rep.Metrics; m != nil {
			p.steps += m.Histograms[obs.HStepsPerRun].Sum
			p.restarts += m.Counters[obs.CRestarts]
			p.mispredicts += m.Counters[obs.CMispredicts]
			p.steals += m.Counters[obs.CSteals]
		}
		if len(rep.Entries) > 0 {
			var slowest, sum float64
			for _, e := range rep.Entries {
				slowest = math.Max(slowest, e.Elapsed*1e3)
				sum += e.Elapsed * 1e3
			}
			fnMax, fnSum = append(fnMax, slowest), append(fnSum, sum)
		}
	}
	if len(fnMax) > 0 {
		// The slowest function bounds an audit batch's wall time.
		p.detail["audit.fn_ms_max"] = value{median(fnMax), "ms"}
		p.detail["audit.fn_ms_sum"] = value{median(fnSum), "ms"}
	}
	return p, nil
}

func minisipSource() string { return minisip.SourceText() }

// newSIP is the minisip audit, cold (a fresh corpus per operation) or
// warm (the corpus set-up populated).
func newSIP(seed int64, warm bool) workload {
	w := &cliWorkload{src: minisipSource(), set: "minisip", name: "minisip.mc"}
	var ref plane
	var corpusDir, coldDir string
	audit := func(dir string) []string {
		return []string{"-audit", "-json", "-runs", strconv.Itoa(sipRuns), "-jobs", strconv.Itoa(programCPUs),
			"-seed", strconv.FormatInt(seed, 10), "-corpus", dir, w.file}
	}
	w.reference = func() (err error) {
		ref, err = referencePlane(w.src, seed, sipRuns, programCPUs)
		return err
	}
	w.warm = func(r *runner) error {
		// One cold audit into a fresh corpus: a warm-up for sip-cold, the
		// corpus every operation reads for sip-warm.
		corpusDir, coldDir = filepath.Join(r.work, "corpus"), filepath.Join(r.work, "cold")
		if err := os.RemoveAll(corpusDir); err != nil {
			return err
		}
		res, err := r.runDart(audit(corpusDir)...)
		if err != nil {
			return err
		}
		var rep cliReport
		if err := json.Unmarshal(res.out, &rep); err != nil {
			return fmt.Errorf("set-up audit: %w", err)
		}
		if !rep.plane().equal(ref) {
			return fmt.Errorf("set-up audit: verdict plane differs from the reference interpreter's")
		}
		return nil
	}
	w.args = func() ([]string, error) {
		if warm {
			return audit(corpusDir), nil
		}
		return audit(coldDir), os.RemoveAll(coldDir)
	}
	w.check = func(rep *cliReport, code int) (int64, error) {
		if want := ref.exitCode(); code != want {
			return 0, fmt.Errorf("exit code %d, want %d", code, want)
		}
		if !rep.plane().equal(ref) {
			return 0, fmt.Errorf("verdict plane differs from the reference interpreter's")
		}
		if !warm {
			return int64(rep.TotalRuns), nil
		}
		if rep.CorpusHits != len(ref.Fns) {
			return 0, fmt.Errorf("corpus_hits = %d, want %d", rep.CorpusHits, len(ref.Fns))
		}
		if rep.Metrics == nil {
			return 0, fmt.Errorf("warm report has no metrics")
		}
		return rep.Metrics.Counters[obs.CCorpusReplays], nil
	}
	return w
}

// newDY is the Dolev–Yao depth-3 sweep of Fig. 10 row 3.  Its known
// answer: no bug, and the search exhausts the tree and says so.
func newDY(seed int64) workload {
	w := &cliWorkload{src: protocols.Source(protocols.DolevYao, protocols.NoFix), set: "dolev-yao", name: "dolev-yao.mc"}
	sweep := func(depth int) []string {
		return []string{"-top", protocols.Toplevel, "-depth", strconv.Itoa(depth), "-runs", "300000",
			"-workers", strconv.Itoa(programCPUs), "-seed", strconv.FormatInt(seed, 10), "-json", w.file}
	}
	w.reference = func() error { return nil } // the known answer needs no computing
	w.warm = func(r *runner) error {
		// The warm-up is a depth-2 sweep: it pages the binary in without
		// spending a full depth-3 sweep on set-up.
		res, err := r.runDart(sweep(2)...)
		if err != nil {
			return err
		}
		if res.code != 0 {
			return fmt.Errorf("warm-up sweep exited %d", res.code)
		}
		return nil
	}
	w.args = func() ([]string, error) { return sweep(3), nil }
	w.check = func(rep *cliReport, code int) (int64, error) {
		switch {
		case code != 0 || len(rep.Bugs) != 0:
			return 0, fmt.Errorf("exit %d with %d bugs; depth 3 has none", code, len(rep.Bugs))
		case rep.StopReason != "exhausted" || !rep.Complete:
			return 0, fmt.Errorf("stop_reason=%q complete=%v, want exhausted and complete", rep.StopReason, rep.Complete)
		}
		return int64(rep.Runs), nil
	}
	return w
}
