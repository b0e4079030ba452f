package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dart/internal/obs"
	"dart/internal/progs"
)

// The jobs workloads: dart -serve driven as a closed loop by two
// keep-alive clients, each sending POST /jobs and then long-polling
// GET /jobs/{id}?wait=30 before taking the next job.  There is one
// workload per kind of submission, so no traffic mix is assumed: no job
// trace exists to take one from.  jobs-fresh submits only jobs the
// server has never seen; jobs-cached resubmits only minisip audits
// set-up stored.

const (
	jobClients   = programCPUs
	smallRuns    = 100
	maxSequence  = 1 << 17 // far more jobs than a run completes
	jobWaitParam = "30"
)

// smallPrograms are the paper's example programs (internal/progs), the
// fresh jobs' sources.
var smallPrograms = []string{
	progs.Section21, progs.Section24, progs.Section25Cast, progs.Foobar,
	progs.FoobarLib, progs.ACController, progs.ExternalEnv, progs.ListSum,
	progs.DivByZero, progs.NullChain, progs.StraightLineDeref, progs.Clusters,
	progs.SolverGate, progs.Filter,
}

// jobSpec is one submission.
type jobSpec struct {
	prog int   // index into smallPrograms; -1 for minisip
	seed int64 // the job's audit seed
}

// key identifies a submission: equal keys must get byte-equal reports.
func (s jobSpec) key() string { return fmt.Sprintf("%d/%d", s.prog, s.seed) }

// freshSequence generates n fresh submissions from seed: each a small
// program picked uniformly, under a seed no other job of the run uses.
// Seeds above 1e7·seed never repeat within a sequence; set-up's warm-up
// job takes 1e7·seed itself.
func freshSequence(seed int64, n int) []jobSpec {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]jobSpec, n)
	for i := range seq {
		seq[i] = jobSpec{prog: rng.Intn(len(smallPrograms)), seed: seed*10_000_000 + int64(i) + 1}
	}
	return seq
}

// storedAudits is how many minisip audits jobs-cached resubmits: those
// under seeds 1 to storedAudits, whatever the run's seed, which only
// orders them.  A stored report's size, and with it a cached job's cost,
// varies by a sixth from one audit seed to another and trends with the
// seed's value (the mean over seeds 24-47 is 99 KB, over 120-143 83 KB),
// so audits picked by the run's seed would make the runs' costs differ
// by their inputs alone.  Two, so that set-up runs them at once on the
// server's two executors.
const storedAudits = 2

// jobsWorkload owns the job server and the client side of the loop.
type jobsWorkload struct {
	seed   int64
	cached bool      // every job resubmits a stored minisip audit
	seq    []jobSpec // jobs-fresh: the fresh jobs, in order
	stored []jobSpec // jobs-cached: the audits set-up stores, in the order taken
	sipRef plane     // jobs-cached: the reference verdict of stored[0]
	next   atomic.Int64
	server *exec.Cmd
	done   chan error // the server's Wait result
	base   string     // http://host:port
	client *http.Client

	mu     sync.Mutex
	first  map[string][]byte // the first report of each submission key
	checks []jobSpec         // small-program submissions to check against the reference
}

func newJobs(seed int64, cached bool) workload {
	w := &jobsWorkload{
		seed:   seed,
		cached: cached,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: jobClients,
			MaxConnsPerHost:     jobClients,
		}},
		first: map[string][]byte{},
	}
	if cached {
		for _, i := range rand.New(rand.NewSource(seed)).Perm(storedAudits) {
			w.stored = append(w.stored, jobSpec{prog: -1, seed: int64(i) + 1})
		}
	} else {
		w.seq = freshSequence(seed, maxSequence)
	}
	return w
}

func (w *jobsWorkload) sources() []string {
	if w.cached {
		return []string{minisipSource()}
	}
	return smallPrograms
}

func (w *jobsWorkload) solveSet() string { return "minisip" }

// spec returns the i-th job of the run, and false past the sequence.
func (w *jobsWorkload) spec(i int) (jobSpec, bool) {
	if w.cached {
		return w.stored[i%len(w.stored)], true
	}
	if i >= len(w.seq) {
		return jobSpec{}, false
	}
	return w.seq[i], true
}

// prepare computes the reference verdict of the first stored audit; the
// other stored audits are checked by their repeats, byte for byte, and
// fresh jobs after the timed phase.
func (w *jobsWorkload) prepare(*runner) (err error) {
	if w.cached {
		w.sipRef, err = referencePlane(minisipSource(), w.stored[0].seed, sipRuns, programCPUs)
	}
	return err
}

// setUp starts a fresh server and readies it: for jobs-cached it runs
// every stored audit, two at a time; for jobs-fresh one warm-up job
// under a seed no timed job uses.
func (w *jobsWorkload) setUp(r *runner) error {
	if err := w.stop(nil); err != nil {
		return err
	}
	if err := w.start(r); err != nil {
		return err
	}
	if !w.cached {
		if res := w.do(jobSpec{prog: 0, seed: w.seed * 10_000_000}, false, false); res.err != nil {
			return fmt.Errorf("set-up job: %v", res.err)
		}
		return nil
	}
	errs := make(chan error, jobClients)
	for c := 0; c < jobClients; c++ {
		go func(c int) {
			for i := c; i < len(w.stored); i += jobClients {
				if res := w.do(w.stored[i], false, false); res.err != nil {
					errs <- res.err
					return
				}
			}
			errs <- nil
		}(c)
	}
	var err error
	for c := 0; c < jobClients; c++ {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		return fmt.Errorf("storing the audits: %w", err)
	}
	var rep auditJSON
	if err := json.Unmarshal(w.first[w.stored[0].key()], &rep); err != nil {
		return fmt.Errorf("stored audit report: %w", err)
	}
	if !rep.plane().equal(w.sipRef) {
		return fmt.Errorf("stored audit: verdict plane differs from the reference interpreter's")
	}
	return nil
}

// start starts a job server and waits for its address.
func (w *jobsWorkload) start(r *runner) error {
	cmd := exec.Command(r.dart, "-serve", "127.0.0.1:0", "-executors", strconv.Itoa(programCPUs))
	cmd.Env = r.childEnv()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start job server: %w", err)
	}
	w.server, w.done = cmd, make(chan error, 1)
	stderr := bufio.NewReader(pipe)
	line, err := stderr.ReadString('\n')
	const announce = "dart: serving ops on "
	if err != nil || !strings.HasPrefix(line, announce) {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		w.server = nil
		return fmt.Errorf("job server did not announce its address (%q, %v)", line, err)
	}
	w.base = strings.TrimSpace(strings.TrimPrefix(line, announce))
	// Keep draining stderr so the server never blocks on a full pipe;
	// Wait closes the pipe, which ends the copy.
	go func() {
		_, _ = io.Copy(io.Discard, stderr)
		w.done <- cmd.Wait()
	}()
	return nil
}

// stop sends SIGTERM to the running server, if any, waits for the
// drain, and records the server's peak RSS in p when p is non-nil.
func (w *jobsWorkload) stop(p *pass) error {
	cmd := w.server
	if cmd == nil {
		return nil
	}
	w.server = nil
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := <-w.done; err != nil {
		return fmt.Errorf("job server exit: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && p != nil {
		p.rssMB = append(p.rssMB, float64(ru.Maxrss)/1024)
	}
	return nil
}

// tearDown stops the server and checks every fresh job's verdict plane
// against the reference interpreter, on programCPUs goroutines.
func (w *jobsWorkload) tearDown(_ *runner, p *pass) error {
	if err := w.stop(p); err != nil {
		return err
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := atomic.Int64{}
	for g := 0; g < programCPUs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.checks) {
					return
				}
				s := w.checks[i]
				msg, err := w.checkFresh(s)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if msg != "" {
					p.fail("job %s: %s", s.key(), msg)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// checkFresh compares a fresh job's first report with the reference
// interpreter's verdict; it returns what is wrong with it, if anything.
func (w *jobsWorkload) checkFresh(s jobSpec) (string, error) {
	ref, err := referencePlane(smallPrograms[s.prog], s.seed, smallRuns, 1)
	if err != nil {
		return "", err
	}
	var rep auditJSON
	if err := json.Unmarshal(w.first[s.key()], &rep); err != nil {
		return fmt.Sprintf("report: %v", err), nil
	}
	if !rep.plane().equal(ref) {
		return "verdict plane differs from the reference interpreter's", nil
	}
	return "", nil
}

// jobResult is one job as the client saw it.
type jobResult struct {
	spec     jobSpec
	post     time.Duration // POST /jobs round trip
	total    time.Duration // POST to report
	runs     int64
	queue    float64 // ms from admission to an executor (traced, fresh)
	elapsed  float64 // the envelope's elapsed_seconds, in ms
	rejected bool
	prof     *obs.ProfileSnapshot
	err      error
	at       int // the host clock's position during the job's window
}

// envelope is the GET /jobs/{id} document.
type envelope struct {
	ID             string               `json:"id"`
	State          string               `json:"state"`
	Cached         bool                 `json:"cached"`
	StopReason     string               `json:"stop_reason"`
	Error          string               `json:"error"`
	ElapsedSeconds float64              `json:"elapsed_seconds"`
	Report         json.RawMessage      `json:"report"`
	Profile        *obs.ProfileSnapshot `json:"profile"`
}

// do submits one job and waits for its report, which must come from the
// result store exactly when wantCached.
func (w *jobsWorkload) do(s jobSpec, traced, wantCached bool) jobResult {
	res := jobResult{spec: s}
	q := fmt.Sprintf("/jobs?seed=%d&runs=%d", s.seed, smallRuns)
	var body []byte
	if s.prog < 0 {
		q = fmt.Sprintf("/jobs?lib=minisip&seed=%d&runs=%d", s.seed, sipRuns)
	} else {
		body = []byte(smallPrograms[s.prog])
	}
	t0 := time.Now()
	resp, err := w.client.Post(w.base+q, "text/plain", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = decodeBody(resp, &sub)
	res.post = time.Since(t0)
	if err != nil {
		res.rejected = resp.StatusCode == http.StatusTooManyRequests
		res.err = fmt.Errorf("POST %s: %v", q, err)
		return res
	}
	resp, err = w.client.Get(w.base + "/jobs/" + sub.ID + "?wait=" + jobWaitParam)
	if err != nil {
		res.err = err
		return res
	}
	var env envelope
	err = decodeBody(resp, &env)
	res.total = time.Since(t0)
	switch {
	case err != nil:
		res.err = fmt.Errorf("GET job %s: %v", sub.ID, err)
		return res
	case env.State != "done" || env.StopReason != "" || env.Error != "":
		res.err = fmt.Errorf("job %s: state=%s stop=%q error=%q", sub.ID, env.State, env.StopReason, env.Error)
		return res
	case env.Cached != wantCached:
		res.err = fmt.Errorf("job %s (%s): cached=%v, want %v", sub.ID, s.key(), env.Cached, wantCached)
		return res
	}
	res.elapsed = env.ElapsedSeconds * 1e3
	if !env.Cached {
		var rep struct {
			TotalRuns int64 `json:"total_runs"`
		}
		if err := json.Unmarshal(env.Report, &rep); err != nil {
			res.err = err
			return res
		}
		res.runs = rep.TotalRuns
	}
	if traced && env.Profile != nil {
		res.prof = env.Profile
		for _, ph := range env.Profile.Phases {
			if ph.Phase == obs.SpanJobQueueWait {
				res.queue = float64(ph.Nanos) / 1e6
			}
		}
	}
	res.err = w.record(s, env.Report)
	return res
}

// record keeps the first report of each submission and checks later
// ones against it byte for byte.
func (w *jobsWorkload) record(s jobSpec, report []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	first, seen := w.first[s.key()]
	if !seen {
		w.first[s.key()] = report
		if s.prog >= 0 {
			w.checks = append(w.checks, s)
		}
		return nil
	}
	if !bytes.Equal(first, report) {
		return fmt.Errorf("job %s: report differs from the first report of the same submission", s.key())
	}
	return nil
}

// decodeBody reads a 2xx JSON response into v; any other status is an
// error carrying the body.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// pass runs the closed loop for d, in windows of calEvery with the host
// clock sampled between them: in a window each client takes the next
// job until the window has passed.
func (w *jobsWorkload) pass(r *runner, d time.Duration, traced bool, parent int) (*pass, error) {
	results := make([][]jobResult, jobClients)
	p := &pass{detail: metrics{}}
	var busy time.Duration
	for busy < d {
		r.clock.tick()
		at := r.clock.at()
		t0 := time.Now()
		deadline := t0.Add(min(calEvery, d-busy))
		var wg sync.WaitGroup
		for c := 0; c < jobClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					s, ok := w.spec(int(w.next.Add(1) - 1))
					if !ok {
						return
					}
					id := r.tr.begin(parent, "job")
					res := w.do(s, traced, w.cached)
					res.at = at
					results[c] = append(results[c], res)
					r.tr.end(id)
				}
			}(c)
		}
		wg.Wait()
		window := time.Since(t0)
		busy += window
		p.busy = append(p.busy, timed{ms(window), at})
	}
	var post, queue, elapsed []float64
	rejected := 0
	for _, rs := range results {
		for _, res := range rs {
			p.attempted++
			if res.rejected {
				rejected++
			}
			if res.err != nil {
				p.fail("%v", res.err)
				continue
			}
			p.wall = append(p.wall, timed{ms(res.total), res.at})
			p.runs += res.runs
			post = append(post, ms(res.post))
			elapsed = append(elapsed, res.elapsed)
			if res.prof != nil {
				p.prof.Merge(res.prof)
				queue = append(queue, res.queue)
			}
		}
	}
	p.detail["serve.post_ms_p50"] = value{median(post), "ms"}
	p.detail["serve.rejected"] = value{float64(rejected), "count"}
	p.detail["serve.job_elapsed_ms_p50"] = value{median(elapsed), "ms"}
	if traced {
		p.detail["serve.queue_wait_ms_p50"] = value{median(queue), "ms"}
	}
	return p, nil
}
