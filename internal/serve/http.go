// The job HTTP surface, mounted on the ops server's mux:
//
//	POST /jobs            submit a MiniC source body (or ?lib=name for a
//	                      registered library); query params seed, runs,
//	                      depth, random, fn_timeout.  202 + job id on
//	                      admission, 200 + id when served from the result
//	                      store (looked up before the compile, so a stored
//	                      submission costs no front-end work), 400 on bad
//	                      input, 413 past the body cap, 429 + Retry-After
//	                      when the queue is full, 503 + Retry-After while
//	                      draining.
//	GET  /jobs            list live job records (admission order)
//	GET  /jobs/{id}       one job's envelope: state, timing, stop reason,
//	                      cached marker, and — when done — the job's cost
//	                      profile, its resolved coverage explanation and,
//	                      as the last field, the report: the stored bytes
//	                      verbatim, never re-encoded, so every client
//	                      receives the content-addressed bytes themselves.
//	                      ?wait=SECONDS long-polls
//	                      until completion (or the timeout, returning the
//	                      current envelope either way); with
//	                      Accept: text/event-stream the handler streams
//	                      SSE instead: an immediate "state" event, then a
//	                      "done" event carrying the completed envelope,
//	                      with a keep-alive comment frame every
//	                      Config.Heartbeat of idleness in between.
//	                      Blocking waiters are bounded by Config.MaxWaiters;
//	                      past the cap a wait request gets 429 + Retry-After.
//
// Backpressure is honest and layered: /readyz flips to 503 while the
// queue is saturated (the load balancer stops routing), a submission
// that still arrives gets 429 with Retry-After (the client backs off),
// and every rejection is counted in /metrics (dart_jobs_rejected_total)
// and announced on /events.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dart/internal/obs"
	"dart/internal/ops"
)

// retryAfterSeconds is the Retry-After hint on 429/503 responses: the
// queue turns over in job units, so a short fixed hint beats a guess.
const retryAfterSeconds = "1"

// RegisterOn mounts the job endpoints, the readiness probe, and the
// service gauges on an ops server.  Call before ops.Server.Handler()
// or Start.
func (s *Service) RegisterOn(srv *ops.Server) {
	srv.Attach("/jobs", http.HandlerFunc(s.handleJobs))
	srv.Attach("/jobs/", http.HandlerFunc(s.handleJob))
	srv.SetReady(s.Ready)
	srv.SetGauges(s.Gauges)
	s.profileSink = srv.ReportProfile
}

// handleJobs serves POST /jobs (submit) and GET /jobs (list).
func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		s.handleList(w)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// submitResp is the POST /jobs response document.
type submitResp struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	// QueueDepth is the backlog length right after this admission.
	QueueDepth int `json:"queue_depth"`
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The body cap is enforced while reading: a client streaming an
	// oversized submission is cut off at MaxBody+1 bytes, 413.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.reject("too-large")
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBody), http.StatusRequestEntityTooLarge)
			return
		}
		s.reject("bad-request")
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}

	sub := Submission{Source: string(body), Lib: r.URL.Query().Get("lib")}
	q := r.URL.Query()
	bad := func(param string, err error) {
		s.reject("bad-request")
		http.Error(w, fmt.Sprintf("bad %s: %v", param, err), http.StatusBadRequest)
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			bad("seed", err)
			return
		}
		sub.Seed = n
	}
	if v := q.Get("runs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			bad("runs", err)
			return
		}
		sub.Runs = n
	}
	if v := q.Get("depth"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			bad("depth", err)
			return
		}
		sub.Depth = n
	}
	if v := q.Get("random"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			bad("random", err)
			return
		}
		sub.Random = b
	}
	if v := q.Get("fn_timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			bad("fn_timeout", fmt.Errorf("want a positive Go duration: %q", v))
			return
		}
		sub.FnTimeout = d
	}

	j, err := s.Submit(sub)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds)
		http.Error(w, "job queue full; retry later", http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", retryAfterSeconds)
		http.Error(w, "service draining; retry against another instance", http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	resp := submitResp{ID: j.ID, State: string(j.State()), Cached: j.cachedNow(), QueueDepth: s.queueDepth()}
	code := http.StatusAccepted
	if resp.Cached {
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

// jobEnvelope is the GET /jobs/{id} document: the job's lifecycle
// record around the (deterministic) report.  Timing lives here, never
// inside the report — the report must stay byte-identical across
// identical submissions.
type jobEnvelope struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	// CacheSource says where a cached report came from: "store" (the
	// in-memory LRU) or "corpus-disk" (the spill, surviving a restart).
	CacheSource string `json:"cache_source,omitempty"`
	// CorpusHits counts the functions this job answered from the
	// incremental corpus (distilled-suite replay instead of search).
	// Envelope-only, like all cache provenance: the report itself must
	// stay byte-identical whether or not a corpus was attached.
	CorpusHits     int     `json:"corpus_hits,omitempty"`
	StopReason     string  `json:"stop_reason,omitempty"`
	Error          string  `json:"error,omitempty"`
	Retries        int     `json:"retries,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Profile is the job's search-cost profile (phase wall breakdown,
	// per-site solver attribution, queue wait).  Envelope-only: it
	// carries wall-clock, so it can never live inside the cacheable
	// report, and cache-served jobs have none.
	Profile *obs.ProfileSnapshot `json:"profile,omitempty"`
	// Explain is the job's resolved coverage explanation: every branch
	// direction of the submitted program covered or carrying exactly one
	// "why not" reason.  Envelope-only like Profile; cache-served jobs
	// have none.
	Explain *obs.ExplainReport `json:"explain,omitempty"`
	// Report is the stored report, last on the wire as in the struct:
	// renderEnvelope appends these bytes verbatim after the fields above.
	Report json.RawMessage `json:"report,omitempty"`
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	j, ok := s.Job(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown job %q (completed jobs are retained up to the history cap)", id), http.StatusNotFound)
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJob(w, r, j)
		return
	}
	if v := r.URL.Query().Get("wait"); v != "" {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil || secs < 0 {
			http.Error(w, fmt.Sprintf("bad wait: want non-negative seconds, got %q", v), http.StatusBadRequest)
			return
		}
		if !s.waitJob(w, r, j, secs) {
			return
		}
	}
	writeEnvelope(w, j)
}

// waitJob blocks until the job completes, the wait window expires, or
// the client goes away — the long-poll half of job-completion
// streaming.  It reports whether a response should still be written
// (false only when a 429 was already sent or the client disconnected).
func (s *Service) waitJob(w http.ResponseWriter, r *http.Request, j *Job, secs float64) bool {
	select {
	case <-j.Done():
		return true // already complete: no waiter slot needed
	default:
	}
	if !s.acquireWaiter() {
		w.Header().Set("Retry-After", retryAfterSeconds)
		http.Error(w, "too many completion waiters; poll without wait or retry later", http.StatusTooManyRequests)
		return false
	}
	defer s.releaseWaiter()
	timer := time.NewTimer(time.Duration(secs * float64(time.Second)))
	defer timer.Stop()
	select {
	case <-j.Done():
	case <-timer.C:
		// Timeout is not an error: the current (still-running) envelope
		// is the honest long-poll answer.
	case <-r.Context().Done():
		return false
	}
	return true
}

// streamJob serves GET /jobs/{id} as a Server-Sent-Events stream: an
// immediate "state" event with the current envelope, then a terminal
// "done" event with the completed one.  Like long-polls, open streams
// occupy a bounded waiter slot.
func (s *Service) streamJob(w http.ResponseWriter, r *http.Request, j *Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	done := false
	select {
	case <-j.Done():
		done = true
	default:
		if !s.acquireWaiter() {
			w.Header().Set("Retry-After", retryAfterSeconds)
			http.Error(w, "too many completion waiters; poll without wait or retry later", http.StatusTooManyRequests)
			return
		}
		defer s.releaseWaiter()
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeSSE(w, "state", j)
	flusher.Flush()
	if !done {
		// While the stream waits on completion, a keep-alive comment
		// frame goes out after every Heartbeat of idleness so proxies
		// and slow consumers do not reap a healthy stream.
		var beat <-chan time.Time
		if s.cfg.Heartbeat > 0 {
			t := time.NewTicker(s.cfg.Heartbeat)
			defer t.Stop()
			beat = t.C
		}
	wait:
		for {
			select {
			case <-j.Done():
				break wait
			case <-beat:
				fmt.Fprint(w, ": keep-alive\n\n")
				flusher.Flush()
			case <-r.Context().Done():
				return
			}
		}
	}
	writeSSE(w, "done", j)
	flusher.Flush()
}

// writeEnvelope answers a plain or long-poll GET /jobs/{id} with the
// job's indented envelope.
func writeEnvelope(w http.ResponseWriter, j *Job) {
	parts, err := j.renderEnvelope(true)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		w.Write(p)
	}
}

// writeSSE emits one SSE event whose data is the job's compact
// envelope.  The data stays on one line: the envelope is compact, and
// the store admits only reports without line breaks (validReport).
func writeSSE(w io.Writer, event string, j *Job) {
	parts, err := j.renderEnvelope(false)
	if err != nil {
		parts = [][]byte{fmt.Appendf(nil, `{"error":%q}`, err.Error())}
	}
	fmt.Fprintf(w, "event: %s\ndata: ", event)
	for _, p := range parts {
		w.Write(p)
	}
	io.WriteString(w, "\n\n")
}

// renderEnvelope renders the job's envelope as the byte slices whose
// concatenation is the document: the envelope's own fields, indented
// for a plain GET or compact for an SSE frame, then — once the job is
// done — "report" as the last field, carrying the stored bytes
// verbatim.  Nothing re-compacts or re-indents a report, and the parts
// share the stored slice instead of copying it, so every client
// receives the content-addressed bytes themselves.
func (j *Job) renderEnvelope(indent bool) ([][]byte, error) {
	env := j.envelope()
	report := env.Report
	env.Report = nil
	var head []byte
	var err error
	if indent {
		head, err = json.MarshalIndent(env, "", "  ")
	} else {
		head, err = json.Marshal(env)
	}
	if err != nil {
		return nil, fmt.Errorf("rendering job %s: %w", j.ID, err)
	}
	switch {
	case len(report) == 0 && indent:
		return [][]byte{head, []byte("\n")}, nil
	case len(report) == 0:
		return [][]byte{head}, nil
	case indent:
		// Reopen the object: drop its closing "\n}".
		head = append(head[:len(head)-2], ",\n  \"report\": "...)
		return [][]byte{head, report, []byte("\n}\n")}, nil
	default:
		head = append(head[:len(head)-1], `,"report":`...)
		return [][]byte{head, report, []byte("}")}, nil
	}
}

// envelope snapshots the job under its lock.
func (j *Job) envelope() jobEnvelope {
	j.mu.Lock()
	defer j.mu.Unlock()
	env := jobEnvelope{
		ID:          j.ID,
		State:       string(j.state),
		Cached:      j.cached,
		CacheSource: j.cacheSrc,
		CorpusHits:  j.corpusHits,
		StopReason:  j.stopReason,
		Error:       j.errMsg,
		Retries:     j.retries,
		Report:      json.RawMessage(j.report),
		Profile:     j.profile,
		Explain:     j.explain,
	}
	switch j.state {
	case StateDone:
		env.ElapsedSeconds = j.finished.Sub(j.created).Seconds()
	default:
		env.ElapsedSeconds = time.Since(j.created).Seconds()
	}
	return env
}

// listResp is the GET /jobs document.
type listResp struct {
	Jobs       []jobSummary `json:"jobs"`
	QueueDepth int          `json:"queue_depth"`
	QueueCap   int          `json:"queue_capacity"`
}

type jobSummary struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

func (s *Service) handleList(w http.ResponseWriter) {
	resp := listResp{Jobs: []jobSummary{}, QueueDepth: s.queueDepth(), QueueCap: s.cfg.QueueDepth}
	for _, j := range s.Jobs() {
		j.mu.Lock()
		resp.Jobs = append(resp.Jobs, jobSummary{ID: j.ID, State: string(j.state), Cached: j.cached})
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, resp)
}

// cachedNow reads the cached marker under the job lock.
func (j *Job) cachedNow() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// queueDepth is the live backlog length.
func (s *Service) queueDepth() int { return len(s.queue) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
