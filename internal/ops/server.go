// Package ops is the live operations surface: an HTTP server exposing
// a running search — or a whole parallel library audit — to the outside
// world while it executes.  DART's pitch is coverage, and its
// industrial descendants treat structural-coverage reporting and live
// dashboards as the product surface; ops is that layer for this repo.
//
// Endpoints:
//
//	/healthz        liveness probe (the process is up; always 200)
//	/readyz         readiness probe: 503 while the service cannot take
//	                more work (job queue saturated, drain in progress),
//	                so a load balancer stops routing before clients see
//	                429s; without a readiness hook it mirrors /healthz
//	/metrics        Prometheus text exposition of the cumulative search
//	                metrics (the obs event→metrics bridge, merged across
//	                all audit workers) plus server gauges
//	/status         JSON: per-function audit state, runs, bugs,
//	                restarts, elapsed, plus batch totals and coverage
//	/events         NDJSON stream of trace events from a bounded
//	                ring of event values (add ?follow=1 to tail live;
//	                slow readers drop events, never block the engine)
//	/coverage       annotated source branch-coverage report
//	                (?format=html for the HTML page)
//	/explain        resolved coverage explanation: every branch direction
//	                of the program covered or carrying exactly one "why
//	                not" reason, grouped per function (?format=annot for
//	                the source-annotated text view)
//	/profile        JSON search-cost profile: per-phase wall breakdown
//	                and per-branch-site solver time/work from reported
//	                snapshots, plus live event-derived site attribution
//	                (?format=flame for a solver-work-weighted text
//	                flamegraph of the execution tree)
//	/debug/pprof/   net/http/pprof; audit workers are tagged with a
//	                dart_fn profile label per function under test
//
// The server is fed exclusively through its Sink() — the same obs event
// stream every other observer consumes — plus ReportCoverage calls as
// per-function reports complete, so attaching it costs the engine one
// extra sink in a Tee and nothing else.  With no server configured the
// engine's observer stays nil and the whole layer is never allocated.
package ops

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"dart/internal/coverage"
	"dart/internal/obs"
)

// Config describes the program under test to the server.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Mode labels the run ("directed", "random", "audit").
	Mode string
	// Source is the program text /coverage annotates.
	Source string
	// Sites is the branch-site index of the compiled program.
	Sites []coverage.SiteInfo
	// NumSites is the program's total conditional branch-site count.
	NumSites int
	// Functions are the functions under test, in audit order.
	Functions []string
	// RingSize bounds the /events buffer (default 4096 events).
	RingSize int
	// Heartbeat is the keep-alive interval for /events?follow=1
	// (default 15s; negative disables): after every interval of
	// idleness the stream carries an ops-heartbeat meta line, so
	// proxies and slow consumers do not reap a healthy tail.
	Heartbeat time.Duration
	// MaxHeaderBytes caps a request's header (default 64 KiB).
	MaxHeaderBytes int
}

// Hardened-listener settings: without the read deadlines one client
// trickling a request header pins a connection (and its goroutine)
// forever.  The write side stays unbounded because /events?follow=1 is
// a legitimate long-lived streaming response.
const (
	defaultReadHeaderTimeout = 5 * time.Second
	defaultReadTimeout       = 30 * time.Second
	defaultIdleTimeout       = 120 * time.Second
	defaultMaxHeaderBytes    = 64 << 10
	defaultHeartbeat         = 15 * time.Second
)

// liveTreeMaxNodes bounds the /profile flamegraph's execution-tree
// model — far below obs.DefaultMaxTreeNodes because it lives for the
// whole server lifetime and backs a capped rendering anyway.
const liveTreeMaxNodes = 1 << 16

// maxTrackedFns bounds the per-function status table.  A long-running
// job service sees an unbounded stream of submitted programs; /status
// keeps the first maxTrackedFns distinct function names and drops the
// rest rather than growing without limit.
const maxTrackedFns = 4096

// fnState is the live audit state of one function.
type fnState struct {
	status   string
	runs     int
	bugs     int
	restarts int
	started  time.Time
	elapsed  time.Duration // frozen at audit-fn-end
	ended    bool
}

// Server is the live ops surface.  All of its state is fed from the
// event sink and ReportCoverage; every handler reads under the same
// mutex, so it is safe to hammer while an audit runs.
type Server struct {
	cfg   Config
	start time.Time
	ring  *ring
	// tree folds the event stream into a work-weighted execution tree
	// for /profile's flamegraph, under the lock it has as the public
	// dart.PathTree (capped well below the offline default: it backs a
	// live flamegraph, not an exhaustive dump).
	tree *obs.Tree

	mu sync.Mutex
	// metrics (behind /metrics), liveProf (the live half of /profile)
	// and the status table (fns, order) fold each event in one critical
	// section under mu.
	metrics  *obs.Metrics
	liveProf *obs.LiveProfile
	fns      map[string]*fnState
	order    []string
	cov      *coverage.Set
	done     bool
	// prof merges the engine-side profile snapshots handed to
	// ReportProfile — the timing-bearing half of /profile.
	prof *obs.ProfileSnapshot
	// exp merges the engine-side explainer ledgers handed to
	// ReportExplain; /explain resolves the merged ledger against the
	// merged coverage and the configured site universe on demand.
	exp *obs.ExplainSnapshot

	// ready is the readiness hook (nil = always ready); extra provides
	// additional /metrics gauges; attached are extra endpoint handlers
	// (the serve layer's /jobs surface).  All are set before Handler()/
	// Start and read-only afterwards.
	ready    func() (bool, string)
	extra    func() map[string]float64
	attached map[string]http.Handler

	ln  net.Listener
	srv *http.Server
}

// NewServer builds a server without binding a socket; use Handler()
// with httptest or wire it into an existing mux.  Start is the
// listening variant.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		ring:     newRing(cfg.RingSize),
		tree:     obs.NewTree(liveTreeMaxNodes),
		metrics:  obs.NewMetrics(),
		liveProf: obs.NewLiveProfile(),
		fns:      map[string]*fnState{},
		cov:      coverage.New(cfg.NumSites),
	}
	for _, fn := range cfg.Functions {
		s.fns[fn] = &fnState{status: "pending"}
		s.order = append(s.order, fn)
	}
	return s
}

// Start builds the server and begins serving on cfg.Addr.
func Start(cfg Config) (*Server, error) {
	s := NewServer(cfg)
	if err := s.Listen(); err != nil {
		return nil, err
	}
	return s, nil
}

// Listen binds cfg.Addr and begins serving.  Use it after NewServer
// when endpoints, readiness, or gauges must be attached first (the job
// service does); Start is the one-call variant.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("ops: %w", err)
	}
	s.ln = ln
	s.srv = s.httpServer()
	go s.srv.Serve(ln)
	return nil
}

// httpServer builds the hardened http.Server around Handler(): header
// and request-read deadlines plus a header size cap, so one slow or
// abusive client can never pin a connection forever.  WriteTimeout is
// deliberately zero — /events?follow=1 streams until the client leaves.
func (s *Server) httpServer() *http.Server {
	maxHeader := s.cfg.MaxHeaderBytes
	if maxHeader <= 0 {
		maxHeader = defaultMaxHeaderBytes
	}
	return &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: defaultReadHeaderTimeout,
		ReadTimeout:       defaultReadTimeout,
		IdleTimeout:       defaultIdleTimeout,
		MaxHeaderBytes:    maxHeader,
	}
}

// SetReady installs the readiness hook behind /readyz: fn reports
// whether the service can take more work and, when it cannot, why.
// Install before Start/Handler.
func (s *Server) SetReady(fn func() (bool, string)) { s.ready = fn }

// SetGauges installs a provider of additional /metrics gauges (queue
// depth, running executors, store occupancy).  Install before
// Start/Handler.
func (s *Server) SetGauges(fn func() map[string]float64) { s.extra = fn }

// Attach registers an extra handler on the ops mux (the serve layer's
// /jobs surface).  Attach before Start/Handler; attaching a pattern the
// ops surface already owns panics at mux-build time, loudly, instead of
// silently shadowing an endpoint.
func (s *Server) Attach(pattern string, h http.Handler) {
	if s.attached == nil {
		s.attached = map[string]http.Handler{}
	}
	s.attached[pattern] = h
}

// Addr returns the bound listen address (empty without Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and tears down in-flight streams.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Sink returns the observer feeding the server.  It never waits on a
// reader: the ring copies the event into a slot it may overwrite, the
// tree folds it under its own lock, and the metrics registry, the site
// table and the status table fold it in one critical section under
// s.mu.  Once the ring has filled a lap and the event's paths, sites
// and function have been seen, none of this allocates.
func (s *Server) Sink() obs.Sink {
	return obs.SinkFunc(func(ev obs.Event) {
		s.ring.publish(ev)
		s.tree.Fold(&ev)
		s.mu.Lock()
		s.metrics.Fold(&ev)
		s.liveProf.Fold(&ev)
		s.track(&ev)
		s.mu.Unlock()
	})
}

// track folds one event into the per-function status table; s.mu is
// held.
func (s *Server) track(ev *obs.Event) {
	if ev.Fn == "" {
		return
	}
	st, ok := s.fns[ev.Fn]
	if !ok {
		if len(s.fns) >= maxTrackedFns {
			// A long-running job service sees unboundedly many distinct
			// function names; /status tracks the first maxTrackedFns and
			// stays bounded rather than growing with traffic.
			return
		}
		st = &fnState{status: "pending"}
		s.fns[ev.Fn] = st
		s.order = append(s.order, ev.Fn)
	}
	switch ev.Kind {
	case obs.AuditFnStart:
		st.status = "running"
		st.started = time.Now()
		st.ended = false
	case obs.AuditFnEnd:
		st.status = ev.Status
		st.runs = ev.Runs
		st.bugs = ev.Bugs
		st.ended = true
		if !st.started.IsZero() {
			st.elapsed = time.Since(st.started)
		}
	case obs.RunEnd:
		if !st.ended {
			if st.status == "pending" {
				// A single search has no audit brackets; the first run
				// marks the function live.
				st.status = "running"
				st.started = time.Now()
			}
			st.runs++
		}
	case obs.BugFound:
		if !st.ended {
			st.bugs++
		}
	case obs.Restart:
		if !st.ended {
			st.restarts++
		}
	}
}

// ReportCoverage merges a finished search's coverage into the
// whole-batch set behind /coverage.  Safe from any audit worker.
func (s *Server) ReportCoverage(set *coverage.Set) {
	if set == nil {
		return
	}
	s.mu.Lock()
	s.cov.Merge(set)
	s.mu.Unlock()
}

// ReportProfile merges a finished search's cost profile into the
// timing-bearing half of /profile.  Safe from any audit worker; nil
// snapshots (profiling off) are ignored.
func (s *Server) ReportProfile(snap *obs.ProfileSnapshot) {
	if snap == nil {
		return
	}
	s.mu.Lock()
	if s.prof == nil {
		s.prof = &obs.ProfileSnapshot{}
	}
	s.prof.Merge(snap)
	s.mu.Unlock()
}

// ReportExplain merges a finished search's coverage-explainer ledger
// into the merged ledger behind /explain.  Safe from any audit worker;
// nil snapshots (explainer off) are ignored.
func (s *Server) ReportExplain(snap *obs.ExplainSnapshot) {
	if snap == nil {
		return
	}
	s.mu.Lock()
	if s.exp == nil {
		s.exp = &obs.ExplainSnapshot{}
	}
	s.exp.Merge(snap)
	s.mu.Unlock()
}

// Done marks the batch finished on /status.
func (s *Server) Done() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
}

// Handler returns the ops mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/coverage", s.handleCoverage)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range s.attached {
		mux.Handle(pattern, h)
	}
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: liveness says the process is up,
// readiness says it can take more work.  While the job queue is
// saturated or a drain is in progress it answers 503, so a load
// balancer stops routing new submissions before they would be refused
// with 429s.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.ready != nil {
		if ok, reason := s.ready(); !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, reason)
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	snap := s.metrics.Snapshot()
	// The ring's aggregate overwrite losses, always exposed (zero
	// included) so dart_events_dropped_total exists before the first
	// drop and alerting rules can rely on it.
	snap.Counters["events_dropped"] = int64(s.ring.droppedTotal())
	doneCount := 0
	for _, st := range s.fns {
		if st.ended {
			doneCount++
		}
	}
	gauges := map[string]float64{
		"uptime_seconds":            time.Since(s.start).Seconds(),
		"functions":                 float64(len(s.fns)),
		"functions_done":            float64(doneCount),
		"events_published":          float64(s.ring.published()),
		"coverage_directions":       float64(s.cov.Covered()),
		"coverage_directions_total": float64(s.cov.Total()),
		"coverage_sites_touched":    float64(s.cov.SitesTouched()),
	}
	s.mu.Unlock()
	if s.extra != nil {
		for name, v := range s.extra() {
			gauges[name] = v
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeProm(w, snap, gauges)
}

// statusFn is the /status entry for one function.
type statusFn struct {
	Function       string  `json:"function"`
	Status         string  `json:"status"`
	Runs           int     `json:"runs"`
	Bugs           int     `json:"bugs"`
	Restarts       int     `json:"restarts"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// statusResp is the /status document.
type statusResp struct {
	Mode             string     `json:"mode"`
	Done             bool       `json:"done"`
	UptimeSeconds    float64    `json:"uptime_seconds"`
	Functions        int        `json:"functions"`
	FunctionsDone    int        `json:"functions_done"`
	Runs             int        `json:"runs"`
	Bugs             int        `json:"bugs"`
	Restarts         int        `json:"restarts"`
	EventsPublished  uint64     `json:"events_published"`
	CoverageCovered  int        `json:"branch_directions_covered"`
	CoverageTotal    int        `json:"branch_directions_total"`
	CoverageFraction float64    `json:"branch_coverage_fraction"`
	Entries          []statusFn `json:"entries"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := statusResp{
		Mode:            s.cfg.Mode,
		Done:            s.done,
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Functions:       len(s.order),
		EventsPublished: s.ring.published(),
		CoverageCovered: s.cov.Covered(),
		CoverageTotal:   s.cov.Total(),
		Entries:         []statusFn{},
	}
	if resp.CoverageTotal > 0 {
		resp.CoverageFraction = float64(resp.CoverageCovered) / float64(resp.CoverageTotal)
	}
	for _, fn := range s.order {
		st := s.fns[fn]
		elapsed := st.elapsed
		if !st.ended && !st.started.IsZero() {
			elapsed = time.Since(st.started)
		}
		if st.ended {
			resp.FunctionsDone++
		}
		resp.Runs += st.runs
		resp.Bugs += st.bugs
		resp.Restarts += st.restarts
		resp.Entries = append(resp.Entries, statusFn{
			Function:       fn,
			Status:         st.status,
			Runs:           st.runs,
			Bugs:           st.bugs,
			Restarts:       st.restarts,
			ElapsedSeconds: elapsed.Seconds(),
		})
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// handleEvents streams the ring as NDJSON.  Without ?follow=1 it drains
// the retained buffer and returns, ending with one ops-eof meta line
// carrying this subscriber's drop count; with ?follow=1 it tails the
// stream until the client disconnects, interleaving ops-drop meta lines
// whenever the subscriber loses events to the producers.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	follow := r.URL.Query().Get("follow") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sub := s.ring.subscribe()
	enc := json.NewEncoder(w)
	reported := uint64(0)
	emitDrops := func() {
		if d := sub.Dropped(); d > reported {
			reported = d
			enc.Encode(map[string]any{"ev": "ops-drop", "dropped": d})
		}
	}
	heartbeat := s.cfg.Heartbeat
	if heartbeat == 0 {
		heartbeat = defaultHeartbeat
	}
	lastWrite := time.Now()
	for {
		ev, ok := sub.next()
		if !ok {
			if !follow {
				enc.Encode(map[string]any{"ev": "ops-eof", "dropped": sub.Dropped()})
				return
			}
			// Caught up: announce any drops now, before going quiet —
			// otherwise losses at the tail of a burst stay invisible
			// until the next delivered event (which may never come).
			emitDrops()
			// An idle tail gets a keep-alive meta line per heartbeat
			// interval, so proxies and slow consumers see a live stream
			// even when the search is quiet.
			if heartbeat > 0 && time.Since(lastWrite) >= heartbeat {
				lastWrite = time.Now()
				if err := enc.Encode(map[string]any{"ev": "ops-heartbeat"}); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
			select {
			case <-r.Context().Done():
				return
			case <-time.After(25 * time.Millisecond):
			}
			continue
		}
		emitDrops()
		lastWrite = time.Now()
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
}

// profileResp is the /profile JSON document: the merged engine-side
// snapshots (wall timings included) plus the live event-derived site
// attribution (work counters only — events carry no timing).
type profileResp struct {
	Phases []obs.PhaseProfile `json:"phases"`
	Sites  []obs.SiteProfile  `json:"sites"`
	Live   struct {
		Sites []obs.SiteProfile `json:"sites"`
	} `json:"live"`
}

// handleProfile serves the search-cost profile.  Default: JSON.
// ?format=flame renders the solver-work-weighted execution tree as a
// text flamegraph instead.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "flame" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(s.tree.Flame())
		return
	}
	resp := profileResp{Phases: []obs.PhaseProfile{}, Sites: []obs.SiteProfile{}}
	s.mu.Lock()
	if s.prof != nil {
		resp.Phases = append(resp.Phases, s.prof.Phases...)
		resp.Sites = append(resp.Sites, s.prof.Sites...)
	}
	live := s.liveProf.Snapshot()
	s.mu.Unlock()
	resp.Live.Sites = live.Sites
	if resp.Live.Sites == nil {
		resp.Live.Sites = []obs.SiteProfile{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// explainFn is the /explain entry for one function: its branch sites'
// resolved outcomes, in site order.
type explainFn struct {
	Function string            `json:"function"`
	Sites    []obs.SiteOutcome `json:"sites"`
}

// explainResp is the /explain JSON document: the whole-batch resolution
// of the merged explainer ledger against the merged coverage, grouped
// per function.
type explainResp struct {
	Directions     int            `json:"directions"`
	Covered        int            `json:"covered"`
	CoveredPercent float64        `json:"covered_percent"`
	Buckets        map[string]int `json:"buckets,omitempty"`
	Stalls         int64          `json:"stalls,omitempty"`
	Functions      []explainFn    `json:"functions"`
}

// handleExplain serves the resolved coverage explanation.  Default:
// per-function JSON.  ?format=annot renders the annotated source
// coverage view followed by the per-direction reason table instead.
// In job-service mode there is no single program (cfg.Sites is empty),
// so the document is empty there — per-job explanations live on the
// job envelopes, and the reason buckets on /metrics.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	refs := make([]obs.ExplainSiteRef, len(s.cfg.Sites))
	for i, si := range s.cfg.Sites {
		refs[i] = obs.ExplainSiteRef{Site: si.Site, Fn: si.Fn, Pos: si.Pos.String()}
	}
	s.mu.Lock()
	set := s.cov.Clone()
	snap := s.exp
	var stalls int64
	if snap != nil {
		stalls = snap.Stalls
	}
	rep := snap.Resolve(refs, func(site int, taken bool) bool {
		tk, ntk := set.Site(site)
		if taken {
			return tk
		}
		return ntk
	})
	s.mu.Unlock()

	if r.URL.Query().Get("format") == "annot" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		cov := coverage.Annotate(s.cfg.Source, s.cfg.Sites, set)
		w.Write([]byte(cov.Text()))
		w.Write([]byte("\n"))
		w.Write([]byte(rep.Table(0)))
		return
	}

	resp := explainResp{
		Directions:     rep.Directions,
		Covered:        rep.Covered,
		CoveredPercent: rep.CoveredPercent(),
		Buckets:        rep.Buckets,
		Stalls:         stalls,
		Functions:      []explainFn{},
	}
	// Group resolved sites per containing function, preserving site
	// order within and first-appearance order across functions.
	byFn := map[string]int{}
	for _, so := range rep.Sites {
		i, ok := byFn[so.Fn]
		if !ok {
			i = len(resp.Functions)
			byFn[so.Fn] = i
			resp.Functions = append(resp.Functions, explainFn{Function: so.Fn})
		}
		resp.Functions[i].Sites = append(resp.Functions[i].Sites, so)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	set := s.cov.Clone()
	s.mu.Unlock()
	rep := coverage.Annotate(s.cfg.Source, s.cfg.Sites, set)
	if r.URL.Query().Get("format") == "html" ||
		(r.URL.Query().Get("format") == "" && acceptsHTML(r)) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(rep.HTML())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(rep.Text()))
}

// acceptsHTML reports whether the client asked for HTML (a browser);
// curl and test clients default to the text report.
func acceptsHTML(r *http.Request) bool {
	for _, part := range r.Header["Accept"] {
		if strings.Contains(part, "text/html") {
			return true
		}
	}
	return false
}
