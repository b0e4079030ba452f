package serve

// Job-completion streaming tests: the GET /jobs/{id}?wait long-poll,
// the Accept: text/event-stream SSE variant, the bounded-waiter 429,
// and the per-job cost profile on the envelope (and only there — the
// cacheable report must stay wall-clock free).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dart/internal/obs"
	"dart/internal/progs"
)

// envDoc is the subset of the job envelope these tests read.
type envDoc struct {
	ID      string               `json:"id"`
	State   string               `json:"state"`
	Cached  bool                 `json:"cached"`
	Report  map[string]any       `json:"report"`
	Profile *obs.ProfileSnapshot `json:"profile"`
}

func decodeEnv(t *testing.T, body string) envDoc {
	t.Helper()
	var env envDoc
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("envelope: %v\n%s", err, body)
	}
	return env
}

func submitOne(t *testing.T, url string) string {
	t.Helper()
	resp, body := post(t, url+"/jobs?runs=100", progs.Section21)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d\n%s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil || sub.ID == "" {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	return sub.ID
}

// hasPhase reports whether the profile carries the named span phase.
func hasPhase(p *obs.ProfileSnapshot, phase string) bool {
	if p == nil {
		return false
	}
	for _, ph := range p.Phases {
		if ph.Phase == phase {
			return true
		}
	}
	return false
}

// TestJobWaitLongPoll: ?wait=SECONDS blocks until completion and then
// returns the done envelope — no polling loop needed — carrying the
// job's cost profile (including the synthesized queue-wait phase).
func TestJobWaitLongPoll(t *testing.T) {
	g := newGate()
	svc, ts := newHTTPService(t, Config{Executors: 1})
	svc.beforeRun = func(j *Job) { g.hold(j) }
	defer g.release()

	id := submitOne(t, ts.URL)
	type result struct {
		code int
		body string
	}
	ch := make(chan result, 1)
	go func() {
		resp, body := get(t, ts.URL+"/jobs/"+id+"?wait=30")
		ch <- result{resp.StatusCode, body}
	}()
	select {
	case r := <-ch:
		t.Fatalf("long-poll returned before completion: %d\n%s", r.code, r.body)
	case <-time.After(100 * time.Millisecond):
	}
	g.release()
	select {
	case r := <-ch:
		if r.code != http.StatusOK {
			t.Fatalf("long-poll: %d\n%s", r.code, r.body)
		}
		env := decodeEnv(t, r.body)
		if env.State != "done" {
			t.Fatalf("long-poll state %q, want done:\n%s", env.State, r.body)
		}
		if !hasPhase(env.Profile, obs.SpanJobQueueWait) {
			t.Errorf("done envelope profile missing %s phase: %+v", obs.SpanJobQueueWait, env.Profile)
		}
		if !hasPhase(env.Profile, obs.SpanExec) {
			t.Errorf("done envelope profile missing %s phase: %+v", obs.SpanExec, env.Profile)
		}
		if env.Profile == nil || len(env.Profile.Sites) == 0 {
			t.Errorf("done envelope profile has no site attribution: %+v", env.Profile)
		}
		// The profile is envelope-only: the deterministic (cacheable)
		// report must not grow a wall-clock field.
		if _, ok := env.Report["profile"]; ok {
			t.Errorf("cacheable report contains a profile field:\n%s", r.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("long-poll never returned after release")
	}
}

// TestJobWaitTimeout: an expired wait window is not an error — the
// handler answers 200 with the current (still-running) envelope.
func TestJobWaitTimeout(t *testing.T) {
	g := newGate()
	svc, ts := newHTTPService(t, Config{Executors: 1})
	svc.beforeRun = func(j *Job) { g.hold(j) }
	defer g.release()

	id := submitOne(t, ts.URL)
	resp, body := get(t, ts.URL+"/jobs/"+id+"?wait=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait timeout: %d\n%s", resp.StatusCode, body)
	}
	env := decodeEnv(t, body)
	if env.State == string(StateDone) {
		t.Fatalf("job done while the gate holds it:\n%s", body)
	}
	if env.Profile != nil {
		t.Errorf("running envelope has a profile:\n%s", body)
	}
	if resp, _ := get(t, ts.URL+"/jobs/"+id+"?wait=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad wait value: %d, want 400", resp.StatusCode)
	}
}

// TestJobWaitersBounded429: MaxWaiters caps concurrently blocked
// long-polls/SSE streams; past it the handler degrades to 429 +
// Retry-After rather than pinning goroutines for a slow crowd.
func TestJobWaitersBounded429(t *testing.T) {
	g := newGate()
	svc, ts := newHTTPService(t, Config{Executors: 1, MaxWaiters: 1})
	svc.beforeRun = func(j *Job) { g.hold(j) }
	defer g.release()

	id := submitOne(t, ts.URL)
	release := make(chan struct{})
	firstIn := make(chan struct{})
	go func() {
		// Occupy the single waiter slot with a genuine blocked long-poll.
		close(firstIn)
		get(t, ts.URL+"/jobs/"+id+"?wait=30")
		close(release)
	}()
	<-firstIn
	// Wait for the first poller to actually take the slot.
	deadline := time.Now().Add(5 * time.Second)
	for svc.waiters.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if svc.waiters.Load() != 1 {
		t.Fatalf("waiter slot not taken: %d", svc.waiters.Load())
	}

	resp, body := get(t, ts.URL+"/jobs/"+id+"?wait=30")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second waiter: %d, want 429\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// SSE counts against the same pool.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+id, nil)
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("SSE past waiter cap: %d, want 429", sresp.StatusCode)
	}

	// A plain (non-waiting) poll is always served.
	if resp, _ := get(t, ts.URL+"/jobs/"+id); resp.StatusCode != http.StatusOK {
		t.Fatalf("plain poll under waiter pressure: %d", resp.StatusCode)
	}
	g.release()
	<-release
	// A completed job needs no slot: wait degrades to an immediate 200.
	if resp, _ := get(t, ts.URL+"/jobs/"+id+"?wait=30"); resp.StatusCode != http.StatusOK {
		t.Errorf("wait on done job: %d", resp.StatusCode)
	}
}

// TestJobSSEStream: Accept: text/event-stream turns GET /jobs/{id}
// into an SSE stream — an immediate "state" event, then a terminal
// "done" event with the completed envelope.
func TestJobSSEStream(t *testing.T) {
	g := newGate()
	svc, ts := newHTTPService(t, Config{Executors: 1})
	svc.beforeRun = func(j *Job) { g.hold(j) }
	defer g.release()

	id := submitOne(t, ts.URL)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+id, nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}

	type sse struct {
		event string
		data  string
	}
	events := make(chan sse, 4)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		cur := sse{}
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.event != "":
				events <- cur
				cur = sse{}
			}
		}
	}()

	readEvent := func(what string) sse {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("SSE stream ended before %s event", what)
			}
			return ev
		case <-time.After(30 * time.Second):
			t.Fatalf("no %s event within 30s", what)
		}
		panic("unreachable")
	}

	first := readEvent("state")
	if first.event != "state" {
		t.Fatalf("first SSE event %q, want state", first.event)
	}
	env := decodeEnv(t, first.data)
	if env.ID != id || env.State == string(StateDone) {
		t.Fatalf("state event: %+v", env)
	}

	g.release()
	done := readEvent("done")
	if done.event != "done" {
		t.Fatalf("second SSE event %q, want done", done.event)
	}
	env = decodeEnv(t, done.data)
	if env.State != "done" {
		t.Fatalf("done event state %q:\n%s", env.State, done.data)
	}
	if !hasPhase(env.Profile, obs.SpanJobQueueWait) {
		t.Errorf("SSE done envelope missing %s phase: %+v", obs.SpanJobQueueWait, env.Profile)
	}
}

// TestCachedJobHasNoProfile: a store-served job is born done without
// ever executing, so its envelope carries no profile — timing data is
// per-execution, never per-report.
func TestCachedJobHasNoProfile(t *testing.T) {
	_, ts := newHTTPService(t, Config{})

	id := submitOne(t, ts.URL)
	resp, body := get(t, ts.URL+"/jobs/"+id+"?wait=30")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: %d\n%s", resp.StatusCode, body)
	}
	if env := decodeEnv(t, body); env.State != "done" || env.Profile == nil {
		t.Fatalf("fresh job envelope: state=%q profile=%v", env.State, env.Profile)
	}

	// Identical resubmission: served from the store, no profile.
	resp, body = post(t, ts.URL+"/jobs?runs=100", progs.Section21)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached POST: %d\n%s", resp.StatusCode, body)
	}
	var sub struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil || !sub.Cached {
		t.Fatalf("cached submit: %v\n%s", err, body)
	}
	_, body = get(t, ts.URL+"/jobs/"+sub.ID)
	if env := decodeEnv(t, body); !env.Cached || env.Profile != nil {
		t.Fatalf("cached envelope: cached=%v profile=%+v", env.Cached, env.Profile)
	}
}

// TestJobProfileFeedsServerProfile: the job layer pushes every
// completed job's cost profile into the ops server, so GET /profile
// aggregates across submissions instead of staying empty in service
// mode (the per-job envelope is not the only surface).
func TestJobProfileFeedsServerProfile(t *testing.T) {
	_, ts := newHTTPService(t, Config{Executors: 1})

	id := submitOne(t, ts.URL)
	resp, body := get(t, ts.URL+"/jobs/"+id+"?wait=30")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: %d\n%s", resp.StatusCode, body)
	}
	if env := decodeEnv(t, body); env.State != "done" {
		t.Fatalf("job not done: %+v", env)
	}

	_, pbody := get(t, ts.URL+"/profile")
	var doc struct {
		Phases []obs.PhaseProfile `json:"phases"`
		Sites  []obs.SiteProfile  `json:"sites"`
	}
	if err := json.Unmarshal([]byte(pbody), &doc); err != nil {
		t.Fatalf("/profile: %v\n%s", err, pbody)
	}
	agg := &obs.ProfileSnapshot{Phases: doc.Phases, Sites: doc.Sites}
	for _, phase := range []string{obs.SpanExec, obs.SpanSolve, obs.SpanJobQueueWait} {
		if !hasPhase(agg, phase) {
			t.Errorf("server-wide /profile missing %q after a served job:\n%s", phase, pbody)
		}
	}
	if len(doc.Sites) == 0 {
		t.Errorf("server-wide /profile has no site attribution:\n%s", pbody)
	}
}

// lastField decodes a JSON object and returns its last key with that
// key's value exactly as it appears in doc.
func lastField(t *testing.T, doc []byte) (string, []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v):\n%s", err, doc)
	}
	var key string
	var raw json.RawMessage
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("envelope key: %v\n%s", err, doc)
		}
		key = tok.(string)
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("envelope %q: %v\n%s", key, err, doc)
		}
	}
	return key, raw
}

// sseDone returns the data of the "done" frame of a completed job's
// SSE stream.
func sseDone(t *testing.T, url string) string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range strings.Split(string(body), "\n\n") {
		if data, ok := strings.CutPrefix(frame, "event: done\ndata: "); ok {
			return data
		}
	}
	t.Fatalf("no done frame in the SSE stream:\n%s", body)
	return ""
}

// TestEnvelopeEmbedsReportVerbatim: every envelope rendering — plain
// GET, ?wait= long-poll and the SSE done frame — carries the stored
// report bytes themselves as its last field, for a fresh job and for
// its cached resubmission alike.
func TestEnvelopeEmbedsReportVerbatim(t *testing.T) {
	svc, ts := newHTTPService(t, Config{})
	fresh := submitOne(t, ts.URL)
	if resp, body := get(t, ts.URL+"/jobs/"+fresh+"?wait=30"); resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: %d\n%s", resp.StatusCode, body)
	}
	resp, body := post(t, ts.URL+"/jobs?runs=100", progs.Section21)
	var sub struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal([]byte(body), &sub); err != nil || resp.StatusCode != http.StatusOK || !sub.Cached {
		t.Fatalf("cached resubmission: %d %v\n%s", resp.StatusCode, err, body)
	}

	for _, id := range []string{fresh, sub.ID} {
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s not retained", id)
		}
		want, cached := j.Report()
		docs := map[string]string{"SSE": sseDone(t, ts.URL+"/jobs/"+id)}
		_, docs["GET"] = get(t, ts.URL+"/jobs/"+id)
		_, docs["?wait"] = get(t, ts.URL+"/jobs/"+id+"?wait=30")
		for how, doc := range docs {
			key, raw := lastField(t, []byte(doc))
			if key != "report" {
				t.Errorf("job %s (cached=%v) %s: last key %q, want report", id, cached, how, key)
			}
			if !bytes.Equal(raw, want) {
				t.Errorf("job %s (cached=%v) %s: report is not the stored bytes:\ngot:  %.200s\nwant: %.200s", id, cached, how, raw, want)
			}
			if env := decodeEnv(t, doc); env.ID != id || env.State != "done" || env.Cached != cached || env.Report["functions"] != 2.0 {
				t.Errorf("job %s %s: envelope decodes to %+v", id, how, env)
			}
		}
	}
}
