package dart

// CLI integration tests: build-and-run the dart command against a fixture
// file, checking both human and JSON output modes end to end.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dart/internal/progs"
)

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(src, []byte(progs.Section21), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/dart")
	cmd.Args = append(cmd.Args, args...)
	cmd.Args = append(cmd.Args, src)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("go run: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	return stdout.String(), code
}

func TestCLIFindsBug(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, code := runCLI(t, "-top", "h", "-seed", "1")
	if code != 1 {
		t.Fatalf("exit code %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "BUG [abort]") || !strings.Contains(out, "d0.x:10") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestCLIJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, code := runCLI(t, "-top", "h", "-seed", "1", "-json")
	if code != 1 {
		t.Fatalf("exit code %d, output:\n%s", code, out)
	}
	var rep struct {
		Mode string `json:"mode"`
		Runs int    `json:"runs"`
		Bugs []struct {
			Kind   string           `json:"kind"`
			Inputs map[string]int64 `json:"inputs"`
		} `json:"bugs"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.Mode != "directed" || len(rep.Bugs) != 1 || rep.Bugs[0].Kind != "abort" {
		t.Errorf("report: %+v", rep)
	}
	if rep.Bugs[0].Inputs["d0.x"] != 10 {
		t.Errorf("solved input missing: %+v", rep.Bugs[0].Inputs)
	}
}

// TestCLIWorkers: -workers 4 runs the parallel frontier, still finds
// the Section 2.1 bug with its solved input, announces the pool in the
// human mode line, and surfaces the new JSON accounting fields.
func TestCLIWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, code := runCLI(t, "-top", "h", "-seed", "1", "-workers", "4")
	if code != 1 {
		t.Fatalf("exit code %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "BUG [abort]") || !strings.Contains(out, "d0.x:10") {
		t.Errorf("unexpected output:\n%s", out)
	}
	if !strings.Contains(out, "(4 workers)") {
		t.Errorf("human output does not announce the worker pool:\n%s", out)
	}

	jout, code := runCLI(t, "-top", "h", "-seed", "1", "-workers", "4", "-json")
	if code != 1 {
		t.Fatalf("json exit code %d, output:\n%s", code, jout)
	}
	var rep struct {
		Workers         int               `json:"workers"`
		FrontierDropped *int              `json:"frontier_dropped"`
		Steals          *int              `json:"frontier_steals"`
		Mispredicts     *int              `json:"mispredicts"`
		Bugs            []json.RawMessage `json:"bugs"`
	}
	if err := json.Unmarshal([]byte(jout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, jout)
	}
	if rep.Workers != 4 {
		t.Errorf("workers = %d, want 4", rep.Workers)
	}
	if rep.FrontierDropped == nil || rep.Steals == nil || rep.Mispredicts == nil {
		t.Errorf("accounting fields missing from JSON report:\n%s", jout)
	}
	if len(rep.Bugs) != 1 {
		t.Errorf("%d bugs in JSON report, want 1", len(rep.Bugs))
	}
}

func TestCLIListAndIface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, code := runCLI(t, "-list")
	if code != 0 || !strings.Contains(out, "h") || !strings.Contains(out, "f") {
		t.Errorf("list output (code %d):\n%s", code, out)
	}
	out, code = runCLI(t, "-top", "h", "-iface")
	if code != 0 || !strings.Contains(out, "toplevel h") {
		t.Errorf("iface output (code %d):\n%s", code, out)
	}
}

func TestCLIJSONStopReason(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, code := runCLI(t, "-top", "h", "-seed", "1", "-json")
	if code != 1 {
		t.Fatalf("exit code %d, output:\n%s", code, out)
	}
	var rep struct {
		StopReason     string `json:"stop_reason"`
		SolverComplete bool   `json:"solver_complete"`
		SolverCalls    int    `json:"solver_calls"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.StopReason != "first-bug" {
		t.Errorf("stop_reason = %q, want %q\n%s", rep.StopReason, "first-bug", out)
	}
	if !rep.SolverComplete {
		t.Errorf("solver_complete = false, want true\n%s", out)
	}
	if rep.SolverCalls == 0 {
		t.Errorf("solver_calls = 0, want > 0 (the bug needs a solve)\n%s", out)
	}
}

func TestCLIAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, code := runCLI(t, "-audit", "-jobs", "4", "-timeout", "2s", "-seed", "1")
	if code != 1 {
		t.Fatalf("exit code %d (the fixture has a buggy function), output:\n%s", code, out)
	}
	if !strings.Contains(out, "audit:") || !strings.Contains(out, "with bugs") {
		t.Errorf("missing batch summary:\n%s", out)
	}
	// Every candidate toplevel gets its own status line.
	for _, fn := range []string{"h", "f"} {
		if !strings.Contains(out, fn) {
			t.Errorf("function %s missing from audit output:\n%s", fn, out)
		}
	}
}

func TestCLIAuditJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, code := runCLI(t, "-audit", "-jobs", "2", "-seed", "1", "-json")
	if code != 1 {
		t.Fatalf("exit code %d, output:\n%s", code, out)
	}
	var rep struct {
		Mode      string `json:"mode"`
		Functions int    `json:"functions"`
		Entries   []struct {
			Function string `json:"function"`
			Status   string `json:"status"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.Mode != "audit" || rep.Functions == 0 || len(rep.Entries) != rep.Functions {
		t.Errorf("report: %+v", rep)
	}
	statuses := map[string]string{}
	for _, e := range rep.Entries {
		statuses[e.Function] = e.Status
	}
	if statuses["h"] != "bugs" {
		t.Errorf("h: status %q, want %q\n%s", statuses["h"], "bugs", out)
	}
}

// TestCLIAuditSearchFlags: -audit runs each function's search with
// the -depth, -strategy and -hangs given, and a bad -strategy is a
// usage error there as in a single search.  The abort below needs two
// calls to step; the loop in spin is only a bug under -hangs.
func TestCLIAuditSearchFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	step := write("step.mc", `int count;
int step(int x) { if (x == 7) { count = count + 1; } if (count == 2) abort(); return 0; }
`)
	spin := write("spin.mc", "int spin(int x) { if (x == 3) { while (1) { } } return 0; }\n")
	audit := func(args ...string) (string, string, int) {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-audit", "-runs", "200", "-json"}, args...)...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.String())
		}
		return stdout.String(), stderr.String(), code
	}
	bugKinds := func(out string) []string {
		t.Helper()
		var rep struct {
			Entries []struct {
				Bugs []struct {
					Kind string `json:"kind"`
				} `json:"bugs"`
			} `json:"entries"`
		}
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, out)
		}
		var kinds []string
		for _, e := range rep.Entries {
			for _, b := range e.Bugs {
				kinds = append(kinds, b.Kind)
			}
		}
		return kinds
	}

	for _, c := range []struct {
		args []string
		code int
		bugs string
	}{
		{[]string{step}, 0, ""},
		{[]string{"-depth", "2", step}, 1, "abort"},
		{[]string{"-depth", "2", "-strategy", "bfs", step}, 1, "abort"},
		{[]string{spin}, 0, ""},
		{[]string{"-hangs", spin}, 1, "step-limit"},
	} {
		out, stderr, code := audit(c.args...)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d\n%s%s", c.args, code, c.code, out, stderr)
			continue
		}
		if got := strings.Join(bugKinds(out), ","); got != c.bugs {
			t.Errorf("%v: bugs %q, want %q\n%s", c.args, got, c.bugs, out)
		}
	}
	if _, stderr, code := audit("-strategy", "bogus", step); code != 2 || !strings.Contains(stderr, "unknown strategy") {
		t.Errorf("-audit -strategy bogus: exit %d, want 2 with a diagnostic\n%s", code, stderr)
	}
}

// TestCLIWarmAuditWarnsCorruptSolveLog: a fully warm human-mode
// -audit -corpus run searches nothing, so only its summary's solve
// count reads the solve log; a corrupt line that read finds must still
// be warned about on stderr.
func TestCLIWarmAuditWarnsCorruptSolveLog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	src := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(src, []byte(progs.Section21), 0o644); err != nil {
		t.Fatal(err)
	}
	corp := filepath.Join(dir, "corpus")
	audit := func() (string, string) {
		cmd := exec.Command(bin, "-audit", "-seed", "1", "-corpus", corp, src)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("audit: %v (want exit 1: the fixture has a bug)\n%s%s", err, stdout.String(), stderr.String())
			}
		}
		return stdout.String(), stderr.String()
	}
	if _, stderr := audit(); strings.Contains(stderr, "warning") {
		t.Fatalf("cold audit warned:\n%s", stderr)
	}
	log, err := os.OpenFile(filepath.Join(corp, "solve.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteString("s1 00000000 garbage\n"); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := audit()
	if !strings.Contains(stdout, "2 functions replayed from corpus") {
		t.Fatalf("warm audit was not answered from the corpus:\n%s", stdout)
	}
	if !strings.Contains(stderr, "dart: warning: corpus: solve log: discarded 1 corrupt line(s)") {
		t.Errorf("warm audit did not warn about the corrupt solve log; stderr:\n%s", stderr)
	}
}

func TestCLINoBugExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "ok.mc")
	if err := os.WriteFile(src, []byte(progs.Section24), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/dart", "-top", "f", src)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("expected success: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "all feasible execution paths explored") {
		t.Errorf("output:\n%s", out)
	}
}

// ------------------------------------------------- observability flags

func TestCLITraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	t1 := filepath.Join(dir, "a.ndjson")
	t2 := filepath.Join(dir, "b.ndjson")
	runCLI(t, "-top", "h", "-seed", "1", "-trace", t1)
	runCLI(t, "-top", "h", "-seed", "1", "-trace", t2)
	a, err := os.ReadFile(t1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(t2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || string(a) != string(b) {
		t.Errorf("-trace must be byte-identical across same-seed runs\nfirst:\n%s\nsecond:\n%s", a, b)
	}
	// Every line is one JSON event with a monotonically increasing seq.
	lines := strings.Split(strings.TrimRight(string(a), "\n"), "\n")
	for i, line := range lines {
		var ev struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"ev"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if ev.Seq != uint64(i+1) || ev.Kind == "" {
			t.Errorf("line %d: seq=%d kind=%q", i, ev.Seq, ev.Kind)
		}
	}
}

func TestCLITreeDumps(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "tree.json")
	dotPath := filepath.Join(dir, "tree.dot")
	runCLI(t, "-top", "h", "-seed", "1", "-tree", jsonPath)
	runCLI(t, "-top", "h", "-seed", "1", "-tree", dotPath)
	jb, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Nodes int `json:"nodes"`
		Tree  []struct {
			Path   string `json:"path"`
			Status string `json:"status"`
		} `json:"tree"`
	}
	if err := json.Unmarshal(jb, &dump); err != nil {
		t.Fatalf("tree JSON: %v\n%s", err, jb)
	}
	if dump.Nodes == 0 || len(dump.Tree) != dump.Nodes {
		t.Errorf("tree dump: %+v", dump)
	}
	db, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(db), "digraph dart {") {
		t.Errorf("DOT dump:\n%s", db)
	}
}

func TestCLITreeRejectedWithAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(src, []byte(progs.Section21), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/dart",
		"-audit", "-tree", filepath.Join(dir, "t.json"), src)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Error("-tree with -audit must be rejected")
	}
	if !strings.Contains(stderr.String(), "-tree") {
		t.Errorf("usage diagnostic missing:\n%s", stderr.String())
	}
}

func TestCLIMetricsAndTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, _ := runCLI(t, "-top", "h", "-seed", "1", "-metrics")
	for _, frag := range []string{"steps/s", "branch coverage", "%", "runs", "solver_sat"} {
		if !strings.Contains(out, frag) {
			t.Errorf("human summary missing %q:\n%s", frag, out)
		}
	}
	out, _ = runCLI(t, "-top", "h", "-seed", "1", "-json")
	var rep struct {
		Elapsed  float64 `json:"elapsed_seconds"`
		Rate     float64 `json:"steps_per_second"`
		Fraction float64 `json:"branch_coverage_fraction"`
		Metrics  *struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.Elapsed <= 0 || rep.Rate <= 0 {
		t.Errorf("elapsed=%v steps_per_second=%v, want > 0", rep.Elapsed, rep.Rate)
	}
	if rep.Fraction != 0.75 {
		t.Errorf("branch_coverage_fraction = %v, want 0.75", rep.Fraction)
	}
	if rep.Metrics == nil || rep.Metrics.Counters["runs"] == 0 {
		t.Errorf("metrics missing from JSON report:\n%s", out)
	}
}

// ------------------------------------------------------ live ops flags

// slowSrc never exhausts: the nonlinear predicates defeat the linear
// solver, so the directed search keeps restarting with fresh randoms
// until its run budget — plenty of time to poll the ops server.
const slowSrc = `
int h(int x, int y) {
	if (x * x + y * y > 100) {
		if (x > 9) {
			return 1;
		}
		return 2;
	}
	if (y < 0) {
		return 3;
	}
	return 0;
}

int g(int a, int b) {
	if (a * a - b * b == 17) {
		return 1;
	}
	return 0;
}
`

// buildCLI compiles the dart binary once into dir (go run would make
// the served process a child we cannot address reliably).
func buildCLI(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "dartbin")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/dart").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCLIServeEndpoints is the end-to-end acceptance check: a real
// dart process with -serve during a parallel audit answers on every
// ops endpoint while the search is still running.
func TestCLIServeEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	src := filepath.Join(dir, "slow.mc")
	if err := os.WriteFile(src, []byte(slowSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-audit", "-jobs", "4", "-runs", "50000000",
		"-serve", "127.0.0.1:0", src)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The serve announcement is the machine-readable contract for :0.
	var addr string
	sc := bufio.NewScanner(stderr)
	deadline := time.After(30 * time.Second)
	lineCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "dart: serving ops on http://"); ok {
				lineCh <- rest
				break
			}
		}
		close(lineCh)
	}()
	select {
	case addr = <-lineCh:
	case <-deadline:
		t.Fatal("serve announcement never appeared on stderr")
	}
	if addr == "" {
		t.Fatal("serve announcement missing the address")
	}
	base := "http://" + addr

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if got := get("/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("/healthz: %q", got)
	}
	// The announcement races the audit's first events; wait until the
	// batch is demonstrably mid-flight before asserting on live state.
	var st struct {
		Mode    string `json:"mode"`
		Done    bool   `json:"done"`
		Runs    int    `json:"runs"`
		Entries []struct {
			Function string `json:"function"`
			Status   string `json:"status"`
		} `json:"entries"`
	}
	waitUntil := time.Now().Add(30 * time.Second)
	for {
		if err := json.Unmarshal([]byte(get("/status")), &st); err != nil {
			t.Fatalf("/status: %v", err)
		}
		if st.Runs > 0 || time.Now().After(waitUntil) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Mode != "audit" || st.Done || len(st.Entries) != 2 || st.Runs == 0 {
		t.Errorf("/status mid-audit: %+v", st)
	}
	metrics := get("/metrics")
	if !strings.Contains(metrics, "# TYPE dart_runs_total counter") {
		t.Errorf("/metrics missing runs counter:\n%.400s", metrics)
	}
	if strings.Contains(metrics, "dart_runs_total 0\n") {
		t.Errorf("/metrics shows zero runs mid-audit:\n%.400s", metrics)
	}
	if !strings.Contains(get("/coverage"), "branch coverage") {
		t.Error("/coverage missing the summary header")
	}
	var exp struct {
		Directions int `json:"directions"`
	}
	if err := json.Unmarshal([]byte(get("/explain")), &exp); err != nil || exp.Directions == 0 {
		t.Errorf("/explain mid-audit: %v, %+v", err, exp)
	}
	if !strings.Contains(get("/explain?format=annot"), "coverage explanation:") {
		t.Error("/explain?format=annot missing the reason table")
	}
	if !strings.Contains(metrics, "# TYPE dart_build_info gauge") {
		t.Errorf("/metrics missing dart_build_info:\n%.400s", metrics)
	}
	events := get("/events")
	if !strings.Contains(events, `"ev":`) || !strings.Contains(events, "ops-eof") {
		t.Errorf("/events dump malformed:\n%.400s", events)
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Error("/debug/pprof/ index missing")
	}
}

// ------------------------------------------------------ job service mode

// startJobService launches `dart -serve` in service mode (no program
// file) and returns the started process plus the scraped base URL.
func startJobService(t *testing.T, bin string, extraArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-serve", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "dart: serving ops on http://"); ok {
				lineCh <- rest
				break
			}
		}
		// Keep draining so the child never blocks on a full stderr pipe.
		go io.Copy(io.Discard, stderr)
		close(lineCh)
	}()
	select {
	case addr := <-lineCh:
		if addr == "" {
			t.Fatal("serve announcement missing the address")
		}
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("serve announcement never appeared on stderr")
	}
	return nil, ""
}

// waitExit waits for the process and returns its exit code.
func waitExit(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		t.Fatalf("wait: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("process never exited")
	}
	return -1
}

// TestCLIServeJobService is the end-to-end service-mode test: submit a
// job over HTTP, read its completed report, then SIGTERM and require a
// graceful drain with exit code 0.
func TestCLIServeJobService(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	cmd, base := startJobService(t, bin)

	resp, err := http.Post(base+"/jobs?runs=200", "text/plain", strings.NewReader(progs.Section21))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d\n%s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("submit response: %v\n%s", err, body)
	}

	var env struct {
		State  string `json:"state"`
		Report *struct {
			Buggy int `json:"buggy"`
		} `json:"report"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for env.State != "done" {
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		r, err := http.Get(base + "/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("envelope: %v\n%s", err, b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if env.Report == nil || env.Report.Buggy != 1 {
		t.Errorf("served report: %+v", env)
	}

	if r, err := http.Get(base + "/readyz"); err != nil || r.StatusCode != http.StatusOK {
		t.Errorf("/readyz: %v %v", err, r)
	} else {
		r.Body.Close()
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, cmd); code != 0 {
		t.Errorf("graceful drain exit code %d, want 0", code)
	}
}

// buildCLIRace compiles the dart binary with the race detector for the
// serve gate: the flooded job server runs race-instrumented, and a
// detected race turns into a nonzero exit the gate catches.
func buildCLIRace(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "dartbin_race")
	out, err := exec.Command("go", "build", "-race", "-o", bin, "./cmd/dart").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	return bin
}

// TestCLIServeGate is the scripts/check.sh serve gate: hammer POST
// /jobs past the queue depth of a race-instrumented server, require
// honest 429s counted in /metrics as dart_jobs_rejected_total, then
// SIGTERM and require a clean drain (exit 0) despite the still-running
// backlog.
func TestCLIServeGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLIRace(t, dir)
	cmd, base := startJobService(t, bin,
		"-queue-depth", "1", "-executors", "1", "-drain-timeout", "1s")

	// slowSrc's nonlinear predicates keep each audit restarting for its
	// whole run budget, so the one executor stays busy while we flood.
	rejected, accepted := 0, 0
	deadline := time.Now().Add(30 * time.Second)
	for seed := 1; rejected == 0; seed++ {
		if time.Now().After(deadline) {
			t.Fatal("queue never rejected despite the flood")
		}
		resp, err := http.Post(
			fmt.Sprintf("%s/jobs?runs=50000000&seed=%d", base, seed),
			"text/plain", strings.NewReader(slowSrc))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 missing Retry-After")
			}
		default:
			t.Fatalf("POST /jobs: unexpected status %d", resp.StatusCode)
		}
	}
	if accepted == 0 {
		t.Fatal("nothing was admitted before the first rejection")
	}

	// The shed is visible in the Prometheus exposition.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "dart_jobs_rejected_total") ||
		strings.Contains(string(metrics), "dart_jobs_rejected_total 0\n") {
		t.Errorf("dart_jobs_rejected_total missing or zero after %d rejections:\n%.600s", rejected, metrics)
	}

	// Saturated service: not ready, but alive.
	if r, err := http.Get(base + "/readyz"); err == nil {
		r.Body.Close()
		if r.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz while saturated: %d, want 503", r.StatusCode)
		}
	}

	// SIGTERM with jobs mid-flight: the drain deadline checkpoints them
	// and the process still exits 0 — shutdown is not an error.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, cmd); code != 0 {
		t.Errorf("drain exit code %d, want 0", code)
	}
}

// TestCLIServeBindError: a bind failure is a config error — exit 2,
// like every other usage problem, never a hung process.
func TestCLIServeBindError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	cmd := exec.Command(bin, "-serve", ln.Addr().String())
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err = cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("bind conflict exit = %v, want code 2\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "address already in use") {
		t.Errorf("bind diagnostic missing:\n%s", stderr.String())
	}
}

// TestCLIServeStartupSIGTERM: a SIGTERM sent the moment the job server
// announces itself still gets a drain and exit 0.  The server once
// installed its signal handler after the announcement, and a signal in
// between killed it with no drain.  Whether a signal lands in that
// window depends on scheduling, so the test runs the race many times.
func TestCLIServeStartupSIGTERM(t *testing.T) {
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for i := 0; i < rounds; i++ {
		cmd := exec.Command(bin, "-serve", "127.0.0.1:0")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// A server that ignores the signal would block the scan below.
		kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
		var log strings.Builder
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
			if strings.HasPrefix(sc.Text(), "dart: serving ops on http://") {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			}
		}
		code := waitExit(t, cmd)
		kill.Stop()
		if code != 0 || !strings.Contains(log.String(), "drained; exiting") {
			t.Fatalf("round %d: exit %d, want 0 after a drain\n%s", i, code, log.String())
		}
	}
}

// TestCLIServeBadConfig: nonsensical service flags are usage errors.
func TestCLIServeBadConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	bin := buildCLI(t, dir)
	for _, args := range [][]string{
		{"-serve", "127.0.0.1:0", "-queue-depth", "0"},
		{"-serve", "127.0.0.1:0", "-max-body", "0"},
	} {
		cmd := exec.Command(bin, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: exit = %v, want code 2\n%s", args, err, stderr.String())
		}
	}
}

func TestCLICovReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(src, []byte(progs.Section21), 0o644); err != nil {
		t.Fatal(err)
	}
	txt := filepath.Join(dir, "cov.txt")
	page := filepath.Join(dir, "cov.html")
	if out, err := exec.Command("go", "run", "./cmd/dart",
		"-top", "h", "-seed", "1", "-covreport", txt, src).CombinedOutput(); err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("run: %v\n%s", err, out)
		}
	}
	b, err := os.ReadFile(txt)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture search covers 3 of 4 branch directions (75%).
	if !strings.Contains(string(b), "branch coverage 3/4 directions (75.0%)") {
		t.Errorf("text report summary wrong:\n%s", b)
	}
	if !strings.Contains(string(b), "|") || !strings.Contains(string(b), "MISSED") {
		t.Errorf("text report missing source/missed table:\n%s", b)
	}

	exec.Command("go", "run", "./cmd/dart",
		"-top", "h", "-seed", "1", "-covreport", page, src).Run()
	hb, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(hb), "<!DOCTYPE html>") {
		t.Errorf(".html covreport is not an HTML page:\n%.200s", hb)
	}
}

func TestCLIAuditAggregateCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, _ := runCLI(t, "-audit", "-jobs", "2", "-seed", "1", "-runs", "200")
	if !strings.Contains(out, "aggregate branch coverage") {
		t.Errorf("human audit summary missing aggregate coverage:\n%s", out)
	}

	out, _ = runCLI(t, "-audit", "-jobs", "2", "-seed", "1", "-runs", "200", "-json")
	var rep struct {
		Covered  int     `json:"branch_directions_covered"`
		Total    int     `json:"branch_directions_total"`
		Fraction float64 `json:"branch_coverage_fraction"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if rep.Total == 0 || rep.Covered == 0 || rep.Fraction <= 0 {
		t.Errorf("aggregate coverage empty: %+v\n%s", rep, out)
	}
	if rep.Covered > rep.Total {
		t.Errorf("covered %d > total %d", rep.Covered, rep.Total)
	}
}

func TestCLITraceWriteFailureWarns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full unavailable")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(src, []byte(progs.Section21), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/dart",
		"-top", "h", "-seed", "1", "-trace", "/dev/full", src)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want 1 (a lost trace must not change the verdict)\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "warning") || !strings.Contains(stderr.String(), "trace") {
		t.Errorf("no trace warning on stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "BUG") {
		t.Errorf("report lost alongside the trace:\n%s", stdout.String())
	}
}

func TestCLIAuditProgressAndElapsed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mc")
	if err := os.WriteFile(src, []byte(progs.Section21), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/dart",
		"-audit", "-jobs", "2", "-seed", "1", "-runs", "200", "-progress", src)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.Run()
	if !strings.Contains(stderr.String(), "functions,") {
		t.Errorf("-progress wrote no progress line to stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "time=") {
		t.Errorf("audit lines missing per-function elapsed:\n%s", stdout.String())
	}

	out, _ := runCLI(t, "-audit", "-jobs", "2", "-seed", "1", "-runs", "200", "-json")
	var rep struct {
		Entries []struct {
			Function string  `json:"function"`
			Elapsed  float64 `json:"elapsed_seconds"`
		} `json:"entries"`
		Metrics *struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	for _, e := range rep.Entries {
		if e.Elapsed <= 0 {
			t.Errorf("%s: elapsed_seconds = %v, want > 0", e.Function, e.Elapsed)
		}
	}
	if rep.Metrics == nil || rep.Metrics.Counters["runs"] == 0 {
		t.Errorf("aggregated metrics missing from audit JSON:\n%s", out)
	}
}

// TestCLIProfile: -profile prints the human cost tables after the
// search, and -json gains a structured profile object whose phase and
// site entries carry real accounting; without -profile the JSON report
// stays profile-free.
func TestCLIProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, _ := runCLI(t, "-top", "h", "-seed", "1", "-profile")
	if !strings.Contains(out, "phase breakdown") || !strings.Contains(out, "branch sites by solve cost") {
		t.Errorf("-profile printed no cost tables:\n%s", out)
	}
	for _, phase := range []string{"exec", "solve"} {
		if !strings.Contains(out, phase) {
			t.Errorf("-profile table missing %s phase:\n%s", phase, out)
		}
	}

	jout, _ := runCLI(t, "-top", "h", "-seed", "1", "-profile", "-json")
	var rep struct {
		Profile *struct {
			Phases []struct {
				Phase string `json:"phase"`
				Count int64  `json:"count"`
				Nanos int64  `json:"nanos"`
			} `json:"phases"`
			Sites []struct {
				Site   int    `json:"site"`
				Pos    string `json:"pos"`
				Fn     string `json:"fn"`
				Solves int64  `json:"solves"`
			} `json:"sites"`
		} `json:"profile"`
	}
	if err := json.Unmarshal([]byte(jout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, jout)
	}
	if rep.Profile == nil || len(rep.Profile.Phases) == 0 || len(rep.Profile.Sites) == 0 {
		t.Fatalf("-profile -json report lacks profile data:\n%s", jout)
	}
	phases := map[string]int64{}
	var nanos int64
	for _, ph := range rep.Profile.Phases {
		phases[ph.Phase] = ph.Count
		nanos += ph.Nanos
	}
	if phases["exec"] == 0 || phases["solve"] == 0 || nanos == 0 {
		t.Errorf("profile phases implausible: %+v", rep.Profile.Phases)
	}
	for _, s := range rep.Profile.Sites {
		if s.Fn != "h" || s.Pos == "" || s.Solves == 0 {
			t.Errorf("profile site implausible: %+v", s)
		}
	}

	// Off by default: no profile key in the plain JSON report.
	plain, _ := runCLI(t, "-top", "h", "-seed", "1", "-json")
	var probe map[string]json.RawMessage
	if err := json.Unmarshal([]byte(plain), &probe); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, plain)
	}
	if _, ok := probe["profile"]; ok {
		t.Errorf("JSON report carries a profile without -profile:\n%s", plain)
	}
}

func TestCLIExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary")
	}
	out, _ := runCLI(t, "-top", "h", "-seed", "1", "-explain")
	if !strings.Contains(out, "coverage explanation:") {
		t.Errorf("-explain printed no explanation:\n%s", out)
	}

	jout, _ := runCLI(t, "-top", "h", "-seed", "1", "-explain", "-json")
	var rep struct {
		Explain *struct {
			Directions int            `json:"directions"`
			Covered    int            `json:"covered"`
			Buckets    map[string]int `json:"buckets"`
			Sites      []struct {
				Site int    `json:"site"`
				Fn   string `json:"fn"`
				Pos  string `json:"pos"`
			} `json:"sites"`
		} `json:"explain"`
	}
	if err := json.Unmarshal([]byte(jout), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, jout)
	}
	if rep.Explain == nil || rep.Explain.Directions == 0 || len(rep.Explain.Sites) == 0 {
		t.Fatalf("-explain -json report lacks explain data:\n%s", jout)
	}
	sum := rep.Explain.Covered
	for _, n := range rep.Explain.Buckets {
		sum += n
	}
	if sum != rep.Explain.Directions {
		t.Errorf("accounting leak: covered %d + buckets %v != %d directions",
			rep.Explain.Covered, rep.Explain.Buckets, rep.Explain.Directions)
	}
	for _, s := range rep.Explain.Sites {
		if s.Fn == "" || s.Pos == "" {
			t.Errorf("explain site lacks fn/pos: %+v", s)
		}
	}

	// Off by default: no explain key in the plain JSON report.
	plain, _ := runCLI(t, "-top", "h", "-seed", "1", "-json")
	var probe map[string]json.RawMessage
	if err := json.Unmarshal([]byte(plain), &probe); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, plain)
	}
	for _, key := range []string{"explain", "explain_timeline"} {
		if _, ok := probe[key]; ok {
			t.Errorf("JSON report carries %q without -explain:\n%s", key, plain)
		}
	}
}
