package concolic

import (
	"testing"
	"time"

	"dart/internal/machine"
	"dart/internal/obs"
)

// diverging loops forever once the guard is satisfied; with an
// effectively unbounded step budget, only the wall-clock supervision can
// stop a run that entered the loop.
const diverging = `
int spin(int x) {
    if (x < 0) return -1;
    while (1) { }
    return 0;
}
`

// hugeSteps disables the step watchdog so the deadline is the only
// budget that can trip.
const hugeSteps = int64(1) << 62

func TestTimeoutStopsDivergingSearch(t *testing.T) {
	prog := compile(t, diverging)
	start := time.Now()
	rep, err := Run(prog, Options{
		Toplevel: "spin",
		MaxRuns:  1000,
		MaxSteps: hugeSteps,
		Seed:     1,
		Timeout:  200 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline must yield a partial report, not an error: %v", err)
	}
	if elapsed > time.Second {
		t.Errorf("search took %v, want well under 1s for a 200ms deadline", elapsed)
	}
	if rep.Stopped != StopDeadline {
		t.Errorf("Stopped = %q, want %q", rep.Stopped, StopDeadline)
	}
	if rep.Complete {
		t.Error("a deadline-stopped search must not claim completeness")
	}
}

func TestTimeoutStopsDivergingRandomTest(t *testing.T) {
	prog := compile(t, diverging)
	start := time.Now()
	rep, err := RandomTest(prog, Options{
		Toplevel: "spin",
		MaxRuns:  1000,
		MaxSteps: hugeSteps,
		Seed:     1,
		Timeout:  200 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadline must yield a partial report, not an error: %v", err)
	}
	if elapsed > time.Second {
		t.Errorf("random testing took %v, want well under 1s for a 200ms deadline", elapsed)
	}
	if rep.Stopped != StopDeadline {
		t.Errorf("Stopped = %q, want %q", rep.Stopped, StopDeadline)
	}
}

func TestCancelStopsSearch(t *testing.T) {
	prog := compile(t, diverging)
	cancel := make(chan struct{})
	close(cancel)
	rep, err := Run(prog, Options{
		Toplevel: "spin",
		MaxRuns:  1000,
		MaxSteps: hugeSteps,
		Seed:     1,
		Cancel:   cancel,
	})
	if err != nil {
		t.Fatalf("cancellation must yield a partial report, not an error: %v", err)
	}
	if rep.Stopped != StopCancelled {
		t.Errorf("Stopped = %q, want %q", rep.Stopped, StopCancelled)
	}
	if rep.Complete {
		t.Error("a cancelled search must not claim completeness")
	}
}

// panicImpls is the standard library with abs replaced by a fault,
// simulating an engine bug that only a steered input reaches.
func panicImpls() map[string]machine.LibImpl {
	impls := machine.StdLibImpls()
	impls["abs"] = func(_ *machine.Machine, _ []int64) (int64, error) {
		panic("injected library fault")
	}
	return impls
}

func TestRunPanicIsolated(t *testing.T) {
	// Random inputs almost never hit x == 7; the directed search must
	// solve its way into the panic, record it, and keep going.
	prog := compile(t, `
int g(int x) {
    if (x == 7) { return abs(x); }
    return 0;
}
`)
	var c obs.Collector
	rep, err := Run(prog, Options{
		Toplevel: "g",
		MaxRuns:  100,
		Seed:     1,
		LibImpls: panicImpls(),
		Observer: &c,
	})
	if err != nil {
		t.Fatalf("an isolated panic must not surface as an error: %v", err)
	}
	if len(rep.InternalErrors) == 0 {
		t.Fatal("expected at least one InternalError from the injected panic")
	}
	ie := rep.InternalErrors[0]
	if ie.Phase != "run" {
		t.Errorf("Phase = %q, want %q", ie.Phase, "run")
	}
	if ie.Inputs["d0.x"] != 7 {
		t.Errorf("fault inputs = %v, want the offending vector with d0.x=7", ie.Inputs)
	}
	if rep.Complete {
		t.Error("a search with internal faults must not claim completeness")
	}
	if rep.Runs < 2 {
		t.Errorf("Runs = %d: the search should have continued past the fault", rep.Runs)
	}
	// A faulted run is still a run in every view: the metrics, the
	// steps histogram and the trace's run-end events count it too.
	if got := rep.Metrics.Counters[obs.CRuns]; got != int64(rep.Runs) {
		t.Errorf("metrics runs = %d, want Report.Runs = %d", got, rep.Runs)
	}
	if got := rep.Metrics.Histograms[obs.HStepsPerRun].Count; got != int64(rep.Runs) {
		t.Errorf("steps_per_run count = %d, want %d", got, rep.Runs)
	}
	kinds := map[obs.Kind]int{}
	for _, ev := range c.Events() {
		kinds[ev.Kind]++
	}
	if kinds[obs.RunStart] != kinds[obs.RunEnd] {
		t.Errorf("run-start events = %d, run-end events = %d, want equal", kinds[obs.RunStart], kinds[obs.RunEnd])
	}
}

func TestPanicIsolationKeepsFindingBugs(t *testing.T) {
	// The panic is on one branch; a genuine abort is on a sibling.  The
	// search must survive the former and still report the latter.
	prog := compile(t, `
int g(int x) {
    if (x == 7) { return abs(x); }
    if (x == 9) { abort(); }
    return 0;
}
`)
	rep, err := Run(prog, Options{
		Toplevel: "g",
		MaxRuns:  100,
		Seed:     1,
		LibImpls: panicImpls(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.InternalErrors) == 0 {
		t.Error("expected the injected panic to be recorded")
	}
	if rep.FirstBug() == nil {
		t.Fatal("search died with the panic instead of finding the abort")
	}
	if got := rep.FirstBug().Inputs["d0.x"]; got != 9 {
		t.Errorf("bug inputs d0.x = %d, want 9", got)
	}
}

func TestStopReasonExhausted(t *testing.T) {
	prog := compile(t, `
int f(int x) {
    if (x == 5) { return 1; }
    return 0;
}
`)
	rep, err := Run(prog, Options{Toplevel: "f", MaxRuns: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatal("two-path program should be exhausted")
	}
	if rep.Stopped != StopExhausted {
		t.Errorf("Stopped = %q, want %q", rep.Stopped, StopExhausted)
	}
	if !rep.SolverComplete {
		t.Error("no solver budget tripped; SolverComplete must hold")
	}
}

func TestStopReasonMaxRuns(t *testing.T) {
	prog := compile(t, maze)
	rep, err := Run(prog, Options{Toplevel: "explore", MaxRuns: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stopped != StopMaxRuns {
		t.Errorf("Stopped = %q, want %q", rep.Stopped, StopMaxRuns)
	}
}

func TestStopReasonFirstBug(t *testing.T) {
	prog := compile(t, maze)
	rep, err := Run(prog, Options{Toplevel: "explore", MaxRuns: 20, Seed: 1, StopAtFirstBug: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstBug() == nil {
		t.Fatal("maze bug not found")
	}
	if rep.Stopped != StopFirstBug {
		t.Errorf("Stopped = %q, want %q", rep.Stopped, StopFirstBug)
	}
}

func TestSolverBudgetDegradesGracefully(t *testing.T) {
	// A budget too small for any solve: every branch flip is abandoned,
	// SolverComplete is cleared, and the search still terminates with a
	// report instead of an error.
	prog := compile(t, maze)
	rep, err := Run(prog, Options{Toplevel: "explore", MaxRuns: 20, Seed: 1, SolverBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SolverComplete {
		t.Error("a 1-unit solver budget must exhaust and clear SolverComplete")
	}
	if rep.Complete {
		t.Error("budget-exhausted solves must block the completeness claim")
	}
	if rep.SolverFailures == 0 {
		t.Error("abandoned solves should count as SolverFailures")
	}
}
