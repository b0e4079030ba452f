package dart

import (
	"encoding/json"
	"fmt"
	"testing"

	"dart/internal/concolic"
	"dart/internal/obs"
	"dart/internal/progs"
)

// TestBugsSurvivePooledReuse proves that a Report's bugs hold no
// references into the pooled machine the search kept reusing after
// recording them: every Bug's input vector, replayed on a fresh
// machine, must still reproduce exactly the recorded failure.  If the
// Bug snapshot aliased the engine's live input map or the machine's
// Branches backing array, later runs of the same search would have
// rewritten it and the replay would miss.  scripts/check.sh runs this
// under -race at Workers 2, where the pooled machines are concurrently
// live across worker goroutines.
func TestBugsSurvivePooledReuse(t *testing.T) {
	src := `
int two_bugs(int a, int b) {
    if (a == 77) {
        int *p = 0;
        return *p;
    }
    if (b == 123) abort();
    return a + b;
}
`
	prog := compileT(t, src)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := Options{Toplevel: "two_bugs", MaxRuns: 200, Seed: 13, Workers: workers}
			rep, err := Run(prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Bugs) < 2 {
				t.Fatalf("expected both bugs, got %v", rep.Bugs)
			}
			for _, bug := range rep.Bugs {
				rerr, err := Replay(prog, opts, bug.Inputs)
				if err != nil {
					t.Fatalf("replay %v: %v", bug, err)
				}
				if rerr == nil {
					t.Fatalf("bug %v did not reproduce from its recorded inputs; "+
						"Inputs aliased pooled machine state?", bug)
				}
				if rerr.Outcome != bug.Kind || rerr.Msg != bug.Msg || rerr.Pos != bug.Pos {
					t.Errorf("bug %v replayed as [%s] %s at %s", bug, rerr.Outcome, rerr.Msg, rerr.Pos)
				}
			}
		})
	}
}

// TestConcreteSearchZeroShadowPhase pins the taint bitmap's
// pay-as-you-go contract at the search level: a program with no
// inputs at all executes fully concretely, so the compiled engine
// must record a zero shadow_eval phase count in the profile, while
// the reference interpreter — shadowing unconditionally — records a
// positive one on the same search.
func TestConcreteSearchZeroShadowPhase(t *testing.T) {
	src := `
int steady() {
    int s = 0;
    int i = 0;
    while (i < 20) {
        if (i % 3 == 0) s = s + i;
        i = i + 1;
    }
    return s;
}
`
	prog := compileT(t, src)
	shadowCount := func(interp bool) int64 {
		t.Helper()
		rep, err := Run(prog, Options{Toplevel: "steady", MaxRuns: 10, Seed: 1,
			CollectProfile: true, Interpreter: interp})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Profile == nil {
			t.Fatal("no profile collected")
		}
		for _, ph := range rep.Profile.Phases {
			if ph.Phase == obs.SpanShadow {
				return ph.Count
			}
		}
		return 0
	}
	if n := shadowCount(false); n != 0 {
		t.Errorf("compiled engine recorded %d shadow evals on an input-free program, want 0", n)
	}
	if n := shadowCount(true); n == 0 {
		t.Errorf("interpreter recorded 0 shadow evals; phase counter broken")
	}
}

// TestTaintSpreadExplainParity is the other half of the taint-bitmap
// contract: on a program whose inputs do spread taint through memory,
// skipping untainted shadow work must not change a single verdict in
// the coverage explainer's resolved ledger.  The compiled engine's
// ledger is compared byte-for-byte against the reference
// interpreter's (the PR 8 semantics).
func TestTaintSpreadExplainParity(t *testing.T) {
	for _, tc := range []struct {
		name, src, top string
		depth          int
	}{
		{"filter", progs.Filter, "entry", 0},
		{"ac-controller", progs.ACController, "ac_controller", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := compileT(t, tc.src)
			var ledgers [2]string
			for i, interp := range []bool{false, true} {
				rep, err := Run(prog, Options{Toplevel: tc.top, Depth: tc.depth,
					MaxRuns: 400, Seed: 8, CollectExplain: true, Interpreter: interp})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Explain == nil {
					t.Fatal("no explain ledger collected")
				}
				resolved := concolic.ResolveExplain(prog.IR, rep.Explain, rep.Coverage)
				js, err := json.Marshal(resolved)
				if err != nil {
					t.Fatal(err)
				}
				ledgers[i] = string(js)
			}
			if ledgers[0] != ledgers[1] {
				t.Errorf("explain ledgers diverge:\ncompiled: %s\ninterp:   %s", ledgers[0], ledgers[1])
			}
		})
	}
}

// TestLibBlackBoxWitnesses pins the symbolic memory S across the
// library black boxes that touch memory (Sec. 3.1).  A library function
// runs on concrete values only, so a cell it writes holds a concrete
// value (its input shadow must not survive the write), and a cell it
// reads that holds an input-dependent value takes the run outside the
// theory (all_linear must clear).  memcpy over an input cell and strlen
// over an input character must therefore never be reported Complete
// without the reachable abort, and the memset witness, whose abort is
// unreachable, must be proven Complete in one run with no
// misprediction.  Each case runs under both engines and seeds 1–5.
func TestLibBlackBoxWitnesses(t *testing.T) {
	cases := []struct {
		name, src string
		// unreachable: the abort cannot fire, so the search must prove it
		// in one run; otherwise it must not claim Complete without it.
		unreachable bool
	}{
		{"memcpy", `int f(int x, int y) { int b[1]; b[0] = x; memcpy((char *) b, (char *) &y, 1); if (x == 3) { if (b[0] == 12345) abort(); } return 0; }`, false},
		{"strlen", `int f(char c) { char s[2]; s[0] = c; s[1] = 0; if (strlen(s) == 0) abort(); return 0; }`, false},
		{"memset", `int f(int x) { int b[1]; b[0] = x; memset((char *) b, 0, 1); if (b[0] == 7) abort(); return 0; }`, true},
	}
	for _, tc := range cases {
		prog := compileT(t, tc.src)
		for _, interp := range []bool{false, true} {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("%s/interp=%t/seed=%d", tc.name, interp, seed), func(t *testing.T) {
					rep, err := Run(prog, Options{Toplevel: "f", MaxRuns: 50, Seed: seed, Interpreter: interp})
					if err != nil {
						t.Fatal(err)
					}
					if tc.unreachable {
						if !rep.Complete || rep.Runs != 1 || rep.Mispredicts != 0 || len(rep.Bugs) != 0 {
							t.Errorf("complete=%t runs=%d mispredicts=%d bugs=%d, want a one-run Complete proof",
								rep.Complete, rep.Runs, rep.Mispredicts, len(rep.Bugs))
						}
						return
					}
					if rep.Complete && len(rep.Bugs) == 0 {
						t.Errorf("Complete after %d runs with no bug, but the abort is reachable", rep.Runs)
					}
				})
			}
		}
	}
}
