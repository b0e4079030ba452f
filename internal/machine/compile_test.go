package machine

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"dart/internal/symbolic"
)

// twoEngines builds a compiled machine and a reference interpreter
// over the same program with independent (but identically seeded)
// input sources.
func twoEngines(t *testing.T, src string) (compiled, interp *Machine) {
	t.Helper()
	prog := compile(t, src)
	var err error
	compiled, err = New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls(), Code: Compile(prog)})
	if err != nil {
		t.Fatal(err)
	}
	interp, err = New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls()})
	if err != nil {
		t.Fatal(err)
	}
	return compiled, interp
}

// TestNarrowStoreParity is the regression test for the truncStore
// suspect: a store into a narrow (char) cell must truncate and
// sign-extend identically in the compiled engine and the interpreter,
// including when the overflowing value feeds a branch.  A compiled
// Assign that skipped the StoreTy truncation would leave c == 200
// here, flip the branch, and diverge on return value, branch record,
// and step count at once.
func TestNarrowStoreParity(t *testing.T) {
	src := `
int widen(int a) {
    char c = a;
    c = c + 100;
    if (c < 0) return c;
    return c + 1000;
}
`
	for _, a := range []int64{0, 100, 127, -128, 255} {
		cm, im := twoEngines(t, src)
		cv, cerr := cm.RunCall("widen", []Value{{V: a}})
		iv, ierr := im.RunCall("widen", []Value{{V: a}})
		if (cerr == nil) != (ierr == nil) {
			t.Fatalf("a=%d: error divergence: compiled=%v interp=%v", a, cerr, ierr)
		}
		if cv.V != iv.V {
			t.Errorf("a=%d: compiled=%d interp=%d", a, cv.V, iv.V)
		}
		if cm.Steps() != im.Steps() {
			t.Errorf("a=%d: steps compiled=%d interp=%d", a, cm.Steps(), im.Steps())
		}
		if !reflect.DeepEqual(cm.Branches, im.Branches) {
			t.Errorf("a=%d: branch records diverge:\ncompiled: %+v\ninterp:   %+v", a, cm.Branches, im.Branches)
		}
	}
	// The interesting case really does overflow: char(100)+100 wraps
	// negative, so the taken branch must be the c < 0 arm.
	cm, _ := twoEngines(t, src)
	v, rerr := cm.RunCall("widen", []Value{{V: 100}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if v.V != -56 {
		t.Errorf("widen(100) = %d, want -56 (narrow store must wrap)", v.V)
	}
}

// TestResetClearsStepCounter is the regression test for the
// checkInterrupt suspect: the amortized step counter must restart
// from zero when a pooled machine is Reset, or the second run
// inherits the first run's consumed budget (and its interrupt-poll
// phase).  Without the reset, the clean second run here would trip
// StepLimit immediately.
func TestResetClearsStepCounter(t *testing.T) {
	src := `
int spin(int n) {
    int s = 0;
    while (n > 0) { s = s + n; n = n - 1; }
    return s;
}
`
	prog := compile(t, src)
	m, err := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls(),
		Code: Compile(prog), MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := m.RunCall("spin", []Value{{V: 100000}})
	if rerr == nil || rerr.Outcome != StepLimit {
		t.Fatalf("first run: got %v, want StepLimit", rerr)
	}
	if err := m.Reset(newFixedSource()); err != nil {
		t.Fatal(err)
	}
	if m.Steps() != 0 {
		t.Fatalf("Steps() = %d after Reset, want 0", m.Steps())
	}
	v, rerr := m.RunCall("spin", []Value{{V: 10}})
	if rerr != nil {
		t.Fatalf("second run after Reset: %v (step counter leaked across Reset?)", rerr)
	}
	if v.V != 55 {
		t.Errorf("spin(10) = %d, want 55", v.V)
	}

	// The pooled machine's step count for a given run must equal a
	// fresh machine's: interrupt polling is keyed to steps, so replay
	// determinism depends on this.
	fresh, err := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls(),
		Code: Compile(prog), MaxSteps: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := fresh.RunCall("spin", []Value{{V: 10}}); rerr != nil {
		t.Fatal(rerr)
	}
	if m.Steps() != fresh.Steps() {
		t.Errorf("pooled run steps = %d, fresh run steps = %d", m.Steps(), fresh.Steps())
	}
}

// TestResetAfterPoisonedRun checks that a run that dies mid-frame —
// nested calls live, heap allocated, locals tainted — leaves the
// pooled machine fully reusable: after Reset, a clean run must match
// a fresh machine bit for bit (value, steps, branch records, shadow
// work).
func TestResetAfterPoisonedRun(t *testing.T) {
	src := `
int inner(int x) {
    int *p = malloc(8);
    *p = x;
    if (x == 0) {
        int *q = 0;
        return *q;
    }
    free(p);
    return x * 2;
}
int outer(int x) {
    int y = inner(x);
    if (y > 4) return y + 1;
    return y;
}
`
	prog := compile(t, src)
	pooled, err := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls(), Code: Compile(prog)})
	if err != nil {
		t.Fatal(err)
	}
	// Poison: tainted argument steers into the null deref, dying with
	// two frames pushed, an unfreed heap block, and live taint bits.
	poison := []Value{{V: 0, Sym: symbolic.NewVar(symbolic.Var(0))}}
	if _, rerr := pooled.RunCall("outer", poison); rerr == nil || rerr.Outcome != Crashed {
		t.Fatalf("poisoned run: got %v, want Crashed", rerr)
	}
	if err := pooled.Reset(newFixedSource()); err != nil {
		t.Fatal(err)
	}

	clean := []Value{{V: 7, Sym: symbolic.NewVar(symbolic.Var(0))}}
	pv, prerr := pooled.RunCall("outer", clean)
	fresh, err := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls(), Code: Compile(prog)})
	if err != nil {
		t.Fatal(err)
	}
	fv, frerr := fresh.RunCall("outer", clean)
	if prerr != nil || frerr != nil {
		t.Fatalf("clean runs errored: pooled=%v fresh=%v", prerr, frerr)
	}
	if pv.V != fv.V || pv.V != 15 {
		t.Errorf("pooled=%d fresh=%d, want 15", pv.V, fv.V)
	}
	if pooled.Steps() != fresh.Steps() {
		t.Errorf("steps: pooled=%d fresh=%d", pooled.Steps(), fresh.Steps())
	}
	if pooled.ShadowEvals() != fresh.ShadowEvals() {
		t.Errorf("shadow evals: pooled=%d fresh=%d", pooled.ShadowEvals(), fresh.ShadowEvals())
	}
	if !reflect.DeepEqual(pooled.Branches, fresh.Branches) {
		t.Errorf("branch records diverge:\npooled: %+v\nfresh:  %+v", pooled.Branches, fresh.Branches)
	}
	if pooled.AllLinear() != fresh.AllLinear() || pooled.AllLocsDefinite() != fresh.AllLocsDefinite() {
		t.Errorf("completeness flags diverge after poisoned run")
	}
}

// TestBranchSnapshotDetachedFromPool pins the copy-out discipline the
// search relies on: a consumer that snapshots Branches (as the
// concolic engine does when recording a run) must keep an intact copy
// even though Reset truncates to Branches[:0] and the next run
// overwrites the same backing array.
func TestBranchSnapshotDetachedFromPool(t *testing.T) {
	src := `
int pick(int a) {
    if (a > 5) return 1;
    return 0;
}
`
	prog := compile(t, src)
	m, err := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls(), Code: Compile(prog)})
	if err != nil {
		t.Fatal(err)
	}
	arg := func(v int64) []Value { return []Value{{V: v, Sym: symbolic.NewVar(symbolic.Var(0))}} }
	if _, rerr := m.RunCall("pick", arg(9)); rerr != nil {
		t.Fatal(rerr)
	}
	snap := append([]BranchRec(nil), m.Branches...)
	want := append([]BranchRec(nil), m.Branches...)
	if len(snap) == 0 || !snap[0].Taken {
		t.Fatalf("expected a taken branch record, got %+v", snap)
	}
	if err := m.Reset(newFixedSource()); err != nil {
		t.Fatal(err)
	}
	if _, rerr := m.RunCall("pick", arg(1)); rerr != nil {
		t.Fatal(rerr)
	}
	if len(m.Branches) == 0 || m.Branches[0].Taken {
		t.Fatalf("second run should record a not-taken branch, got %+v", m.Branches)
	}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("snapshot mutated by pooled reuse:\ngot:  %+v\nwant: %+v", snap, want)
	}
}

// TestConcreteRunSkipsShadow pins the taint bitmap's payoff: a run
// whose inputs are fully concrete (no symbolic argument, no tainted
// cell) performs zero shadow evaluations in the compiled engine,
// while the reference interpreter — which evaluates the shadow
// unconditionally — performs many on the same program.
func TestConcreteRunSkipsShadow(t *testing.T) {
	src := `
int churn(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        if (i % 2 == 0) s = s + i;
        else s = s - 1;
        i = i + 1;
    }
    return s;
}
`
	cm, im := twoEngines(t, src)
	cv, rerr := cm.RunCall("churn", []Value{{V: 50}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	iv, rerr := im.RunCall("churn", []Value{{V: 50}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if cv.V != iv.V {
		t.Fatalf("value divergence: compiled=%d interp=%d", cv.V, iv.V)
	}
	if n := cm.ShadowEvals(); n != 0 {
		t.Errorf("compiled engine recorded %d shadow evals on a concrete run, want 0", n)
	}
	if n := im.ShadowEvals(); n == 0 {
		t.Errorf("interpreter recorded 0 shadow evals; counter broken")
	}

	// With a tainted argument the compiled engine must pay for the
	// shadow again — and pay exactly as much as the interpreter,
	// since every instruction now touches tainted data.
	cm2, im2 := twoEngines(t, src)
	targ := []Value{{V: 50, Sym: symbolic.NewVar(symbolic.Var(0))}}
	if _, rerr := cm2.RunCall("churn", targ); rerr != nil {
		t.Fatal(rerr)
	}
	if _, rerr := im2.RunCall("churn", targ); rerr != nil {
		t.Fatal(rerr)
	}
	if cm2.ShadowEvals() == 0 {
		t.Errorf("compiled engine skipped shadow on a tainted run")
	}
	if !reflect.DeepEqual(cm2.Branches, im2.Branches) {
		t.Errorf("tainted branch records diverge")
	}
}

// TestCompiledErrorMessagesMatchInterp spot-checks that compile-time
// interception of bad instructions (negative branch targets would
// collide with the return sentinel) preserves the interpreter's
// crash vocabulary for runtime faults.
func TestCompiledErrorMessagesMatchInterp(t *testing.T) {
	src := `
int boom(int a) {
    int *p = 0;
    return *p + a;
}
`
	cm, im := twoEngines(t, src)
	_, cerr := cm.RunCall("boom", []Value{{V: 1}})
	_, ierr := im.RunCall("boom", []Value{{V: 1}})
	if cerr == nil || ierr == nil {
		t.Fatalf("expected crashes, got compiled=%v interp=%v", cerr, ierr)
	}
	if cerr.Outcome != ierr.Outcome || cerr.Msg != ierr.Msg || cerr.Pos != ierr.Pos {
		t.Errorf("crash divergence:\ncompiled: %+v\ninterp:   %+v", cerr, ierr)
	}
	if !strings.Contains(cerr.Msg, "NULL pointer") {
		t.Errorf("crash message %q lost the NULL pointer vocabulary", cerr.Msg)
	}
}

// lazySrc has a mutually recursive pair reached from top, and a
// function nothing reaches from top.
const lazySrc = `
int isOdd(int n);
int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
int top(int n) { if (n < 0) return -1; return isEven(n) + 2 * isOdd(n); }
int unused(int n) { return n * 3; }
`

// TestCompileLowersOnFirstCall pins lowering on first call: Compile
// lowers nothing, a call lowers exactly the functions it reaches, and
// an unreached function stays unlowered.
func TestCompileLowersOnFirstCall(t *testing.T) {
	prog := compile(t, lazySrc)
	code := Compile(prog)
	for name, cf := range code.funcs {
		if cf.code != nil {
			t.Errorf("%s lowered by Compile", name)
		}
	}
	m, err := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls(), Code: code})
	if err != nil {
		t.Fatal(err)
	}
	v, rerr := m.RunCall("top", []Value{{V: 5}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	if v.V != 2 {
		t.Errorf("top(5) = %d, want 2", v.V)
	}
	for _, name := range []string{"top", "isEven", "isOdd"} {
		if code.funcs[name].code == nil {
			t.Errorf("%s reached but not lowered", name)
		}
	}
	if code.funcs["unused"].code != nil {
		t.Error("unused lowered although no call reached it")
	}
}

// TestCompiledSharedFirstCallRace: eight machines over one shared
// Compiled make their first call into the same toplevel at once, so
// every function is lowered while other goroutines wait to run it.
// Run under -race; every machine must match the interpreter.
func TestCompiledSharedFirstCallRace(t *testing.T) {
	prog := compile(t, lazySrc)
	code := Compile(prog)
	const n = 9
	ref, err := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls()})
	if err != nil {
		t.Fatal(err)
	}
	want, rerr := ref.RunCall("top", []Value{{V: n}})
	if rerr != nil {
		t.Fatal(rerr)
	}
	start := make(chan struct{})
	got := make([]int64, 8)
	errs := make([]*RunError, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := New(Config{Prog: prog, Inputs: newFixedSource(), LibImpls: StdLibImpls(), Code: code})
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			v, rerr := m.RunCall("top", []Value{{V: n}})
			got[g], errs[g] = v.V, rerr
		}()
	}
	close(start)
	wg.Wait()
	for g := range got {
		if errs[g] != nil || got[g] != want.V {
			t.Errorf("machine %d: top(%d) = %d, %v; interpreter says %d", g, n, got[g], errs[g], want.V)
		}
	}
}
