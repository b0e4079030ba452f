package concolic

import (
	"fmt"
	"reflect"
	"testing"

	"dart/internal/progs"
	"dart/internal/solver"
)

// normalizeFastPath strips the report fields the solve cache is allowed
// to change — its own activity counters and wall-clock/metrics noise.
// Everything else (bugs, runs, coverage, verdict accounting, stop
// reason, completeness flags) must be identical cache-on vs cache-off.
func normalizeFastPath(r *Report) *Report {
	c := *r
	c.Elapsed = 0
	c.Metrics = nil
	c.SolveCacheHits, c.SolveCacheMisses, c.SolveCacheEvictions = 0, 0, 0
	return &c
}

// TestSolveCacheOnOffIdenticalReports: the cache is a pure memo — for a
// fixed seed the report must be identical with it on, off, or starved
// down to a single entry, under both the classic stack engine (DFS) and
// the frontier engine (BFS).
func TestSolveCacheOnOffIdenticalReports(t *testing.T) {
	programs := []struct{ name, src, fn string }{
		{"SolverGate", progs.SolverGate, "gate"},
		{"Clusters", progs.Clusters, "clusters"},
	}
	for _, p := range programs {
		prog := compile(t, p.src)
		for _, s := range []Strategy{DFS, BFS} {
			base := Options{Toplevel: p.fn, MaxRuns: 300, Seed: 11, Strategy: s}
			on := base // SolveCacheCap 0: default capacity
			off := base
			off.SolveCacheCap = -1
			tiny := base
			tiny.SolveCacheCap = 1
			repOn, err := Run(prog, on)
			if err != nil {
				t.Fatal(err)
			}
			repOff, err := Run(prog, off)
			if err != nil {
				t.Fatal(err)
			}
			repTiny, err := Run(prog, tiny)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeFastPath(repOn), normalizeFastPath(repOff)) {
				t.Errorf("%s/%v: cache on and off reports differ:\n on: %+v\noff: %+v",
					p.name, s, repOn, repOff)
			}
			if !reflect.DeepEqual(normalizeFastPath(repTiny), normalizeFastPath(repOff)) {
				t.Errorf("%s/%v: single-entry cache changed the report", p.name, s)
			}
			if repOff.SolveCacheHits != 0 || repOff.SolveCacheMisses != 0 {
				t.Errorf("%s/%v: disabled cache reported activity", p.name, s)
			}
		}
	}
}

// TestSolveCacheHitsOnGate: the gate program's sequential conditionals
// produce many flips whose slices repeat, so the cache must actually
// get hits there (otherwise the on/off equality test is vacuous).
func TestSolveCacheHitsOnGate(t *testing.T) {
	prog := compile(t, progs.SolverGate)
	rep, err := Run(prog, Options{Toplevel: "gate", MaxRuns: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SolveCacheHits == 0 {
		t.Errorf("no cache hits on the gate program (misses=%d)", rep.SolveCacheMisses)
	}
	if rep.SolveCacheHits+rep.SolveCacheMisses != rep.SolverCalls {
		t.Errorf("hits(%d)+misses(%d) != solver calls(%d)",
			rep.SolveCacheHits, rep.SolveCacheMisses, rep.SolverCalls)
	}
}

// TestSolveCacheEvictionAtTinyCapacity: a single-entry cache on a
// program with more than one distinct slice must evict.
func TestSolveCacheEvictionAtTinyCapacity(t *testing.T) {
	prog := compile(t, progs.SolverGate)
	rep, err := Run(prog, Options{Toplevel: "gate", MaxRuns: 300, Seed: 11, SolveCacheCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SolveCacheEvictions == 0 {
		t.Error("single-entry cache never evicted on the gate program")
	}
}

// lyingDisk is a corrupt or adversarial solve log: it answers every
// portable key Sat with an empty model and stores nothing.
type lyingDisk struct{}

func (lyingDisk) GetPortable(string) (solver.PortableResult, bool) {
	return solver.PortableResult{Verdict: solver.Sat}, true
}

func (lyingDisk) PutPortable(string, solver.Verdict, map[string]int64) {}

// TestLyingDiskSatVerified: the disk layer is untrusted input, so a Sat
// it answers is verified against the full flip constraint even when
// slicing pruned nothing.  An empty model completes to the parent run's
// own inputs, which violate the negated predicate; each such answer
// must become an unproven Unsat (clearing SolverComplete) instead of a
// forced run that mispredicts.  A char input repeats its random values
// within the run budget, so the same slice and hint recur: a rejected
// answer must not reach the LRU, whose hits on unpruned slices are not
// re-verified.
func TestLyingDiskSatVerified(t *testing.T) {
	for _, p := range []struct{ name, src, fn string }{
		{"section21", progs.Section21, "h"},
		{"ac_controller", progs.ACController, "ac_controller"},
		{"char", "int f(char c) { if (c == 5) abort(); return 0; }", "f"},
	} {
		prog := compile(t, p.src)
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", p.name, w), func(t *testing.T) {
				rep, err := Run(prog, Options{Toplevel: p.fn, MaxRuns: 200, Seed: 1, Workers: w, Persistent: lyingDisk{}})
				if err != nil {
					t.Fatal(err)
				}
				if rep.SolveCacheDiskHits == 0 {
					t.Fatal("the lying disk layer answered no solve")
				}
				if rep.Mispredicts != 0 {
					t.Errorf("%d runs forced by unverified disk answers mispredicted", rep.Mispredicts)
				}
				if rep.SolverComplete {
					t.Error("SolverComplete survived disk answers that refute nothing")
				}
			})
		}
	}
}

// TestSlicingOnClusters: the Clusters program's innermost flip only
// constrains a, so slicing must prune the independent b and c+d
// predicates — and the bug it leads to must still be found and replay.
func TestSlicingOnClusters(t *testing.T) {
	prog := compile(t, progs.Clusters)
	opts := Options{Toplevel: "clusters", MaxRuns: 100, Seed: 3}
	rep, err := Run(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SlicedPreds == 0 {
		t.Error("no predicates sliced on a program with three independent variable clusters")
	}
	bug := rep.FirstBug()
	if bug == nil {
		t.Fatalf("bug not found in %d runs", rep.Runs)
	}
	rerr, err := Replay(prog, opts, bug.Inputs)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rerr == nil || rerr.Outcome != bug.Kind {
		t.Errorf("replay of sliced-search bug: got %v, want %v", rerr, bug.Kind)
	}
}

// TestRandomBugsReplay: bugs found by the pure random baseline must be
// just as replayable as directed-search bugs (Theorem 1(a) is a
// property of the report, not the engine).
func TestRandomBugsReplay(t *testing.T) {
	prog := compile(t, progs.StraightLineDeref)
	opts := Options{Toplevel: "poke", MaxRuns: 20, Seed: 5}
	rep, err := RandomTest(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) == 0 {
		t.Fatal("random testing missed the coin-flip NULL crash in 20 runs")
	}
	for _, bug := range rep.Bugs {
		if len(bug.Inputs) == 0 {
			t.Fatalf("random-mode bug recorded no inputs: %+v", bug)
		}
		rerr, err := Replay(prog, opts, bug.Inputs)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if rerr == nil || rerr.Outcome != bug.Kind || rerr.Msg != bug.Msg || rerr.Pos != bug.Pos {
			t.Errorf("random bug does not replay: recorded %v %q at %v, replayed %+v",
				bug.Kind, bug.Msg, bug.Pos, rerr)
		}
	}
}
