package concolic

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"dart/internal/machine"
	"dart/internal/obs"
	"dart/internal/progs"
	"dart/internal/symbolic"
	"dart/internal/types"
)

// bugSigs is the canonical bug-set identity of a report: the sorted
// (kind, msg, pos) signatures, ignoring run indices and input padding —
// exactly what "deterministic modulo worker count" promises.
func bugSigs(rep *Report) []string {
	sigs := make([]string, 0, len(rep.Bugs))
	for _, b := range rep.Bugs {
		sigs = append(sigs, b.Kind.String()+"|"+b.Msg+"|"+b.Pos.String())
	}
	sort.Strings(sigs)
	return sigs
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// multiBug holds three distinct reachable aborts behind independent
// conditions, so the search-wide bug set exercises cross-worker dedup
// and the canonical merge order.
const multiBug = `
int multi(int a, int b) {
    if (a == 7)
        abort();
    if (b == 9)
        abort();
    if (a + b == 100)
        abort();
    return 0;
}
`

// TestWorkersDeterminism is the PR's core contract: on searches that
// exhaust their execution tree, the bug set and branch coverage are
// identical at workers = 1, 2, and 8, and among frontier-scheduled
// searches so are the completeness flags and misprediction counts.
//
// Two scoped caveats, both inherent to the engines rather than to the
// pool:
//
//   - At workers=1 the DFS strategy runs the paper's classic stack,
//     which restarts with fresh randoms forever when bugs keep the tree
//     from proving completeness — so its stop reason is max-runs, its
//     restart padding differs from the frontier's single tree, and its
//     flags are compared only against itself.  Every frontier search
//     (workers>1, and BFS at workers=1) must agree exactly.
//
//   - The test programs sum fresh 32-bit inputs, and the machine wraps
//     where the solver's exact arithmetic does not.  On seeds whose
//     padding wraps, the engine honestly mispredicts (clearing
//     Complete) but which subtrees survive becomes padding-dependent.
//     Seed 3's draws stay in the exact regime for every program here —
//     the regime Theorem 1's hypotheses assume — which a seed scan
//     verified holds for all worker counts.
func TestWorkersDeterminism(t *testing.T) {
	cases := []struct {
		name, src, top string
	}{
		{"clusters", progs.Clusters, "clusters"},
		{"solver-gate", progs.SolverGate, "gate"},
		{"multi-bug", multiBug, "multi"},
	}
	for _, tc := range cases {
		for _, strat := range []Strategy{DFS, BFS} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, strat), func(t *testing.T) {
				prog := compile(t, tc.src)
				var base, fbase *Report
				for _, workers := range []int{1, 2, 8} {
					rep, err := Run(prog, Options{
						Toplevel: tc.top,
						MaxRuns:  2000,
						Seed:     3,
						Strategy: strat,
						Workers:  workers,
					})
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if rep.Workers != workers {
						t.Errorf("workers=%d: Report.Workers = %d", workers, rep.Workers)
					}
					frontier := workers > 1 || strat != DFS
					if frontier && rep.Stopped != StopExhausted {
						t.Fatalf("workers=%d: stopped %q, want exhausted (runs=%d)", workers, rep.Stopped, rep.Runs)
					}
					if base == nil {
						base = rep
						if len(rep.Bugs) == 0 {
							t.Fatalf("baseline found no bugs")
						}
					} else {
						if got, want := bugSigs(rep), bugSigs(base); !equalStrings(got, want) {
							t.Errorf("workers=%d: bug set %v, want %v", workers, got, want)
						}
						if rep.Coverage.Covered() != base.Coverage.Covered() {
							t.Errorf("workers=%d: coverage %d, want %d", workers, rep.Coverage.Covered(), base.Coverage.Covered())
						}
					}
					if !frontier {
						continue
					}
					if fbase == nil {
						fbase = rep
						continue
					}
					if rep.Complete != fbase.Complete ||
						rep.AllLinear != fbase.AllLinear ||
						rep.AllLocsDefinite != fbase.AllLocsDefinite ||
						rep.SolverComplete != fbase.SolverComplete ||
						rep.Mispredicts != fbase.Mispredicts {
						t.Errorf("workers=%d: flags (%v %v %v %v m=%d), want (%v %v %v %v m=%d)", workers,
							rep.Complete, rep.AllLinear, rep.AllLocsDefinite, rep.SolverComplete, rep.Mispredicts,
							fbase.Complete, fbase.AllLinear, fbase.AllLocsDefinite, fbase.SolverComplete, fbase.Mispredicts)
					}
				}
			})
		}
	}
}

// TestWorkersCompleteNoBugs checks Theorem 1(b) survives the merge: a
// bug-free exhaustible program reports Complete at every worker count.
func TestWorkersCompleteNoBugs(t *testing.T) {
	prog := compile(t, `
int safe(int a, int b) {
    if (a > 10) {
        if (b > 10)
            return 2;
        return 1;
    }
    return 0;
}
`)
	for _, workers := range []int{1, 2, 8} {
		rep, err := Run(prog, Options{Toplevel: "safe", MaxRuns: 500, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete {
			t.Errorf("workers=%d: Complete=false (stopped=%s, runs=%d)", workers, rep.Stopped, rep.Runs)
		}
		if len(rep.Bugs) != 0 {
			t.Errorf("workers=%d: unexpected bugs %v", workers, rep.Bugs)
		}
	}
}

// TestParallelFirstBugStops: StopAtFirstBug aborts the pool with
// exactly one reported bug and the matching stop reason.
func TestParallelFirstBugStops(t *testing.T) {
	prog := compile(t, multiBug)
	rep, err := Run(prog, Options{
		Toplevel: "multi", MaxRuns: 2000, Seed: 5,
		Workers: 4, StopAtFirstBug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stopped != StopFirstBug {
		t.Errorf("stopped %q, want first-bug", rep.Stopped)
	}
	if len(rep.Bugs) == 0 {
		t.Error("no bug on a first-bug stop")
	}
	if rep.Complete {
		t.Error("Complete=true after an aborted search")
	}
}

// TestParallelMaxRunsBudget: the shared run budget bounds total
// executions across workers, not per worker.
func TestParallelMaxRunsBudget(t *testing.T) {
	prog := compile(t, progs.SolverGate)
	rep, err := Run(prog, Options{Toplevel: "gate", MaxRuns: 5, Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs > 5 {
		t.Errorf("runs = %d, want <= shared MaxRuns 5", rep.Runs)
	}
	if rep.Stopped != StopMaxRuns {
		t.Errorf("stopped %q, want max-runs", rep.Stopped)
	}
}

// TestFrontierDropCounted: overflowing MaxFrontier is no longer silent —
// the drop count reaches the report and clears Complete, sequential and
// parallel alike.
func TestFrontierDropCounted(t *testing.T) {
	for _, workers := range []int{1, 2} {
		rep, err := Run(compile(t, progs.SolverGate), Options{
			Toplevel: "gate", MaxRuns: 2000, Seed: 7,
			Strategy: BFS, Workers: workers, MaxFrontier: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.FrontierDropped == 0 {
			t.Errorf("workers=%d: FrontierDropped = 0, want > 0", workers)
		}
		if rep.Complete {
			t.Errorf("workers=%d: Complete=true after dropping flips", workers)
		}
	}
}

// TestParallelSharedCacheHarmless: the sharded solve cache changes how
// much solver work a parallel search spends, never what it finds.
func TestParallelSharedCacheHarmless(t *testing.T) {
	prog := compile(t, progs.SolverGate)
	with, err := Run(prog, Options{Toplevel: "gate", MaxRuns: 2000, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(prog, Options{Toplevel: "gate", MaxRuns: 2000, Seed: 7, Workers: 4, SolveCacheCap: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(bugSigs(with), bugSigs(without)) {
		t.Errorf("cache changed the bug set: %v vs %v", bugSigs(with), bugSigs(without))
	}
	if with.Coverage.Covered() != without.Coverage.Covered() {
		t.Errorf("cache changed coverage: %d vs %d", with.Coverage.Covered(), without.Coverage.Covered())
	}
	if without.SolveCacheHits != 0 || without.SolveCacheMisses != 0 {
		t.Errorf("disabled cache reported activity: %d hits, %d misses", without.SolveCacheHits, without.SolveCacheMisses)
	}
}

// TestParallelLiveMetricsMatchReport: per-worker events folded through
// a fresh registry reproduce the merged report's counters exactly — the
// live-equals-final invariant the obs layer promises.
func TestParallelLiveMetricsMatchReport(t *testing.T) {
	var events obs.Collector
	rep, err := Run(compile(t, multiBug), Options{
		Toplevel: "multi", MaxRuns: 2000, Seed: 11,
		Workers: 4, Observer: &events,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics == nil {
		t.Fatal("no report metrics with an observer attached")
	}
	live := obs.NewMetrics()
	for _, ev := range events.Events() {
		live.Fold(&ev)
	}
	snap := live.Snapshot()
	for name, want := range rep.Metrics.Counters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("live counter %s = %d, report has %d", name, got, want)
		}
	}
	for name, got := range snap.Counters {
		if want := rep.Metrics.Counters[name]; got != want {
			t.Errorf("live counter %s = %d, report has %d", name, got, want)
		}
	}
}

// TestParallelEventsCarryWorker: every event of a parallel search names
// its 1-based worker; sequential searches stay worker-silent so their
// traces are byte-identical to pre-parallel ones.
func TestParallelEventsCarryWorker(t *testing.T) {
	var par obs.Collector
	if _, err := Run(compile(t, progs.Clusters), Options{
		Toplevel: "clusters", MaxRuns: 500, Seed: 2, Workers: 3, Observer: &par,
	}); err != nil {
		t.Fatal(err)
	}
	events := par.Events()
	if len(events) == 0 {
		t.Fatal("no events collected")
	}
	for _, ev := range events {
		if ev.Worker < 1 || ev.Worker > 3 {
			t.Fatalf("event %s has worker %d, want 1..3", ev.Kind, ev.Worker)
		}
	}

	var seq obs.Collector
	if _, err := Run(compile(t, progs.Clusters), Options{
		Toplevel: "clusters", MaxRuns: 500, Seed: 2, Observer: &seq,
	}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range seq.Events() {
		if ev.Worker != 0 {
			t.Fatalf("sequential event %s has worker %d, want 0", ev.Kind, ev.Worker)
		}
	}
}

// TestParallelBugsReplay: Theorem 1(a) per bug, merged report included —
// every reported input vector replays to its error under the sequential
// engine's dedicated replay path (the recorded IM drives the run).
func TestParallelBugsReplay(t *testing.T) {
	prog := compile(t, multiBug)
	rep, err := Run(prog, Options{Toplevel: "multi", MaxRuns: 2000, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bugs) == 0 {
		t.Fatal("no bugs to replay")
	}
	for _, b := range rep.Bugs {
		got, err := Replay(prog, Options{Toplevel: "multi"}, b.Inputs)
		if err != nil {
			t.Fatalf("replay %v: %v", b, err)
		}
		if got == nil || got.Outcome != b.Kind || got.Pos != b.Pos {
			t.Errorf("replay of %v reproduced %v", b, got)
		}
	}
}

// TestParallelStrategies: every branch-selection strategy runs under
// the pool and finds the gauntlet's bug.
func TestParallelStrategies(t *testing.T) {
	prog := compile(t, progs.Clusters)
	for _, strat := range []Strategy{DFS, BFS, RandomBranch} {
		rep, err := Run(prog, Options{
			Toplevel: "clusters", MaxRuns: 2000, Seed: 9, Strategy: strat, Workers: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(rep.Bugs) != 1 {
			t.Errorf("%s: %d bugs, want 1", strat, len(rep.Bugs))
		}
	}
}

// TestNoPhantomFlips pins when a flip is booked: when its run starts.
// On a MaxRuns-truncated search every run but the root and the fresh
// restarts forces exactly one flip, so the branch_flips counter, the
// profile's per-site flips and the branch-flip events must all equal
// runs − 1 − restarts, at every strategy and worker count — no flip
// solved after the last budgeted run may be reported.
func TestNoPhantomFlips(t *testing.T) {
	prog := compile(t, progs.ACController)
	for _, strat := range []Strategy{DFS, BFS, RandomBranch} {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", strat, workers), func(t *testing.T) {
				var mu sync.Mutex
				events := 0
				rep, err := Run(prog, Options{
					Toplevel:       "ac_controller",
					Depth:          2,
					MaxRuns:        7,
					Seed:           1,
					Strategy:       strat,
					Workers:        workers,
					CollectProfile: true,
					Observer: obs.SinkFunc(func(ev obs.Event) {
						if ev.Kind == obs.BranchFlip {
							mu.Lock()
							events++
							mu.Unlock()
						}
					}),
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Stopped != StopMaxRuns || rep.Runs != 7 {
					t.Fatalf("want a search truncated at 7 runs, got %d runs, stopped=%s", rep.Runs, rep.Stopped)
				}
				want := int64(rep.Runs - 1 - rep.Restarts)
				var profFlips int64
				for _, s := range rep.Profile.Sites {
					profFlips += s.Flips
				}
				counter := rep.Metrics.Counters[obs.CBranchFlips]
				if counter != want || profFlips != want || int64(events) != want {
					t.Errorf("runs=%d restarts=%d: branch_flips=%d profile flips=%d branch-flip events=%d, want %d each",
						rep.Runs, rep.Restarts, counter, profFlips, events, want)
				}
			})
		}
	}
}

// shapeSource is a symbolic input source that allocates every pointer
// input shallower than limit and records each input it is asked for.
type shapeSource struct {
	limit int
	seen  map[string]*machine.Input
}

func (s *shapeSource) ScalarInput(in *machine.Input) int64 {
	s.seen[in.Key] = in
	return 1
}

func (s *shapeSource) PointerInput(in *machine.Input) bool {
	s.seen[in.Key] = in
	return in.Depth < s.limit
}

func (s *shapeSource) Symbolic() bool { return true }

// TestRegistryConcurrentIntern drives one search registry from eight
// machines at once, as the workers of a pool do: each initializes the
// same two roots, in its own order, down a linked list of its own length,
// so the goroutines intern the same and overlapping paths concurrently.
// Every path must end up as exactly one node whose key is its path, and
// the leaves must be numbered densely.  scripts/check.sh runs it under
// -race with -count=10.
func TestRegistryConcurrentIntern(t *testing.T) {
	prog := compile(t, `
struct node { int v; char tag[2]; struct node *next; };
int f(struct node *a, int b) { return b; }
`)
	list := &types.Pointer{Elem: prog.Structs["node"]}
	regs := machine.NewInputTrie()
	const workers = 8
	sources := make([]*shapeSource, workers)
	var wg sync.WaitGroup
	for g := range sources {
		src := &shapeSource{limit: 1 + g%4, seen: map[string]*machine.Input{}}
		sources[g] = src
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := machine.New(machine.Config{Prog: prog, Inputs: src, Trie: regs})
			if err != nil {
				t.Error(err)
				return
			}
			roots := []func() *machine.Input{
				func() *machine.Input { return regs.Root("d0.a", list) },
				func() *machine.Input { return regs.Root("d0.b", types.IntType) },
			}
			if g%2 == 1 {
				roots[0], roots[1] = roots[1], roots[0]
			}
			for round := 0; round < 3; round++ {
				for _, root := range roots {
					cell, _ := m.Mem().Alloc(1)
					if err := m.RandomInit(cell, root()); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()

	seen := map[string]*machine.Input{}
	for _, src := range sources {
		for key, in := range src.seen {
			if prev, ok := seen[key]; ok && prev != in {
				t.Errorf("two nodes for path %q", key)
			}
			seen[key] = in
			if in.Key != key {
				t.Errorf("node for path %q is keyed %q", key, in.Key)
			}
			if got, _ := regs.Lookup(key); got != in {
				t.Errorf("registry resolves %q to another node", key)
			}
		}
	}
	// Four list cells (v, tag[0], tag[1] and next each), the head
	// pointer, and b.
	leaves := regs.Leaves()
	if len(leaves) != 4*4+2 || len(seen) != len(leaves) {
		t.Errorf("%d leaves, %d inputs seen, want %d of each", len(leaves), len(seen), 4*4+2)
	}
	for i, in := range leaves {
		if in.Var != symbolic.Var(i) {
			t.Errorf("leaf %d (%s) numbered %d", i, in.Key, in.Var)
		}
		if seen[in.Key] != in {
			t.Errorf("leaf %s was never reached", in.Key)
		}
	}
	for _, key := range []string{"d0.a.*.next.*.next.*.next.*.tag[1]", "d0.a.*.next.*.next.*.next.*.next", "d0.b"} {
		if _, ok := seen[key]; !ok {
			t.Errorf("path %q was not interned", key)
		}
	}
}
