package concolic

import (
	"reflect"
	"testing"

	"dart/internal/machine"
	"dart/internal/types"
)

// TestRecorderSkipsStaleRun: a run whose directions the kept runs
// already cover is dropped before anything is built for it (no
// allocation), and a run that adds one direction, taken or not, is
// kept with every direction it executed, deduplicated in
// first-execution order.
func TestRecorderSkipsStaleRun(t *testing.T) {
	regs := machine.NewInputTrie()
	x := regs.Root("d0.x", types.IntType)
	r := newRunRecorder(4, regs)
	im := &vector{}
	im.set(x.Var, 7)
	br := func(dirs ...CovDir) []machine.BranchRec {
		var out []machine.BranchRec
		for _, d := range dirs {
			out = append(out, machine.BranchRec{Site: d.Site, Taken: d.Taken})
		}
		return out
	}

	r.observe(im, br(CovDir{0, true}, CovDir{1, false}, CovDir{0, true}))
	if n := len(r.log()); n != 1 {
		t.Fatalf("first run: %d records, want 1", n)
	}

	// A pointer-shape decision (site -1) is no program direction.
	stale := br(CovDir{1, false}, CovDir{-1, true}, CovDir{0, true}, CovDir{1, false})
	r.observe(im, stale)
	if n := len(r.log()); n != 1 {
		t.Fatalf("stale run kept: %d records, want 1", n)
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { r.observe(im, stale) }); allocs != 0 {
			t.Errorf("%v allocations per stale run, want 0", allocs)
		}
	}

	im.set(x.Var, -3)
	r.observe(im, br(CovDir{1, false}, CovDir{0, true}, CovDir{1, false}, CovDir{2, true}, CovDir{0, true}))
	log := r.log()
	if len(log) != 2 {
		t.Fatalf("fresh run: %d records, want 2", len(log))
	}
	want := RunRecord{
		Inputs: map[string]int64{"d0.x": -3},
		Cover:  []CovDir{{1, false}, {0, true}, {2, true}},
	}
	if !reflect.DeepEqual(log[1], want) {
		t.Errorf("fresh run kept as %+v, want %+v", log[1], want)
	}

	// The other direction of a covered site is a direction too.
	r.observe(im, br(CovDir{1, false}, CovDir{0, false}))
	if log := r.log(); len(log) != 3 || !reflect.DeepEqual(log[2].Cover, []CovDir{{1, false}, {0, false}}) {
		t.Errorf("run adding a not-taken direction: log %+v", log)
	}
	if got := r.union.Covered(); got != 4 {
		t.Errorf("union covers %d directions, want 4", got)
	}
}
