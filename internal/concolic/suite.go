// Suite replay: the warm path of the incremental re-audit pipeline, and
// the executable form of Theorem 1(a).
//
// A distilled suite is a handful of recorded input vectors; replaying
// it is pure concrete execution — no symbolic shadow, no solver — on
// the generated test driver with one pooled machine, so an unchanged
// function re-validates in milliseconds.  The replay reports everything
// the corpus needs to validate its entry against the current program:
// each case's covered branch directions and termination.
package concolic

import (
	"fmt"

	"dart/internal/ir"
	"dart/internal/machine"
)

// CaseResult describes one replayed suite case.
type CaseResult struct {
	// Cover is every branch direction the case executed (deduped, in
	// first-execution order).
	Cover []CovDir
	// Err is the run's abnormal termination (nil for a clean halt);
	// Interrupted means the suite's deadline or cancel tripped.
	Err *machine.RunError
	// Missing lists input keys the vector did not contain (the program
	// drew fresh inputs the recording never saw — a stale vector).
	Missing []string
}

// ReplaySuite executes each recorded input vector concretely on one
// pooled machine and reports per-case coverage and outcome.  Options
// supplies the toplevel, depth, step budget, library bindings, timeout,
// and engine (compiled, or the interpreter with Options.Interpreter)
// exactly as for a search; solver- and strategy-related options are
// ignored.  A machine-construction failure, or an internal panic while
// replaying, returns an error — the corpus treats any error as "entry
// invalid, fall back to full search".
func ReplaySuite(prog *ir.Prog, opts Options, cases []map[string]int64) (results []CaseResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			results, err = nil, fmt.Errorf("concolic: suite replay panic: %v", r)
		}
	}()
	s, err := newSearch(prog, opts)
	if err != nil {
		return nil, err
	}
	var src caseInputs
	drv := newDriver(s, machine.Config{Inputs: &src})
	results = make([]CaseResult, 0, len(cases))
	dirbuf := map[CovDir]bool{}
	for _, inputs := range cases {
		src = caseInputs{im: inputs}
		m, rerr, err := drv.run()
		if err != nil {
			return nil, err
		}
		results = append(results, CaseResult{Cover: runCover(m.Branches, dirbuf), Err: rerr, Missing: src.missing})
	}
	return results, nil
}

// caseInputs is replay's concrete input source: an input reads the
// recorded case by key; one the case lacks reads as zero, listed missing.
type caseInputs struct {
	im      map[string]int64
	missing []string
}

func (c *caseInputs) ScalarInput(in *machine.Input) int64 {
	x, ok := c.im[in.Key]
	if !ok {
		c.missing = append(c.missing, in.Key)
	}
	return x
}

func (c *caseInputs) PointerInput(in *machine.Input) bool { return c.ScalarInput(in) != 0 }
func (c *caseInputs) Symbolic() bool                      { return false }

// Replay executes the program once, concretely, on a recorded input
// vector (a Bug's Inputs): a one-case ReplaySuite, on the engine
// Options.Interpreter selects.  It returns how the run ended: nil for
// normal termination, or the RunError that reproduces the bug.  Replay
// is the executable form of the paper's Theorem 1(a): every error DART
// reports comes with an input vector whose plain concrete execution
// exhibits it.
func Replay(prog *ir.Prog, opts Options, inputs map[string]int64) (*machine.RunError, error) {
	res, err := ReplaySuite(prog, opts, []map[string]int64{inputs})
	if err != nil {
		return nil, err
	}
	if missing := res[0].Missing; len(missing) > 0 {
		return nil, fmt.Errorf("concolic: replay vector is missing inputs %v", missing)
	}
	if rerr := res[0].Err; rerr != nil && rerr.Outcome != machine.HaltOK {
		return rerr, nil
	}
	return nil, nil
}
