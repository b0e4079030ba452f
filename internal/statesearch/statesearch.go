// Package statesearch is a VeriSoft-style explicit-state model checker
// over MiniC programs: the baseline the paper compares DART against in
// Sec. 4.2 (Godefroid's VeriSoft exploring the product of the protocol
// implementation with a nondeterministic intruder process).
//
// Where DART treats the program as a white box and derives inputs from
// path constraints, a state-space search treats it as a black box: the
// environment blindly enumerates input sequences drawn from a *finite
// alphabet* that the analyst must supply, and the search prunes
// sequences that revisit an already-seen global state.  The comparison
// the paper draws is reproduced directly: with a well-chosen alphabet
// the enumeration is effective, but choosing that alphabet requires the
// human insight (the attacker's nonces, the agent names) that DART
// derives automatically — and with a generic alphabet the state space
// explodes or the attack lies outside it entirely.
package statesearch

import (
	"fmt"

	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/token"
)

// Options configures a bounded search.
type Options struct {
	// Toplevel is the step function; one call consumes one input tuple.
	Toplevel string
	// Alphabet is the finite set of input tuples the environment may
	// send; each tuple assigns one value per toplevel parameter.
	Alphabet [][]int64
	// MaxDepth bounds the input-sequence length.
	MaxDepth int
	// MaxRuns bounds the total number of program executions.
	MaxRuns int
	// MaxSteps bounds each execution.
	MaxSteps int64
	// LibImpls supplies library black boxes.
	LibImpls map[string]machine.LibImpl
}

// Result summarizes a search.
type Result struct {
	// Bug is the first error found, if any.
	Bug *Bug
	// Runs is the number of program executions performed.
	Runs int
	// StatesSeen counts distinct global-state snapshots.
	StatesSeen int
	// Exhausted is true when the bounded space was fully explored.
	Exhausted bool
}

// Bug is an error with its triggering input sequence.
type Bug struct {
	Kind     machine.Outcome
	Msg      string
	Pos      token.Pos
	Sequence [][]int64
}

func (b *Bug) String() string {
	return fmt.Sprintf("[%v] %s at %v via %v", b.Kind, b.Msg, b.Pos, b.Sequence)
}

// fixedInputs feeds scripted argument tuples; anything else (extern
// globals, extern functions) reads as zero, keeping the model
// deterministic as VeriSoft's closed product requires.
type fixedInputs struct{}

func (fixedInputs) ScalarInput(*machine.Input) int64 { return 0 }
func (fixedInputs) PointerInput(*machine.Input) bool { return false }
func (fixedInputs) Symbolic() bool                   { return false }

// Search explores input sequences breadth-first with global-state
// pruning.
func Search(prog *ir.Prog, opts Options) (*Result, error) {
	fn, ok := prog.Lookup(opts.Toplevel)
	if !ok {
		return nil, fmt.Errorf("statesearch: no function %q", opts.Toplevel)
	}
	if len(opts.Alphabet) == 0 {
		return nil, fmt.Errorf("statesearch: empty alphabet")
	}
	for _, tuple := range opts.Alphabet {
		if len(tuple) != len(fn.Params) {
			return nil, fmt.Errorf("statesearch: alphabet tuple %v does not match %d parameters",
				tuple, len(fn.Params))
		}
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 4
	}
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 1_000_000
	}

	res := &Result{Exhausted: true}
	seen := map[uint64]bool{}

	// Frontier of input sequences whose end states are distinct.
	type node struct {
		seq   [][]int64
		depth int
	}
	frontier := []node{{seq: nil, depth: 0}}

	// Record the initial state.
	if h, _, err := execute(prog, opts, nil); err == nil {
		seen[h] = true
		res.StatesSeen++
		res.Runs++
	}

	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		if n.depth >= opts.MaxDepth {
			continue
		}
		for _, tuple := range opts.Alphabet {
			if res.Runs >= opts.MaxRuns {
				res.Exhausted = false
				return res, nil
			}
			seq := append(append([][]int64{}, n.seq...), tuple)
			res.Runs++
			h, rerr, err := execute(prog, opts, seq)
			if err != nil {
				return nil, err
			}
			if rerr != nil && rerr.Outcome != machine.HaltOK {
				res.Bug = &Bug{Kind: rerr.Outcome, Msg: rerr.Msg, Pos: rerr.Pos, Sequence: seq}
				res.Exhausted = false
				return res, nil
			}
			if seen[h] {
				continue // state already explored: prune the subtree
			}
			seen[h] = true
			res.StatesSeen++
			frontier = append(frontier, node{seq: seq, depth: n.depth + 1})
		}
	}
	return res, nil
}

// execute replays one input sequence from scratch (the model checker has
// no incremental state capture) and returns the fnv-1a hash of the
// global memory afterwards.
func execute(prog *ir.Prog, opts Options, seq [][]int64) (uint64, *machine.RunError, error) {
	libs := opts.LibImpls
	if libs == nil {
		libs = machine.StdLibImpls()
	}
	m, err := machine.New(machine.Config{
		Prog:     prog,
		Inputs:   fixedInputs{},
		LibImpls: libs,
		MaxSteps: opts.MaxSteps,
	})
	if err != nil {
		return 0, nil, err
	}
	for _, tuple := range seq {
		args := make([]machine.Value, len(tuple))
		for i, v := range tuple {
			args[i] = machine.Value{V: v}
		}
		if _, rerr := m.RunCall(opts.Toplevel, args); rerr != nil {
			return 0, rerr, nil
		}
	}
	return hashGlobals(m, prog.GlobalSize), nil, nil
}

// hashGlobals is fnv-1a over the global region.
func hashGlobals(m *machine.Machine, size int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	base := m.GlobalAddr(0)
	for i := int64(0); i < size; i++ {
		v, _, err := m.Mem().Load(base + i)
		if err != nil {
			v = 0
		}
		for shift := 0; shift < 64; shift += 8 {
			h ^= uint64(v>>shift) & 0xff
			h *= prime64
		}
	}
	return h
}
