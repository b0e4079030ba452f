package dart

import (
	"testing"

	"dart/internal/progen"
	"dart/internal/progs"
	"dart/internal/rng"
)

// FuzzCompile feeds arbitrary source to the front end.  MiniC source is
// untrusted input (POST /jobs compiles a never-seen submission, and
// `dart FILE` compiles whatever it is given), so Compile must return on
// every input — a program or an error, never a panic or a hang.  The
// seeds are the paper's example programs and generated programs
// (linear, with division, with a pointer parameter);
// testdata/fuzz/FuzzCompile holds the inputs that once hung the parser.
func FuzzCompile(f *testing.F) {
	for _, src := range []string{
		progs.Section21, progs.Section24, progs.Section25Cast,
		progs.Foobar, progs.FoobarLib, progs.ACController,
		progs.ExternalEnv, progs.ListSum, progs.DivByZero,
		progs.NullChain, progs.StraightLineDeref, progs.Clusters,
		progs.SolverGate, progs.Filter,
	} {
		f.Add(src)
	}
	linear := progen.Config{Funcs: 2, MaxStmts: 4, MaxDepth: 3, Params: 3, AbortProb: 30}
	division := linear
	division.AllowDivision = true
	pointer := linear
	pointer.PointerParams = true
	for seed, cfg := range []progen.Config{linear, division, pointer} {
		f.Add(progen.Program(rng.New(int64(seed+1)), cfg))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if prog, err := Compile(src); prog == nil && err == nil {
			t.Fatal("Compile returned neither a program nor an error")
		}
	})
}
