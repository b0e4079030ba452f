package concolic

import "dart/internal/ir"

// RandomTest performs pure random testing of the toplevel function: the
// same generated driver and run ledger as the directed search, but every
// run draws a fresh input vector from its own fork of the seed's stream
// and no input is symbolic, so no constraint is collected.  The drawn
// vector is still recorded: a bug found by random testing must be just
// as replayable as one found by the directed search (Theorem 1(a) is a
// property of the report, not of the engine that produced it).  It is
// the "random search" column of the paper's tables.
func RandomTest(prog *ir.Prog, opts Options) (*Report, error) {
	s, err := newSearch(prog, opts)
	if err != nil {
		return nil, err
	}
	e := s.newEngine(0, false)
	stream := e.in.rand
	for e.proceed() {
		clear(e.im.has)
		e.in.rand = stream.Fork()
		if _, _, cont := e.step(); !cont {
			break
		}
	}
	return s.finish([]*engine{e}), nil
}
