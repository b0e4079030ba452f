// Incremental re-audit: the corpus-aware fast path of the audit pool.
//
// The paper's algorithm assumes a fixed program; run_DART's guarantees
// are per-program-version.  Between audits of a real library, though,
// most functions have not changed — so the corpus keys each function's
// finished result by its IR content hash (ir.FuncHashes: position-
// independent, callee-folding) and the batch's options signature, and
// an unchanged function re-validates by replaying its distilled suite
// and bug fixtures instead of re-searching.  Validation is effectful,
// not declarative: the suite must reproduce every stored covered branch
// direction and every bug fixture must reproduce its recorded failure on
// the *current* program, so a trusted entry carries the same evidence a
// fresh search would have produced (Theorem 1(a) re-established at
// load; completeness flags restored only under a verified-identical
// function).  Any mismatch, at any layer, falls back to the full
// search.
package audit

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"dart/internal/concolic"
	"dart/internal/corpus"
	"dart/internal/coverage"
	"dart/internal/distill"
	"dart/internal/ir"
	"dart/internal/machine"
	"dart/internal/obs"
)

// corpusCtx is the per-batch incremental state: the open corpus plus
// the program's hash and site-translation tables, computed once and
// shared read-only by every audit worker.
type corpusCtx struct {
	c *corpus.Corpus
	// hashes is ir.FuncHashes(prog): function name -> content hash.
	hashes map[string]string
	// fnSites is ir.FuncSites(prog): function name -> global site
	// numbers by local ordinal; owner is its inverse (Taken unused).
	fnSites map[string][]int
	owner   map[int]corpus.SiteDir
	// stores counts entries written this batch.
	stores atomic.Int64
}

func newCorpusCtx(prog *ir.Prog, c *corpus.Corpus) *corpusCtx {
	if c == nil {
		return nil
	}
	fnSites := ir.FuncSites(prog)
	owner := map[int]corpus.SiteDir{}
	for fn, sites := range fnSites {
		for ord, site := range sites {
			owner[site] = corpus.SiteDir{Fn: fn, Ord: ord}
		}
	}
	return &corpusCtx{c: c, hashes: ir.FuncHashes(prog), fnSites: fnSites, owner: owner}
}

// optionsSig renders every result-determining audit option for function
// i.  An entry is replayed only under a byte-equal signature; anything
// else re-searches (miss reason "options-changed").
func optionsSig(o Options, i int) string {
	libs := make([]string, 0, len(o.LibImpls))
	for name := range o.LibImpls {
		libs = append(libs, name)
	}
	sort.Strings(libs)
	return fmt.Sprintf(
		"audit-sig-v1 seed=%d runs=%d retry=%d steps=%d depth=%d strategy=%d stepbug=%t budget=%d cachecap=%d workers=%d random=%t interp=%t lib=%s",
		o.Seed+int64(i), o.MaxRuns, o.RetryRuns, o.MaxSteps, o.Depth,
		int(o.Strategy), o.ReportStepLimit, o.SolverBudget, o.SolveCacheCap,
		o.Workers, o.UseRandom, o.Interpreter, strings.Join(libs, ","))
}

// replayOpts is the concrete-execution slice of the batch options:
// exactly what ReplaySuite and Replay need to reproduce the machines
// the cold search ran.
func replayOpts(o Options, i int) concolic.Options {
	return concolic.Options{
		Toplevel:    o.Toplevels[i],
		Depth:       o.Depth,
		MaxSteps:    o.MaxSteps,
		LibImpls:    o.LibImpls,
		Timeout:     o.Timeout,
		Cancel:      o.Cancel,
		Interpreter: o.Interpreter,
	}
}

// tryWarm attempts to answer function i from the corpus.  It returns
// (report, true) only when the stored entry passed every gate; any
// failure emits a CorpusMiss event with a machine-readable reason and
// sends the caller to the full search.
func (x *corpusCtx) tryWarm(prog *ir.Prog, o Options, i int, lifecycle obs.Sink) (*concolic.Report, bool) {
	fn := o.Toplevels[i]
	miss := func(reason string) (*concolic.Report, bool) {
		if lifecycle != nil {
			lifecycle.Event(obs.Event{Kind: obs.CorpusMiss, Fn: fn, Reason: reason})
		}
		return nil, false
	}
	ent, reason := x.c.LoadEntry(fn)
	if ent == nil {
		return miss(reason)
	}
	if ent.IRHash != x.hashes[fn] {
		return miss("hash-changed")
	}
	if ent.OptionsSig != optionsSig(o, i) {
		return miss("options-changed")
	}

	// Translate the stored portable coverage into current global site
	// numbers; an unknown function or out-of-range ordinal means the
	// entry does not describe this program.
	want := make(map[concolic.CovDir]bool, len(ent.Cover))
	for _, sd := range ent.Cover {
		sites, ok := x.fnSites[sd.Fn]
		if !ok || sd.Ord < 0 || sd.Ord >= len(sites) {
			return miss("invalid")
		}
		want[concolic.CovDir{Site: sites[sd.Ord], Taken: sd.Taken}] = true
	}

	// Replay the distilled suite and then the bug fixtures, on one
	// machine.  The suite must reproduce every stored direction.  Extra
	// directions are legitimate: a mispredicted run is aborted
	// mid-execution, so its recorded coverage (and therefore the
	// search's) is a prefix of what its inputs reach when replayed freely.
	// The warm report restores the stored set verbatim either way, so it
	// stays byte-identical to the cold one.
	cases := ent.Suite[:len(ent.Suite):len(ent.Suite)]
	for _, b := range ent.Bugs {
		cases = append(cases, b.Inputs)
	}
	results, err := concolic.ReplaySuite(prog, replayOpts(o, i), cases)
	if err != nil {
		return miss("replay-mismatch")
	}
	suite, fixtures := results[:len(ent.Suite)], results[len(ent.Suite):]
	got := map[concolic.CovDir]bool{}
	for _, res := range suite {
		if len(res.Missing) > 0 || (res.Err != nil && res.Err.Outcome == machine.Interrupted) {
			return miss("replay-mismatch")
		}
		for _, d := range res.Cover {
			got[d] = true
		}
	}
	for d := range want {
		if !got[d] {
			return miss("replay-mismatch")
		}
	}

	// Every bug fixture must still reproduce its recorded failure.
	for j, b := range ent.Bugs {
		res := fixtures[j]
		if len(res.Missing) > 0 || res.Err == nil || res.Err.Outcome != b.Kind || res.Err.Msg != b.Msg {
			return miss("replay-mismatch")
		}
	}

	cov := coverage.New(prog.NumSites)
	for d := range want {
		cov.Record(d.Site, d.Taken)
	}
	m := obs.NewMetrics()
	m.Add(obs.CCorpusHits, 1)
	m.Add(obs.CCorpusReplays, int64(len(ent.Suite)+len(ent.Bugs)))
	rep := &concolic.Report{
		Runs:            ent.Runs,
		Bugs:            ent.Bugs,
		Complete:        ent.Flags.Complete,
		AllLinear:       ent.Flags.AllLinear,
		AllLocsDefinite: ent.Flags.AllLocsDefinite,
		SolverComplete:  ent.Flags.SolverComplete,
		Stopped:         concolic.StopReason(ent.Flags.Stopped),
		Coverage:        cov,
		Workers:         o.Workers,
		Metrics:         m.Snapshot(),
	}
	if lifecycle != nil {
		lifecycle.Event(obs.Event{Kind: obs.CorpusHit, Fn: fn,
			Count: len(ent.Suite) + len(ent.Bugs)})
	}
	return rep, true
}

// store distills a finished cold search into a fresh corpus entry.
// Only deterministic terminal outcomes are stored: a timed-out,
// cancelled, faulted, or retried search reflects wall-clock accidents,
// not the program, and must not be replayed as its verdict.
func (x *corpusCtx) store(prog *ir.Prog, o Options, i int, rep *concolic.Report, status Status, retried bool, lifecycle obs.Sink) {
	if rep == nil || retried || (status != OK && status != Buggy) {
		return
	}
	fn := o.Toplevels[i]
	d := distill.Distill(rep.RunLog, rep.Coverage)
	if len(d.Missing) > 0 {
		// The log cannot reconstruct the search's coverage (it should,
		// by the recorder's union invariant); storing would validate-fail
		// on every warm start, so skip.
		return
	}
	cover, ok := x.portableCover(rep.Coverage)
	if !ok {
		return
	}
	ent := &corpus.Entry{
		Function:   fn,
		IRHash:     x.hashes[fn],
		OptionsSig: optionsSig(o, i),
		Suite:      d.Suite,
		Bugs:       rep.Bugs,
		Cover:      cover,
		Flags: corpus.Flags{
			Complete:        rep.Complete,
			AllLinear:       rep.AllLinear,
			AllLocsDefinite: rep.AllLocsDefinite,
			SolverComplete:  rep.SolverComplete,
			Stopped:         string(rep.Stopped),
		},
		Runs: rep.Runs,
	}
	if err := x.c.StoreEntry(ent); err != nil {
		return
	}
	x.stores.Add(1)
	if lifecycle != nil {
		lifecycle.Event(obs.Event{Kind: obs.CorpusStore, Fn: fn, Count: len(d.Suite)})
	}
}

// portableCover renders a global coverage set as (function, ordinal,
// direction) triples; false when some covered site belongs to no
// function (nothing in the current IR produces that — defensive).
func (x *corpusCtx) portableCover(cov *coverage.Set) ([]corpus.SiteDir, bool) {
	var out []corpus.SiteDir
	for site := 0; site < cov.Sites(); site++ {
		taken, notTaken := cov.Site(site)
		if !taken && !notTaken {
			continue
		}
		ref, ok := x.owner[site]
		if !ok {
			return nil, false
		}
		if notTaken {
			out = append(out, corpus.SiteDir{Fn: ref.Fn, Ord: ref.Ord, Taken: false})
		}
		if taken {
			out = append(out, corpus.SiteDir{Fn: ref.Fn, Ord: ref.Ord, Taken: true})
		}
	}
	return out, true
}
