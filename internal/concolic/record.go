// Run recording for suite distillation: the (inputs → branch set)
// pairs a completed search leaves behind so internal/distill can
// set-cover them into a minimized replayable suite.
//
// Recording is an online filter, not a transcript: a run is kept only
// when it covers at least one branch direction no previously kept run
// covered, so the log is bounded by the program's direction count
// (every kept run adds ≥ 1 of ≤ 2·NumSites directions) no matter how
// many executions the search performs.  The kept union equals the
// search's final coverage exactly — runs are observed at the same
// points coverage is recorded — so greedy set-cover over the log can
// always reconstruct full coverage.  A pool's workers share the search's
// one locked recorder; which runs are kept then depends on schedule, but
// the union invariant (and with it the distilled suite's coverage) does
// not.
package concolic

import (
	"sync"

	"dart/internal/coverage"
	"dart/internal/machine"
)

// CovDir is one branch direction: a conditional site and the outcome
// that executed.
type CovDir struct {
	Site  int
	Taken bool
}

// RunRecord is one kept run: the complete input vector that drove it
// and every branch direction it covered (deduped, in first-execution
// order).
type RunRecord struct {
	Inputs map[string]int64
	Cover  []CovDir
}

// runRecorder is a search's run log, shared by all of its engines (the
// mutex is uncontended against whole program executions).
type runRecorder struct {
	mu      sync.Mutex
	regs    *machine.InputTrie
	union   *coverage.Set
	records []RunRecord
	// dirbuf dedups a kept run's directions; cleared per kept run.
	dirbuf map[CovDir]bool
}

func newRunRecorder(sites int, regs *machine.InputTrie) *runRecorder {
	return &runRecorder{regs: regs, union: coverage.New(sites), dirbuf: map[CovDir]bool{}}
}

// observe offers one completed run to the log.  im is the vector that
// drove the run (rendered by key if kept); branches its branch records.
// Most runs add no direction, so freshness is decided first, against
// the union, and only a kept run builds its direction list and named
// inputs: a stale run costs the lookups and allocates nothing.
func (r *runRecorder) observe(im *vector, branches []machine.BranchRec) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.adds(branches) {
		return
	}
	dirs := runCover(branches, r.dirbuf)
	for _, d := range dirs {
		r.union.Record(d.Site, d.Taken)
	}
	r.records = append(r.records, RunRecord{Inputs: im.named(r.regs), Cover: dirs})
}

// adds reports whether branches cover a direction the union lacks.
func (r *runRecorder) adds(branches []machine.BranchRec) bool {
	for _, rec := range branches {
		if rec.Site < 0 {
			continue
		}
		if taken, notTaken := r.union.Site(rec.Site); !taken && rec.Taken || !notTaken && !rec.Taken {
			return true
		}
	}
	return false
}

// runCover lists the branch directions a run covered, deduped in
// first-execution order; seen is scratch.
func runCover(branches []machine.BranchRec, seen map[CovDir]bool) (dirs []CovDir) {
	clear(seen)
	for _, rec := range branches {
		d := CovDir{Site: rec.Site, Taken: rec.Taken}
		if rec.Site >= 0 && !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	return dirs
}

// log returns the kept runs in keep order.
func (r *runRecorder) log() []RunRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.records
}
