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
	union   *coverage.Set
	records []RunRecord
	// dirbuf dedups one run's directions; cleared per observe call.
	dirbuf map[CovDir]bool
}

func newRunRecorder(sites int) *runRecorder {
	return &runRecorder{union: coverage.New(sites), dirbuf: map[CovDir]bool{}}
}

// observe offers one completed run to the log.  im is the vector that
// drove the run (copied if kept); branches its branch records.
func (r *runRecorder) observe(im map[string]int64, branches []machine.BranchRec) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.dirbuf)
	var dirs []CovDir
	fresh := false
	for _, rec := range branches {
		if rec.Site < 0 {
			continue
		}
		d := CovDir{Site: rec.Site, Taken: rec.Taken}
		if r.dirbuf[d] {
			continue
		}
		r.dirbuf[d] = true
		dirs = append(dirs, d)
		if r.union.Record(d.Site, d.Taken) {
			fresh = true
		}
	}
	if !fresh {
		return
	}
	r.records = append(r.records, RunRecord{Inputs: copyIM(im), Cover: dirs})
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
