// LiveMetrics: a metrics registry behind a mutex.  The per-search
// registries of metrics.go surface only as snapshots after their search
// ends; a live operations surface needs the same counters *while* the
// search (or a whole parallel audit) runs.  Every counter and every
// histogram but solver_latency_us (wall clock) and frontier_queue_depth
// is a fold over the trace events (Metrics.Fold), and the engine passes
// each event it builds through its own registry with that same fold, so
// a LiveMetrics sink fed the audit's event stream converges to the
// counters of the final merged report (the one divergence: a timed-out
// function's retry replaces its report, discarding the first attempt's
// registry, while the event stream saw both attempts — live counters are
// ≥ report counters when deadlines trip).
package obs

import "sync"

// LiveMetrics is a Sink folding events into a metrics registry with
// Metrics.Fold.  Unlike Metrics it is safe for concurrent use: audit
// workers from every goroutine emit into it.
type LiveMetrics struct {
	mu sync.Mutex
	m  *Metrics
	// events counts every event seen, including kinds that carry no
	// metric.
	events uint64
}

// NewLiveMetrics returns an empty bridge.
func NewLiveMetrics() *LiveMetrics {
	return &LiveMetrics{m: NewMetrics()}
}

// Event implements Sink.
func (l *LiveMetrics) Event(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events++
	l.m.Fold(&ev)
}

// Snapshot freezes the current state; safe to call while events flow.
func (l *LiveMetrics) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Snapshot()
}

// Events returns how many events the bridge has seen.
func (l *LiveMetrics) Events() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events
}
