// The event ring: a bounded, lock-free broadcast buffer between the
// search engine (producers: audit workers) and the /events streaming
// handlers (consumers: HTTP subscribers).  The engine must never block
// on observation — a slow or stalled curl cannot be allowed to stall
// the search — so producers always win: a publish claims the next slot
// with one atomic add and installs its event with one compare-and-swap
// over whatever older event is there.  Subscribers
// keep their own cursors; one that falls more than a ring behind skips
// forward and counts the overwritten events as drops instead of ever
// back-pressuring the producer.
package ops

import (
	"sync/atomic"

	"dart/internal/obs"
)

// ring is the broadcast buffer.  size must be a power of two.  Each
// slot points at the last event installed there; an event is immutable
// once installed and carries its ticket as Seq, so a reader compares
// that stamp with its cursor and never touches a half-written Event.
type ring struct {
	slots []atomic.Pointer[obs.Event]
	mask  uint64
	head  atomic.Uint64 // next ticket to publish
	// dropped aggregates every subscriber's overwrite losses — the
	// ring-wide drop counter behind dart_events_dropped_total.
	dropped atomic.Uint64
}

// defaultRingSize retains the last 4096 events for late subscribers.
const defaultRingSize = 1 << 12

func newRing(size int) *ring {
	if size <= 0 {
		size = defaultRingSize
	}
	// Round up to a power of two.
	n := 1
	for n < size {
		n <<= 1
	}
	return &ring{slots: make([]atomic.Pointer[obs.Event], n), mask: uint64(n - 1)}
}

// publish stores ev and never blocks; the oldest retained event is
// overwritten once the ring is full.
func (r *ring) publish(ev obs.Event) { r.install(r.claim(), ev) }

// claim takes the next ticket.
func (r *ring) claim() uint64 { return r.head.Add(1) - 1 }

// install stores ev as ticket t's event.  A slot only moves forward:
// a producer a lap behind that finishes after the producer a lap ahead
// finds a newer ticket in the slot and gives up, since its event is one
// the ring has already overwritten.
func (r *ring) install(t uint64, ev obs.Event) {
	e := ev // one heap copy; readers share the immutable value
	// Stamp the ticket as the event's sequence number: /events readers
	// see a gap in seq exactly where the ring overwrote events.
	e.Seq = t
	slot := &r.slots[t&r.mask]
	for {
		old := slot.Load()
		if old != nil && old.Seq > t {
			return
		}
		if slot.CompareAndSwap(old, &e) {
			return
		}
	}
}

// published returns the total number of events ever published.
func (r *ring) published() uint64 { return r.head.Load() }

// droppedTotal returns the events lost to overwrites summed across all
// subscribers (0 with no subscribers: an unread ring drops nothing).
func (r *ring) droppedTotal() uint64 { return r.dropped.Load() }

// subscriber is one consumer's cursor into the ring.
type subscriber struct {
	r       *ring
	cursor  uint64 // next ticket to read
	dropped uint64 // events overwritten before this subscriber read them
}

// subscribe starts a consumer at the oldest still-retained event, so a
// late subscriber first replays the buffered history.
func (r *ring) subscribe() *subscriber {
	head := r.head.Load()
	start := uint64(0)
	if head > uint64(len(r.slots)) {
		start = head - uint64(len(r.slots))
	}
	return &subscriber{r: r, cursor: start}
}

// next returns the next event if one is available.  ok is false when
// the subscriber is caught up (or a publish is in flight); call again.
// Falling behind the producers advances the cursor and accounts the
// skipped events in Dropped.
func (s *subscriber) next() (ev obs.Event, ok bool) {
	for {
		head := s.r.head.Load()
		if s.cursor >= head {
			return obs.Event{}, false // caught up
		}
		if lag := head - s.cursor; lag > uint64(len(s.r.slots)) {
			// Producers lapped us: everything up to head-size is gone.
			skip := lag - uint64(len(s.r.slots))
			s.dropped += skip
			s.r.dropped.Add(skip)
			s.cursor += skip
		}
		p := s.r.slots[s.cursor&s.r.mask].Load()
		switch {
		case p == nil || p.Seq < s.cursor:
			// The publish for this ticket is still in flight.
			return obs.Event{}, false
		case p.Seq == s.cursor:
			s.cursor++
			return *p, true
		default:
			// A later lap overwrote this ticket's event.
			s.dropped++
			s.r.dropped.Add(1)
			s.cursor++
		}
	}
}

// Dropped reports how many events this subscriber lost to overwrites.
func (s *subscriber) Dropped() uint64 { return s.dropped }
