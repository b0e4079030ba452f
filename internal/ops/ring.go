// The event ring: a bounded broadcast buffer between the search engine
// (producers: audit workers) and the /events streaming handlers
// (consumers: HTTP subscribers).  The engine must never block on
// observation — a slow or stalled curl cannot be allowed to stall the
// search — so producers always win: a publish copies its event by
// value into the next slot under the ring's mutex, over whatever older
// event is there.  Subscribers keep their own cursors and copy an
// event out under the same mutex, then encode it after releasing it:
// no I/O ever happens under the lock.  One that falls more than a ring
// behind skips forward and counts the overwritten events as drops
// instead of ever back-pressuring the producer.
package ops

import (
	"sync"

	"dart/internal/obs"
)

// ring is the broadcast buffer: a circular slice of events.  Slot
// t&(size-1) holds ticket t's event, which carries t as its Seq.
type ring struct {
	mu sync.Mutex
	// slots grows by append during the first lap and is then
	// overwritten in place, so a ring that never fills never holds its
	// whole capacity.
	slots []obs.Event
	size  uint64 // capacity, a power of two
	head  uint64 // next ticket to publish
	// dropped aggregates every subscriber's overwrite losses — the
	// ring-wide drop counter behind dart_events_dropped_total.
	dropped uint64
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
	return &ring{size: uint64(n)}
}

// publish copies ev into the next slot and never waits on a reader;
// the oldest retained event is overwritten once the ring is full.
func (r *ring) publish(ev obs.Event) {
	r.mu.Lock()
	t := r.head
	r.head++
	if t < r.size {
		r.slots = append(r.slots, ev)
	} else {
		r.slots[t&(r.size-1)] = ev
	}
	// Stamp the ticket as the event's sequence number: /events readers
	// see a gap in seq exactly where the ring overwrote events.
	r.slots[t&(r.size-1)].Seq = t
	r.mu.Unlock()
}

// published returns the total number of events ever published.
func (r *ring) published() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// droppedTotal returns the events lost to overwrites summed across all
// subscribers (0 with no subscribers: an unread ring drops nothing).
func (r *ring) droppedTotal() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// subscriber is one consumer's cursor into the ring.
type subscriber struct {
	r       *ring
	cursor  uint64 // next ticket to read
	dropped uint64 // events overwritten before this subscriber read them
}

// subscribe starts a consumer at the oldest still-retained event, so a
// late subscriber first replays the buffered history.
func (r *ring) subscribe() *subscriber {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := uint64(0)
	if r.head > r.size {
		start = r.head - r.size
	}
	return &subscriber{r: r, cursor: start}
}

// next returns a copy of the next event if one is available.  ok is
// false when the subscriber is caught up; call again.  Falling behind
// the producers advances the cursor and accounts the skipped events in
// Dropped.
func (s *subscriber) next() (ev obs.Event, ok bool) {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.cursor >= r.head {
		return obs.Event{}, false // caught up
	}
	if lag := r.head - s.cursor; lag > r.size {
		// Producers lapped us: everything up to head-size is gone.
		skip := lag - r.size
		s.dropped += skip
		r.dropped += skip
		s.cursor += skip
	}
	ev = r.slots[s.cursor&(r.size-1)]
	s.cursor++
	return ev, true
}

// Dropped reports how many events this subscriber lost to overwrites.
func (s *subscriber) Dropped() uint64 { return s.dropped }
