package ops

import (
	"sync"
	"sync/atomic"
	"testing"

	"dart/internal/obs"
)

func TestRingInOrder(t *testing.T) {
	r := newRing(16)
	for i := 0; i < 10; i++ {
		r.publish(obs.Event{Kind: obs.RunStart, Run: i})
	}
	sub := r.subscribe()
	for i := 0; i < 10; i++ {
		ev, ok := sub.next()
		if !ok {
			t.Fatalf("event %d unavailable", i)
		}
		if ev.Run != i {
			t.Fatalf("event %d out of order: run=%d", i, ev.Run)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d: seq=%d, want ticket %d", i, ev.Seq, i)
		}
	}
	if _, ok := sub.next(); ok {
		t.Fatal("read past the published events")
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d with no overwrites", sub.Dropped())
	}
}

func TestRingLateSubscriberReplaysRetained(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 100; i++ {
		r.publish(obs.Event{Kind: obs.RunStart, Run: i})
	}
	sub := r.subscribe()
	got := 0
	first := -1
	for {
		ev, ok := sub.next()
		if !ok {
			break
		}
		if first < 0 {
			first = ev.Run
		}
		got++
	}
	if got != 8 {
		t.Fatalf("late subscriber read %d events, ring retains 8", got)
	}
	if first != 92 {
		t.Fatalf("replay starts at run %d, want 92 (the oldest retained)", first)
	}
	// Starting at the oldest retained event is not a drop: the
	// subscriber never owned the overwritten history.
	if sub.Dropped() != 0 {
		t.Fatalf("late subscription counted %d drops", sub.Dropped())
	}
}

func TestRingRoundsToPowerOfTwo(t *testing.T) {
	if n := newRing(100).size; n != 128 {
		t.Errorf("size 100 rounds to %d, want 128", n)
	}
	if n := newRing(0).size; n != defaultRingSize {
		t.Errorf("size 0 defaults to %d, want %d", n, defaultRingSize)
	}
}

// The accounting invariant under fire: with concurrent producers
// racing a consumer around a tiny ring, every published event is either
// received or counted as dropped — none vanish, none duplicate.
func TestRingConcurrentAccounting(t *testing.T) {
	const producers = 4
	const perProducer = 5000
	r := newRing(64)
	// Subscribe before any producer starts: history published before a
	// subscription is not a drop, so a late subscriber would see neither
	// receipt nor drop for the events it never owned.
	sub := r.subscribe()
	var wg sync.WaitGroup
	var stop atomic.Bool
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				r.publish(obs.Event{Kind: obs.RunStart, Run: i})
			}
		}()
	}
	received := uint64(0)
	var lastSeq int64 = -1
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			ev, ok := sub.next()
			if !ok {
				if !stop.Load() {
					continue
				}
				// Producers are finished and their publishes are
				// visible; a final empty read means fully drained.
				if ev, ok = sub.next(); !ok {
					return
				}
			}
			received++
			if int64(ev.Seq) <= lastSeq {
				t.Errorf("seq went backwards: %d after %d", ev.Seq, lastSeq)
				return
			}
			lastSeq = int64(ev.Seq)
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-done
	total := uint64(producers * perProducer)
	if r.published() != total {
		t.Fatalf("published %d, want %d", r.published(), total)
	}
	if received+sub.Dropped() != total {
		t.Fatalf("received %d + dropped %d != published %d",
			received, sub.Dropped(), total)
	}
	if received == 0 {
		t.Fatal("consumer received nothing")
	}
}
