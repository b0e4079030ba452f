package ops

// Drop-visibility tests: the seq-gap contract of /events (every event
// lost to ring overwrites shows up as a numbered hole plus an ops-drop
// record, even when the loss lands at the tail of a burst) and the
// ring-wide aggregate behind dart_events_dropped_total.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dart/internal/obs"
)

// TestRingSeqGapsMatchDrops: under concurrent publishers lapping a slow
// consumer, the holes in the received seq sequence account for exactly
// the events the subscriber reports dropped — a reader can trust seq
// arithmetic to quantify its losses.
func TestRingSeqGapsMatchDrops(t *testing.T) {
	const producers = 4
	const perProducer = 3000
	r := newRing(32)
	// Subscribe before the producers start: events published before a
	// subscription are neither received nor dropped.
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
	var received, gaps uint64
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
			gaps += uint64(int64(ev.Seq) - lastSeq - 1)
			lastSeq = int64(ev.Seq)
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-done

	total := uint64(producers * perProducer)
	if received+sub.Dropped() != total {
		t.Fatalf("received %d + dropped %d != published %d", received, sub.Dropped(), total)
	}
	if gaps != sub.Dropped() {
		t.Errorf("seq gaps %d != reported drops %d", gaps, sub.Dropped())
	}
	if r.droppedTotal() != sub.Dropped() {
		t.Errorf("ring-wide dropped %d != sole subscriber's %d", r.droppedTotal(), sub.Dropped())
	}
	if sub.Dropped() == 0 {
		t.Log("no drops this run (consumer kept up); invariants held vacuously")
	}
}

// TestEventsFollowTrailingDrops: a burst that laps a follow-mode
// subscriber while it sleeps is announced as an ops-drop record as soon
// as the stream catches up — not deferred until the next delivered
// event — and the loss is visible both as a seq gap and in the
// dart_events_dropped_total counter.
func TestEventsFollowTrailingDrops(t *testing.T) {
	const ringSize = 8
	const burst = 100
	s := NewServer(Config{RingSize: ringSize})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sink := s.Sink()

	resp, err := http.Get(ts.URL + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type rec struct {
		Ev      string  `json:"ev"`
		Seq     *uint64 `json:"seq"`
		Dropped uint64  `json:"dropped"`
	}
	lines := make(chan rec, burst+16)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var v rec
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				t.Errorf("follow line not JSON: %v\n%s", err, sc.Text())
				return
			}
			lines <- v
		}
	}()
	read := func(what string) rec {
		t.Helper()
		select {
		case v, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended before %s", what)
			}
			return v
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s within 10s", what)
		}
		panic("unreachable")
	}

	// One probe event, received back: the handler has subscribed and is
	// caught up, so the burst below laps it from a known cursor.
	sink.Event(obs.Event{Kind: obs.RunStart, Run: 0})
	first := read("probe event")
	if first.Ev != "run-start" || first.Seq == nil || *first.Seq != 0 {
		t.Fatalf("probe = %+v", first)
	}

	// The burst outruns the sleeping subscriber: ring retains the last
	// 8, so 92 of these are gone before the handler wakes.
	for i := 1; i <= burst; i++ {
		sink.Event(obs.Event{Kind: obs.RunStart, Run: i})
	}
	wantDropped := uint64(burst - ringSize)

	drop := read("ops-drop record")
	if drop.Ev != "ops-drop" || drop.Dropped != wantDropped {
		t.Fatalf("drop record = %+v, want ops-drop dropped=%d", drop, wantDropped)
	}
	// The survivors follow, seq-contiguous from the first retained slot;
	// the gap after the probe equals the announced drop count.
	prev := *first.Seq
	var gap uint64
	for i := 0; i < ringSize; i++ {
		ev := read("surviving event")
		if ev.Ev != "run-start" || ev.Seq == nil {
			t.Fatalf("survivor %d = %+v", i, ev)
		}
		gap += *ev.Seq - prev - 1
		prev = *ev.Seq
	}
	if gap != wantDropped {
		t.Errorf("seq gaps %d != announced drops %d", gap, wantDropped)
	}

	// The loss is on /metrics as a counter, and the counter exists (at
	// zero) even on a server that never dropped anything.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := readAll(mresp)
	if !strings.Contains(page, "# TYPE dart_events_dropped_total counter") {
		t.Errorf("/metrics missing events_dropped type line:\n%s", page)
	}
	want := "dart_events_dropped_total 92"
	if !strings.Contains(page, want) {
		t.Errorf("/metrics missing %q:\n%s", want, page)
	}

	fresh := NewServer(Config{})
	fts := httptest.NewServer(fresh.Handler())
	defer fts.Close()
	fresp, err := http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fpage, _ := readAll(fresp)
	if !strings.Contains(fpage, "dart_events_dropped_total 0") {
		t.Errorf("fresh /metrics lacks zero-valued drop counter:\n%s", fpage)
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	return b.String(), sc.Err()
}
