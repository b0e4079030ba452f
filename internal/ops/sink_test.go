package ops

// Fan-out tests: Sink's steady state allocates nothing per event, and
// its folds stay exact under concurrent producers and readers.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dart/internal/obs"
)

// runEvents is one run's worth of events of function fn: a solve that
// the cache answers, the flip it installs, and the run down its path.
func runEvents(fn string) []obs.Event {
	return []obs.Event{
		{Kind: obs.RunStart, Fn: fn, Run: 1},
		{Kind: obs.SolverCall, Fn: fn, Run: 1, Depth: 1, PCLen: 2, Path: "01", Site: 2},
		{Kind: obs.SolveCacheHit, Fn: fn, Run: 1, Depth: 1, PCLen: 1, Verdict: "sat"},
		{Kind: obs.SolverVerdict, Fn: fn, Run: 1, Depth: 1, Site: 2, Verdict: "sat", Work: 3, Cache: "hit"},
		{Kind: obs.BranchFlip, Fn: fn, Run: 1, Depth: 1, Path: "01", Site: 2},
		{Kind: obs.RunEnd, Fn: fn, Run: 1, Steps: 40, Path: "01", Outcome: "halt"},
	}
}

// TestSinkSteadyStateAllocs: once the ring has filled a lap and every
// path, site and function has been seen, an event costs the fan-out no
// heap allocation — no copy for the ring, none for the folds.
func TestSinkSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	s := NewServer(Config{})
	sink := s.Sink()
	events := runEvents("f")
	for i := 0; i < defaultRingSize; i++ {
		sink.Event(events[i%len(events)])
	}
	for _, ev := range events {
		if n := testing.AllocsPerRun(100, func() { sink.Event(ev) }); n != 0 {
			t.Errorf("%s: %v allocations per event, want 0", ev.Kind, n)
		}
	}
}

// TestSinkConcurrent: eight producers feed Sink while an /events
// follower and /metrics, /status and /profile pollers read.  The runs
// on /metrics and /status are exact, and the follower receives or is
// told it dropped every published event.
func TestSinkConcurrent(t *testing.T) {
	const producers, runs = 8, 500
	s := NewServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sink := s.Sink()

	// The follower counts event lines and keeps the latest cumulative
	// drop count; it subscribes before any producer starts, so nothing
	// published is history it never owned.
	resp, err := http.Get(ts.URL + "/events?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type tally struct{ received, dropped uint64 }
	tallies := make(chan tally, 1)
	go func() {
		var tl tally
		lastSeq := int64(-1)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var v struct {
				Ev      string  `json:"ev"`
				Seq     *uint64 `json:"seq"`
				Dropped uint64  `json:"dropped"`
			}
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				t.Errorf("follow line not JSON: %v\n%s", err, sc.Text())
				return
			}
			switch {
			case v.Ev == "ops-drop":
				tl.dropped = v.Dropped
			case v.Seq != nil:
				if int64(*v.Seq) <= lastSeq {
					t.Errorf("seq %d after %d", *v.Seq, lastSeq)
					return
				}
				lastSeq = int64(*v.Seq)
				tl.received++
			}
			select {
			case <-tallies:
			default:
			}
			tallies <- tl
		}
	}()
	// The follower is subscribed once its first event comes back.
	sink.Event(obs.Event{Kind: obs.RunStart})
	select {
	case <-tallies:
	case <-time.After(10 * time.Second):
		t.Fatal("follower saw no event within 10s")
	}

	done := make(chan struct{})
	var pollers sync.WaitGroup
	for _, path := range []string{"/metrics", "/status", "/profile"} {
		pollers.Add(1)
		go func(path string) {
			defer pollers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, r.Body)
				r.Body.Close()
			}
		}(path)
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(fn string) {
			defer wg.Done()
			events := runEvents(fn)
			for i := 0; i < runs; i++ {
				for _, ev := range events {
					sink.Event(ev)
				}
			}
		}(fmt.Sprintf("f%d", p))
	}
	wg.Wait()
	close(done)
	pollers.Wait()

	read := func(path string) string {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := readAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if want := fmt.Sprintf("dart_runs_total %d\n", producers*runs); !strings.Contains(read("/metrics"), want) {
		t.Errorf("/metrics lacks %q", want)
	}
	body := read("/status")
	var st struct {
		Runs    int `json:"runs"`
		Entries []struct {
			Function string `json:"function"`
			Runs     int    `json:"runs"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Runs != producers*runs {
		t.Errorf("/status runs = %d, want %d", st.Runs, producers*runs)
	}
	for _, e := range st.Entries {
		if e.Runs != runs {
			t.Errorf("/status %s runs = %d, want %d", e.Function, e.Runs, runs)
		}
	}

	published := s.ring.published()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case tl := <-tallies:
			if got := tl.received + tl.dropped; got > published {
				t.Fatalf("received %d + dropped %d > published %d", tl.received, tl.dropped, published)
			} else if got == published {
				return
			}
		case <-deadline:
			t.Fatalf("follower never accounted for all %d published events", published)
		}
	}
}
