package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"sync"
	"time"
)

// On a shared machine the host's speed drifts by a fifth or more over
// minutes, with other tenants' load, and every time a run measures
// drifts with it: a fixed loop and a dart audit timed side by side move
// together.  So the benchmark times one fixed sample of CPU work in its
// own process between operations, never during one, and reports every
// time at the speed where that sample takes calRefMs.  A time measured
// between two samples is scaled by calRefMs over their mean, a rate by
// the inverse; a sample is taken before any operation that starts
// calEvery or more after the last, so the scale follows the drift within
// a run.  Over 1,500 minisip audits recorded
// while the host's speed varied by a factor of 1.9, the quartile spread
// of 15-second medians was 0.27 raw, 0.054 scaled by the run's median
// sample, and 0.027 scaled by the samples around each audit.

// calRefMs is the reference speed: a round figure near the sample's
// median time on the two-CPU VM the baseline in README.md was measured
// on.
const calRefMs = 20.0

// calEvery is how much run time may pass between two samples, and
// calTries how many timings a sample takes the fastest of: about a tenth
// of the run goes to samples.
const (
	calEvery = 750 * time.Millisecond
	calTries = 3
)

// hostClock samples the host's speed through a run.
type hostClock struct {
	last    time.Time
	samples []float64 // ms per sample, in the order taken
}

var calSink [programCPUs + 1][sha256.Size]byte

// calibrationUnit is fixed work of the mix of a dart process: map
// inserts, allocation and hashing.
func calibrationUnit(slot int) {
	m := make(map[int]int)
	for i := 0; i < 150000; i++ {
		m[i*7%75001] += i
	}
	b := make([]byte, 1<<20)
	for i := 0; i < 2; i++ {
		calSink[slot] = sha256.Sum256(b)
	}
}

// tick takes one sample: the fastest of calTries timings of the unit
// on one goroutine followed by the unit on programCPUs goroutines at
// once, the way a dart process uses the host.  A timing can only be
// slowed by what else the host runs, so the fastest is the steadiest.
func (h *hostClock) tick() {
	best := math.Inf(1)
	for try := 0; try < calTries; try++ {
		t0 := time.Now()
		calibrationUnit(0)
		var wg sync.WaitGroup
		for i := 1; i <= programCPUs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calibrationUnit(i)
			}()
		}
		wg.Wait()
		best = math.Min(best, ms(time.Since(t0)))
	}
	h.samples = append(h.samples, best)
	settle()
	h.last = time.Now()
}

// settle collects the benchmark's own garbage, so that its collector
// does not take a CPU from the program during the next timed operation.
func settle() { runtime.GC() }

// due reports whether calEvery has passed since the last sample.
func (h *hostClock) due() bool { return time.Since(h.last) >= calEvery }

// at is the position of a measurement starting now: it lies between
// sample at-1 and sample at, which the next tick takes.
func (h *hostClock) at() int { return len(h.samples) }

// scale is the factor that takes a time measured at position at to the
// reference speed: calRefMs over the mean of the samples around it.
func (h *hostClock) scale(at int) float64 {
	lo, hi := max(at-1, 0), min(at, len(h.samples)-1)
	return calRefMs / ((h.samples[lo] + h.samples[hi]) / 2)
}

// scaled returns each timed measurement in ms at the reference speed.
func (h *hostClock) scaled(xs []timed) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms * h.scale(x.at)
	}
	return out
}

// normalize rescales m's times and rates by the run's median sample,
// for numbers that are not single measurements between two samples, and
// returns that median.
func (h *hostClock) normalize(m metrics) float64 {
	cal := median(h.samples)
	for name, v := range m {
		switch v.Unit {
		case "s", "ms", "us", "ns":
			v.Value *= calRefMs / cal
		case "1/s":
			v.Value *= cal / calRefMs
		}
		m[name] = v
	}
	return cal
}

// timed is one measurement in ms and its position among the samples.
type timed struct {
	ms float64
	at int
}
