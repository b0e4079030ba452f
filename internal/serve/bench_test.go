package serve

// Jobs-per-second throughput of the service layer, in process: fresh
// measures the full admit→compile→audit→report pipeline with a
// distinct identity per job; cached measures the content-addressed
// fast path once the first report is stored — content key and store
// lookup, no compile.  The submitting client is backpressure-aware — a
// full queue means wait, not fail — so the benchmark exercises the
// bounded queue exactly as a well-behaved client would.  The same two
// paths over real HTTP are the committed benchmark's jobs-fresh and
// jobs-cached workloads (bench/).

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"dart/internal/progs"
)

func benchJobs(b *testing.B, cached bool) {
	s := New(Config{Executors: runtime.GOMAXPROCS(0), QueueDepth: 256, StoreCap: 4096, HistoryCap: 16})
	defer s.Drain(time.Minute)
	b.ReportAllocs()
	b.ResetTimer()

	var jobs []*Job
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		if cached {
			seed = 1
		}
		for {
			j, err := s.Submit(Submission{Source: progs.Section21, Seed: seed, Runs: 100})
			if err == nil {
				jobs = append(jobs, j)
				break
			}
			if errors.Is(err, ErrQueueFull) {
				time.Sleep(time.Millisecond)
				continue
			}
			b.Fatal(err)
		}
	}
	for _, j := range jobs {
		<-j.Done()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "jobs/s")
	}
}

func BenchmarkJobsThroughput(b *testing.B) {
	b.Run("fresh", func(b *testing.B) { benchJobs(b, false) })
	b.Run("cached", func(b *testing.B) { benchJobs(b, true) })
}
