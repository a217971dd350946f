package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/op"
)

// populateStream writes count items of valSize bytes to r.
func populateStream(tb testing.TB, r *core.Replica, count, valSize int) {
	tb.Helper()
	for i := 0; i < count; i++ {
		val := make([]byte, valSize)
		copy(val, fmt.Sprintf("v%06d", i))
		if err := r.Update(fmt.Sprintf("key/%06d", i), op.NewSet(val)); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestPullStreamEndToEnd(t *testing.T) {
	src := core.NewReplica(0, 2)
	populateStream(t, src, 500, 64)
	srv, err := Listen(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetChunkBytes(4 << 10)

	rec := core.NewReplica(1, 2)
	c := NewClient(Options{})
	defer c.Close()
	shipped, err := c.PullStream(InMemory(rec), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !shipped {
		t.Fatal("streaming pull shipped nothing")
	}
	if ok, why := src.Snapshot().Equivalent(rec.Snapshot()); !ok {
		t.Fatalf("recipient did not converge: %s", why)
	}
	met := rec.Metrics()
	if met.ChunksApplied < 4 {
		t.Fatalf("ChunksApplied = %d, want several under a 4 KiB chunk budget", met.ChunksApplied)
	}
	if met.StreamFirstApplyNanos == 0 {
		t.Fatal("first-apply latency not recorded")
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Second pull: current — and the connection must be reusable after a
	// completed session (frame alternation restored).
	shipped, err = c.PullStream(InMemory(rec), srv.Addr())
	if err != nil || shipped {
		t.Fatalf("second pull = (%v, %v), want (false, nil)", shipped, err)
	}
	if _, err := c.Pull(InMemory(rec), srv.Addr()); err != nil {
		t.Fatalf("ordinary pull after streamed session: %v", err)
	}
}

func TestPullAutoFallsBackToStreaming(t *testing.T) {
	// ~2 MB of payload exceeds DefaultMonolithicCap, so a plain Pull must
	// divert itself onto the streaming path.
	src := core.NewReplica(0, 2)
	populateStream(t, src, 2100, 1024)
	srv, err := Listen(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := core.NewReplica(1, 2)
	c := NewClient(Options{})
	defer c.Close()
	shipped, err := c.Pull(InMemory(rec), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !shipped {
		t.Fatal("pull shipped nothing")
	}
	met := rec.Metrics()
	if met.ChunksApplied == 0 {
		t.Fatal("large pull was not diverted to the streaming path")
	}
	if met.PeakPayloadBytes >= DefaultMonolithicCap {
		t.Fatalf("peak payload %d not bounded by the monolithic cap", met.PeakPayloadBytes)
	}
	if ok, why := src.Snapshot().Equivalent(rec.Snapshot()); !ok {
		t.Fatalf("recipient did not converge: %s", why)
	}
}

func TestPullSmallStaysMonolithic(t *testing.T) {
	src := core.NewReplica(0, 2)
	populateStream(t, src, 10, 64)
	srv, err := Listen(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := core.NewReplica(1, 2)
	c := NewClient(Options{})
	defer c.Close()
	if _, err := c.Pull(InMemory(rec), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := rec.Metrics().ChunksApplied; got != 0 {
		t.Fatalf("small pull used %d chunks, want the monolithic path", got)
	}
	if ok, why := src.Snapshot().Equivalent(rec.Snapshot()); !ok {
		t.Fatalf("recipient did not converge: %s", why)
	}
}

func TestPullStreamRemoteError(t *testing.T) {
	srv, err := ListenPart(core.NewPartitioned(0, 2, 4, 2), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := core.NewReplica(1, 2)
	c := NewClient(Options{})
	defer c.Close()
	if _, err := c.PullStream(InMemory(rec), srv.Addr()); err == nil {
		t.Fatal("error for a plain stream against a partitioned server not surfaced")
	}
}

func TestStreamingPeakPayloadRatio(t *testing.T) {
	// The headline memory claim, asserted via the recipient's metrics: the
	// streamed session's peak held payload must be at least 5x smaller than
	// the monolithic session's for the same catch-up.
	src := core.NewReplica(0, 2)
	populateStream(t, src, 4000, 256)
	srv, err := Listen(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetChunkBytes(64 << 10)

	c := NewClient(Options{})
	defer c.Close()

	mono := core.NewReplica(1, 2)
	p, err := c.PullSessionMetered(nil, srv.Addr(), "", 1, mono.DBVV())
	if err != nil || p == nil {
		t.Fatalf("monolithic pull: %v", err)
	}
	mono.ApplyPropagation(p)
	monoPeak := mono.Metrics().PeakPayloadBytes

	streamed := core.NewReplica(1, 2)
	if _, err := c.PullStream(InMemory(streamed), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	streamPeak := streamed.Metrics().PeakPayloadBytes

	if streamPeak == 0 || monoPeak == 0 {
		t.Fatalf("peaks not recorded: mono=%d stream=%d", monoPeak, streamPeak)
	}
	if monoPeak < 5*streamPeak {
		t.Fatalf("peak payload ratio %.1fx (mono %d, streamed %d), want >= 5x",
			float64(monoPeak)/float64(streamPeak), monoPeak, streamPeak)
	}
	if ok, why := mono.Snapshot().Equivalent(streamed.Snapshot()); !ok {
		t.Fatalf("paths disagree: %s", why)
	}
}

// BenchmarkE17StreamingCatchup measures a bulk catch-up of m=50k items over
// real loopback TCP under the two session shapes (E17):
//
//   - monolithic: one PullSession reply carrying the whole payload,
//     committed in one critical section;
//   - streaming: a chunked KindStream session, each chunk applied as it
//     arrives while later chunks are still being built and shipped.
//
// Reported custom metrics: peak-payload-bytes is the largest payload either
// path held at once (recipient side), first-apply-ns the delay until the
// first item was durably applied. Streaming should cut peak memory by the
// payload/chunk ratio and first-apply latency by pipelining, at comparable
// total time. Results are recorded in EXPERIMENTS.md (E17).
func BenchmarkE17StreamingCatchup(b *testing.B) {
	const m = 50000
	src := core.NewReplica(0, 2)
	populateStream(b, src, m, 64)
	srv, err := Listen(src, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	b.Run("monolithic", func(b *testing.B) {
		c := NewClient(Options{})
		defer c.Close()
		var peak, firstApply float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rec := core.NewReplica(1, 2)
			runtime.GC() // previous iteration's dead replica: collect it outside the timed region
			b.StartTimer()
			start := time.Now()
			p, err := c.PullSessionMetered(nil, srv.Addr(), "", 1, rec.DBVV())
			if err != nil || p == nil {
				b.Fatalf("pull: %v", err)
			}
			rec.ApplyPropagation(p)
			firstApply += float64(time.Since(start).Nanoseconds())
			if v := float64(rec.Metrics().PeakPayloadBytes); v > peak {
				peak = v
			}
		}
		b.StopTimer()
		b.ReportMetric(peak, "peak-payload-bytes")
		b.ReportMetric(firstApply/float64(b.N), "first-apply-ns")
	})

	b.Run("streaming", func(b *testing.B) {
		c := NewClient(Options{})
		defer c.Close()
		var peak, firstApply float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rec := core.NewReplica(1, 2)
			runtime.GC() // as in the monolithic loop above
			b.StartTimer()
			shipped, err := c.PullStream(InMemory(rec), srv.Addr())
			if err != nil || !shipped {
				b.Fatalf("stream pull = (%v, %v)", shipped, err)
			}
			met := rec.Metrics()
			if v := float64(met.PeakPayloadBytes); v > peak {
				peak = v
			}
			firstApply += float64(met.StreamFirstApplyNanos)
		}
		b.StopTimer()
		b.ReportMetric(peak, "peak-payload-bytes")
		b.ReportMetric(firstApply/float64(b.N), "first-apply-ns")
	})
}
