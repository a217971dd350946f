package durable

// Experiment E20: group-commit durable write throughput. N concurrent
// writers apply durable updates with fsync ENABLED; the group-commit path
// (stage, release the ordering lock, wait for the covering flush) amortizes
// the writers into shared fsyncs. ns/op is the inverse aggregate throughput;
// p50-/p99-commit-ns are the per-update commit latencies (time from Update
// entry to durable acknowledgement). Run with
// `go test -run=NONE -bench=BenchmarkE20 -benchtime=300x -v ./internal/durable`;
// methodology and recorded numbers live in EXPERIMENTS.md (E20).

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/op"
)

// benchE20 drives b.N durable updates from `writers` goroutines against a
// fresh replica and reports throughput plus commit-latency percentiles.
func benchE20(b *testing.B, writers int, opts Options) {
	d, err := Open(b.TempDir(), 0, 1, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.CloseWithoutSnapshot()

	val := []byte("e20-payload-32-bytes-of-value!!!")
	counts := make([]int, writers)
	for i := 0; i < b.N; i++ {
		counts[i%writers]++
	}
	lats := make([][]int64, writers)

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]int64, 0, counts[w])
			for i := 0; i < counts[w]; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				t0 := time.Now()
				if err := d.Update(key, op.NewSet(val)); err != nil {
					b.Errorf("update: %v", err)
					return
				}
				lat = append(lat, time.Since(t0).Nanoseconds())
			}
			lats[w] = lat
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) == 0 {
		return
	}
	pct := func(p float64) float64 {
		idx := int(p * float64(len(all)-1))
		return float64(all[idx])
	}
	b.ReportMetric(pct(0.50), "p50-commit-ns")
	b.ReportMetric(pct(0.99), "p99-commit-ns")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "updates/s")
	st := d.WALStats()
	b.ReportMetric(float64(st.Fsyncs), "fsyncs")
	if st.BatchedRecords > 0 {
		b.ReportMetric(float64(st.BatchedRecords)/float64(max(st.Fsyncs, 1)), "recs/fsync")
	}
}

// BenchmarkE20GroupCommit is the group-commit path under increasing writer
// concurrency, fsync on.
func BenchmarkE20GroupCommit(b *testing.B) {
	for _, w := range []int{1, 8, 16} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			benchE20(b, w, Options{SnapshotEvery: 1 << 30})
		})
	}
}
