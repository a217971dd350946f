package durable

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/op"
)

// BenchmarkDurableStreamCatchUp is core's BenchmarkStreamCatchUp with the
// chunks committed through a durable sink: the source rewrites 20 000
// uniformly drawn keys of N = 100 000 (with the timer stopped), then
// ChunkSession.Next cuts every chunk and Replica.ApplyChunk logs, applies
// and acknowledges it at a recipient that was current before the
// rewrites. apply-ns/item is the recipient's time per item shipped; the
// nosync row leaves out the fsync each chunk otherwise waits for.
func BenchmarkDurableStreamCatchUp(b *testing.B) {
	for _, row := range []struct {
		name   string
		noSync bool
	}{{"nosync", true}, {"sync", false}} {
		b.Run(row.name, func(b *testing.B) {
			const n, rewrites = 100_000, 20_000
			src := core.NewReplica(0, 2)
			val := make([]byte, 16)
			for i := 0; i < n; i++ {
				src.Update(fmt.Sprintf("item-%07d", i), op.NewSet(val))
			}
			dst := mustOpen(b, b.TempDir(), 1, 2, Options{NoSync: row.noSync, SnapshotEvery: 1 << 30})
			defer dst.CloseWithoutSnapshot()
			if _, err := dst.AntiEntropyFrom(src); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			var apply time.Duration
			items := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < rewrites; j++ {
					val[0], val[1] = byte(i), byte(j)
					src.Update(fmt.Sprintf("item-%07d", rng.Intn(n)), op.NewSet(val))
				}
				b.StartTimer()
				s := src.StartChunkSession(dst.Core().DBVV(), 0)
				for p := s.Next(); p != nil; p = s.Next() {
					items += len(p.Items)
					start := time.Now()
					if err := dst.ApplyChunk(p); err != nil {
						b.Fatal(err)
					}
					apply += time.Since(start)
					s.Recycle(p)
				}
			}
			b.StopTimer()
			if !dst.Core().DBVV().Equal(src.DBVV()) {
				b.Fatal("recipient did not catch up")
			}
			b.ReportMetric(float64(apply.Nanoseconds())/float64(items), "apply-ns/item")
		})
	}
}

// BenchmarkCheckpoint measures one checkpoint after 1 024 single-item
// updates at a replica holding N items: wmu-us is the time writers wait
// for the capture under the ordering lock, publish-us the encode, write,
// fsync and rename after it, and bytes the delta file's size. Each of the
// three should follow the 1 024 changed items, not N.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			src := core.NewReplica(0, 2)
			val := make([]byte, 16)
			for i := 0; i < n; i++ {
				src.Update(fmt.Sprintf("item-%07d", i), op.NewSet(val))
			}
			d := mustOpen(b, b.TempDir(), 1, 2, Options{SnapshotEvery: 1 << 30})
			defer d.CloseWithoutSnapshot()
			if _, err := d.AntiEntropyFrom(src); err != nil {
				b.Fatal(err)
			}
			if err := d.Snapshot(); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			var under, publish time.Duration
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 1024; j++ {
					val[0], val[1] = byte(i), byte(j)
					if err := d.Update(fmt.Sprintf("item-%07d", rng.Intn(n)), op.NewSet(val)); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				before := d.CheckpointStats().DeltaBytes
				start := time.Now()
				d.wmu.Lock()
				c, err := d.captureLocked()
				d.wmu.Unlock()
				captured := time.Now()
				if err != nil {
					b.Fatal(err)
				}
				if err := d.publish(c, true); err != nil {
					b.Fatal(err)
				}
				under += captured.Sub(start)
				publish += time.Since(captured)
				bytes += d.CheckpointStats().DeltaBytes - before
			}
			b.StopTimer()
			b.ReportMetric(float64(under.Microseconds())/float64(b.N), "wmu-us")
			b.ReportMetric(float64(publish.Microseconds())/float64(b.N), "publish-us")
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes")
		})
	}
}
