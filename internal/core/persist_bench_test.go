package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/wire"
	"repro/internal/workload"
)

func populatedReplica(b *testing.B, items int) *core.Replica {
	b.Helper()
	r := core.NewReplica(0, 3)
	for i := 0; i < items; i++ {
		if err := r.Update(workload.Key(i), op.NewSet(make([]byte, 64))); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// BenchmarkWriteState measures a base checkpoint — every item imaged and
// encoded — the cost a compaction's output and a recovery's input scale
// with.
func BenchmarkWriteState(b *testing.B) {
	for _, items := range []int{100, 10000} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			r := populatedReplica(b, items)
			buf := wire.AppendCheckpoint(nil, r.CaptureCheckpoint(true))
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = wire.AppendCheckpoint(buf[:0], r.CaptureCheckpoint(true))
			}
		})
	}
}

// BenchmarkReadState measures recovery from a base checkpoint: decode,
// then restore.
func BenchmarkReadState(b *testing.B) {
	for _, items := range []int{100, 10000} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			data := wire.AppendCheckpoint(nil, populatedReplica(b, items).CaptureCheckpoint(true))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := wire.DecodeCheckpoint(data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.RestoreCheckpoint(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
