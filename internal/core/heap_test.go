package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/op"
)

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeapBytesPerItem counts the live heap a replica of n = 3 servers
// holds per item: 100 000 items with 16-byte values, written by one origin
// (one log record per item) and by two (two records per item). While
// every log component kept its P_j(x) pointers in a map of its own, this
// test read 285.6 and 368.9 B; with the pointers on the item it reads
// 258.6 and 283.0 B, and the ceilings keep it below 270 and 353 B.
func TestHeapBytesPerItem(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 100 000 items")
	}
	const n = 100_000
	write := func(r *Replica, tag uint64) {
		val := make([]byte, 16)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(val, uint64(i))
			binary.LittleEndian.PutUint64(val[8:], tag)
			if err := r.Update(fmt.Sprintf("item-%07d", i), op.NewSet(val)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		writers int
		ceiling float64
	}{{"one_writer", 1, 270}, {"two_writers", 2, 353}} {
		t.Run(tc.name, func(t *testing.T) {
			var other *Replica
			if tc.writers == 2 {
				other = NewReplica(1, 3)
				write(other, 1)
			}
			base := liveHeap()
			r := NewReplica(0, 3)
			if other != nil {
				AntiEntropy(r, other)
			}
			write(r, 0)
			per := float64(liveHeap()-base) / n
			if got := r.LogRecords(); got != tc.writers*n {
				t.Fatalf("%d log records, want %d", got, tc.writers*n)
			}
			t.Logf("%d writing origins: %.1f B per item", tc.writers, per)
			if per > tc.ceiling {
				t.Errorf("replica holds %.1f B per item, over the %.0f B ceiling", per, tc.ceiling)
			}
			runtime.KeepAlive(r)
			runtime.KeepAlive(other)
		})
	}
}
