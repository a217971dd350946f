package wire

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
)

// rewriteShape builds a source and a recipient of n servers in the
// catch-up shape: the source wrote items keys, each once, then rewrote m
// of them in a scattered order, and the recipient holds everything but
// the rewrites. Every item is written by origin 0.
func rewriteShape(t testing.TB, n, items, m, valueBytes int, keyFmt string) (source, recipient *core.Replica) {
	t.Helper()
	source, recipient = core.NewReplica(0, n), core.NewReplica(1, n)
	value := make([]byte, valueBytes)
	for i := 0; i < items; i++ {
		value[0] = byte(i)
		if err := source.Update(fmt.Sprintf(keyFmt, i), op.NewSet(value)); err != nil {
			t.Fatal(err)
		}
	}
	recipient.ApplyPropagation(source.BuildPropagation(recipient.PropagationRequest()))
	for i := 0; i < m; i++ {
		value[0] = byte(i + 1)
		key := fmt.Sprintf(keyFmt, (i*7919)%items)
		if err := source.Update(key, op.NewSet(value)); err != nil {
			t.Fatal(err)
		}
	}
	return source, recipient
}

// A tail record points at its item by position and carries its seq as a
// delta from the previous record's, so a message names each key once. Of
// the m = 64 rewrites at n = 3 over N = 20 000 items (keys item-%07d),
// the tails now take 130 B: the first record's absolute seq (3 B) and
// position (1 B), then 2 B per record, where a length-prefixed key and an
// absolute seq took 16 B per record (1,024 B in all) under version 5.
func TestPropagationNamesEachKeyOnce(t *testing.T) {
	for _, tc := range []struct {
		valueBytes int
		want, v5   int
	}{
		{16, 2380, 3270},
		{128, 9612, 10502},
	} {
		t.Run(fmt.Sprintf("v%d", tc.valueBytes), func(t *testing.T) {
			source, recipient := rewriteShape(t, 3, 20000, 64, tc.valueBytes, "item-%07d")
			p := source.BuildPropagation(recipient.PropagationRequest())
			if got := len(p.Items); got != 64 {
				t.Fatalf("%d items, want 64", got)
			}
			if got := len(AppendPropagation(nil, p)); got != tc.want {
				t.Errorf("m = 64 at %d-B values encodes to %d B, want %d (%d under version 5)", tc.valueBytes, got, tc.want, tc.v5)
			}
		})
	}
}

// The bulk_catchup shape: two replicas, 100 000 items with 11-byte keys
// and 128-byte values, 20 000 rewrites caught up as a drained chunk
// session. Under version 5 its chunks carried 161.0 B per item, 15.0 B of
// them tail records; now a record costs 2 B, and the session needs one
// chunk fewer.
func TestChunkSessionBytesPerItem(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 100 000 items")
	}
	source, recipient := rewriteShape(t, 2, 100000, 20000, 128, "item-%06d")
	s := source.StartChunkSession(recipient.DBVV(), core.DefaultChunkBytes)
	var bytes, items, chunks int
	var buf []byte
	for seq := uint64(0); ; seq++ {
		p := s.Next()
		if p == nil {
			break
		}
		buf = AppendSessionChunk(buf[:0], seq, p)
		bytes += len(buf)
		items += len(p.Items)
		chunks++
		s.Recycle(p)
	}
	if items != 20000 || chunks != 13 {
		t.Fatalf("session shipped %d items in %d chunks, want 20000 in 13", items, chunks)
	}
	const want = 2960192 // 148.0 B per item; 3,220,110 B in 14 chunks under version 5
	if bytes != want {
		t.Errorf("chunks carry %d B (%.1f B per item), want %d (%.1f B per item)",
			bytes, float64(bytes)/float64(items), want, float64(want)/float64(items))
	}
}
