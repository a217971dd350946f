package transport

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
)

// BenchmarkTransportRoundTrip measures one anti-entropy exchange over real
// loopback TCP: a persistent pooled connection speaking the compact framed
// binary codec.
//
// Cases: "current" is the identical-replica O(1) "you-are-current"
// exchange the paper's protocol makes the common case (§6); m=1 and m=64
// ship that many changed items. Results are recorded in EXPERIMENTS.md
// (E15).
func BenchmarkTransportRoundTrip(b *testing.B) {
	b.Run("current", func(b *testing.B) {
		src := core.NewReplica(0, 4)
		src.Update("x", op.NewSet([]byte("value")))
		srv, err := Listen(src, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c := NewClient(Options{})
		defer c.Close()
		// The recipient's view equals the source's: every exchange is the
		// O(1) noop.
		dbvv := src.DBVV()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := c.PullSessionMetered(nil, srv.Addr(), "", 1, dbvv)
			if err != nil {
				b.Fatal(err)
			}
			if p != nil {
				b.Fatal("expected you-are-current")
			}
		}
	})
	for _, m := range []int{1, 64} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			src := core.NewReplica(0, 4)
			for i := 0; i < m; i++ {
				src.Update(fmt.Sprintf("key-%04d", i), op.NewSet(make([]byte, 128)))
			}
			srv, err := Listen(src, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c := NewClient(Options{})
			defer c.Close()
			// A fixed stale DBVV makes the source ship all m items every
			// exchange without mutating recipient state.
			stale := core.NewReplica(1, 4).DBVV()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := c.PullSessionMetered(nil, srv.Addr(), "", 1, stale)
				if err != nil {
					b.Fatal(err)
				}
				if p == nil || len(p.Items) != m {
					b.Fatalf("expected %d items", m)
				}
			}
		})
	}
}
