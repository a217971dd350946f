// Benchmarks regenerating the paper's performance claims as testing.B
// measurements — one benchmark family per experiment in DESIGN.md's index.
// Run with: go test -bench=. -benchmem
//
// The claim under test is always a *shape*: which quantity the cost scales
// with. Compare sub-benchmark results across their parameter (N, m, n)
// rather than reading absolute ns/op.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/baseline/lotus"
	"repro/internal/baseline/peritem"
	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/workload"
)

// benchPair returns two fully synchronized replicas over an N-item
// database.
func benchPair(b *testing.B, items int) (*core.Replica, *core.Replica) {
	b.Helper()
	a, c := core.NewReplica(0, 2), core.NewReplica(1, 2)
	for i := 0; i < items; i++ {
		if err := a.Update(workload.Key(i), op.NewSet([]byte("initial"))); err != nil {
			b.Fatal(err)
		}
	}
	core.AntiEntropy(c, a)
	return a, c
}

// BenchmarkE1IdenticalReplicas measures one anti-entropy session between
// identical replicas. dbvv must be flat across N; per-item and lotus grow
// linearly (E1).
func BenchmarkE1IdenticalReplicas(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("dbvv/N=%d", n), func(b *testing.B) {
			src, dst := benchPair(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.AntiEntropy(dst, src)
			}
		})
		b.Run(fmt.Sprintf("peritem/N=%d", n), func(b *testing.B) {
			s := peritem.New(2)
			for i := 0; i < n; i++ {
				s.Update(0, workload.Key(i), []byte("initial"))
			}
			s.Exchange(1, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Exchange(1, 0)
			}
		})
		b.Run(fmt.Sprintf("lotus/N=%d", n), func(b *testing.B) {
			// Keep the source "modified since last propagation" (the §8.1
			// indirect-sync case) by touching one sacrificial item; the
			// scan over all N items is the measured cost.
			s := lotus.New(2)
			for i := 0; i < n; i++ {
				s.Update(0, workload.Key(i), []byte("initial"))
			}
			s.Exchange(1, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(0, "sacrificial", []byte{byte(i)})
				s.Exchange(1, 0)
			}
		})
	}
}

// BenchmarkE2PropagationCost measures update-then-propagate of m=64 items
// as N grows: dbvv flat in N, peritem linear in N (E2).
func BenchmarkE2PropagationCost(b *testing.B) {
	const m = 64
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("dbvv/N=%d/m=%d", n, m), func(b *testing.B) {
			src, dst := benchPair(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < m; j++ {
					src.Update(workload.Key(j*(n/m)), op.NewSet([]byte("changed")))
				}
				core.AntiEntropy(dst, src)
			}
		})
		b.Run(fmt.Sprintf("peritem/N=%d/m=%d", n, m), func(b *testing.B) {
			s := peritem.New(2)
			for i := 0; i < n; i++ {
				s.Update(0, workload.Key(i), []byte("initial"))
			}
			s.Exchange(1, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < m; j++ {
					s.Update(0, workload.Key(j*(n/m)), []byte("changed"))
				}
				s.Exchange(1, 0)
			}
		})
	}
}

// BenchmarkE2bVsM fixes N and sweeps m: dbvv cost grows linearly in m and
// only m (E2b).
func BenchmarkE2bVsM(b *testing.B) {
	const n = 50000
	for _, m := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("dbvv/N=%d/m=%d", n, m), func(b *testing.B) {
			src, dst := benchPair(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < m; j++ {
					src.Update(workload.Key(j), op.NewSet([]byte("changed")))
				}
				core.AntiEntropy(dst, src)
			}
		})
	}
}

// BenchmarkE5OutOfBound measures the out-of-bound copy itself across
// database sizes (constant) and the intra-node replay across accumulated
// update counts (linear) (E5).
func BenchmarkE5OutOfBound(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("copy/N=%d", n), func(b *testing.B) {
			src, dst := benchPair(b, n)
			src.Update("hot", op.NewSet([]byte("fresh")))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.CopyOutOfBound("hot", src)
			}
		})
	}
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("replay/k=%d", k), func(b *testing.B) {
			// Setup (a tiny OOB-diverged pair) is part of each measured
			// iteration; it is constant across k, so the growth across the
			// k sub-benchmarks isolates the replay cost.
			for i := 0; i < b.N; i++ {
				src, dst := benchPair(b, 4)
				src.Update("hot", op.NewSet([]byte("fresh")))
				dst.CopyOutOfBound("hot", src)
				for j := 0; j < k; j++ {
					dst.Update("hot", op.NewAppend([]byte{byte(j)}))
				}
				core.AntiEntropy(dst, src) // catch-up + replay of k aux ops
			}
		})
	}
}

// BenchmarkE7ServerSweep measures SendPropagation as the server count n
// grows with m fixed: at most linear in n (E7).
func BenchmarkE7ServerSweep(b *testing.B) {
	const m = 128
	for _, n := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			replicas := make([]*core.Replica, n)
			for i := range replicas {
				replicas[i] = core.NewReplica(i, n)
			}
			for i := 0; i < 4096; i++ {
				replicas[0].Update(workload.Key(i), op.NewSet([]byte("initial")))
			}
			for r := 1; r < n; r++ {
				core.AntiEntropy(replicas[r], replicas[0])
			}
			for i := 0; i < m; i++ {
				replicas[0].Update(workload.Key(i), op.NewSet([]byte("changed")))
			}
			req := replicas[1].PropagationRequest()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p := replicas[0].BuildPropagation(req); p == nil {
					b.Fatal("expected a propagation")
				}
			}
		})
	}
}

// BenchmarkUpdate measures the per-update protocol overhead beyond applying
// the operation: §6 claims it is constant — independent of database size
// and update history length.
func BenchmarkUpdate(b *testing.B) {
	for _, n := range []int{100, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			r, _ := benchPair(b, n)
			val := op.NewSet([]byte("payload"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Update(workload.Key(i%n), val)
			}
		})
	}
}

// BenchmarkE6LogBound measures log-vector memory behaviour: appending U
// updates over a fixed item space keeps the record count bounded, so
// allocation per update amortizes to the record struct alone (E6's
// micro-level claim; the macro table is in epibench).
func BenchmarkE6LogBound(b *testing.B) {
	const items = 1000
	r := core.NewReplica(0, 2)
	val := op.NewSet([]byte("v"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Update(workload.Key(i%items), val)
	}
	b.StopTimer()
	if got := r.LogRecords(); got > items {
		b.Fatalf("log records = %d, exceeds item bound %d", got, items)
	}
}

// BenchmarkE11DeltaVsFull measures one "small edit of a large value, then
// propagate" cycle in both payload representations (E11): delta mode ships
// the operation, full mode re-ships the 4 KiB value.
func BenchmarkE11DeltaVsFull(b *testing.B) {
	for _, mode := range []string{"full", "delta"} {
		b.Run(mode, func(b *testing.B) {
			var opts []core.Option
			if mode == "delta" {
				opts = append(opts, core.WithDeltaPropagation())
			}
			src := core.NewReplica(0, 2, opts...)
			dst := core.NewReplica(1, 2, opts...)
			big := make([]byte, 4096)
			src.Update("doc", op.NewSet(big))
			core.AntiEntropy(dst, src)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Update("doc", op.NewWriteAt(i%4000, []byte("edit")))
				core.AntiEntropy(dst, src)
			}
			b.StopTimer()
			m := src.Metrics()
			b.ReportMetric(float64(m.BytesSent)/float64(b.N), "bytes/op")
		})
	}
}

// BenchmarkE4FailoverRound measures one random-peer gossip round of an
// 8-node dbvv system with a crashed originator — the recovery path of E4.
func BenchmarkE4FailoverRound(b *testing.B) {
	const n = 8
	replicas := make([]*core.Replica, n)
	for i := range replicas {
		replicas[i] = core.NewReplica(i, n)
	}
	replicas[0].Update("x", op.NewSet([]byte("v")))
	core.AntiEntropy(replicas[1], replicas[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Nodes 1..7 gossip in a ring; node 0 (the originator) is down.
		for r := 1; r < n; r++ {
			src := r + 1
			if src == n {
				src = 1
			}
			core.AntiEntropy(replicas[r], replicas[src])
		}
	}
}
