package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/logvec"
	"repro/internal/op"
	"repro/internal/store"
)

func buildSource(b *testing.B, items, changed int) (*Replica, *Replica) {
	b.Helper()
	src, dst := NewReplica(0, 2), NewReplica(1, 2)
	for i := 0; i < items; i++ {
		if err := src.Update(key(i), op.NewSet([]byte("initial"))); err != nil {
			b.Fatal(err)
		}
	}
	AntiEntropy(dst, src)
	for i := 0; i < changed; i++ {
		src.Update(key(i), op.NewSet([]byte("changed")))
	}
	return src, dst
}

// BenchmarkBuildPropagation measures the flag-based SendPropagation used by
// the protocol (§6): the IsSelected bits compute the item-set union S in
// O(m).
func BenchmarkBuildPropagation(b *testing.B) {
	for _, m := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			src, dst := buildSource(b, 8192, m)
			req := dst.PropagationRequest()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p := src.BuildPropagation(req); len(p.Items) != m {
					b.Fatalf("items = %d, want %d", len(p.Items), m)
				}
			}
		})
	}
}

// BenchmarkAblationSelectMap is the DESIGN.md ablation partner of
// BenchmarkBuildPropagation: computing the item-set union with a map
// instead of the IsSelected flags. The asymptotics match (O(m)); the
// constant factor pays map hashing and allocation per selected item, which
// is the cost the paper's flag trick avoids.
func BenchmarkAblationSelectMap(b *testing.B) {
	for _, m := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			src, dst := buildSource(b, 8192, m)
			req := dst.PropagationRequest()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := src.buildPropagationWithMap(req)
				if len(p.Items) != m {
					b.Fatalf("items = %d, want %d", len(p.Items), m)
				}
			}
		})
	}
}

// buildPropagationWithMap mirrors BuildPropagation but deduplicates the
// item set with a map — the ablation variant, kept test-only.
func (r *Replica) buildPropagationWithMap(recipientDBVV interface{ Get(int) uint64 }) *Propagation {
	r.rlockAll()
	defer r.runlockAll()

	p := &Propagation{Source: r.id, Tails: make([][]TailRecord, r.n)}
	at := make(map[string]int32)
	var selected []*store.Item
	for k := 0; k < r.n; k++ {
		if r.dbvv[k] <= recipientDBVV.Get(k) {
			continue
		}
		floor := recipientDBVV.Get(k)
		tail := make([]TailRecord, 0, 8)
		r.logs.Component(k).TailAfter(floor, func(rec *logvec.Record) {
			pos, ok := at[rec.Item.Key]
			if !ok {
				pos = int32(len(selected))
				at[rec.Item.Key] = pos
				selected = append(selected, rec.Item)
			}
			tail = append(tail, TailRecord{Item: pos, Seq: rec.Seq})
		})
		p.Tails[k] = tail
	}
	p.Items = make([]ItemPayload, 0, len(selected))
	for _, it := range selected {
		p.Items = append(p.Items, ItemPayload{
			Key:   it.Key,
			Value: store.CloneBytes(it.Value),
			IVV:   it.IVV.Clone(),
		})
	}
	return p
}

// BenchmarkApplyPropagation measures the recipient side for m items.
func BenchmarkApplyPropagation(b *testing.B) {
	for _, m := range []int{16, 1024} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			src, dst := buildSource(b, 8192, m)
			req := dst.PropagationRequest()
			p := src.BuildPropagation(req)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Re-applying is idempotent: items compare Equal, records
				// are filtered — this measures the comparison-dominated
				// path, the recurring cost of epidemic schedules.
				dst.ApplyPropagation(p)
			}
		})
	}
}

// BenchmarkAntiEntropyNoop measures the complete three-step session between
// identical replicas: the O(1) fast path the whole design exists for.
func BenchmarkAntiEntropyNoop(b *testing.B) {
	src, dst := buildSource(b, 100000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if AntiEntropy(dst, src) {
			b.Fatal("unexpected data shipped")
		}
	}
}

// BenchmarkReconcileSession times one reconciliation's fingerprint phase,
// both sides in process, over summaries already built: n items, d of them
// rewritten at scattered keys on the source. At d = n/20 the session takes
// the stamp-sized sketch; at d = n/2 the strata estimator, then the
// listing. The catchup rows time whole sessions instead, fetch and
// adoption included, each after about d fresh rewrites made with the timer
// stopped: the steady state of a replica that keeps reconciling. The
// rewrites go to scattered keys, or, in the hot row, round-robin over a
// fixed set of hot keys, so that the stamps' bound D far exceeds the
// difference and the session sizes its sketch from the strata estimate.
// The difference varies by up to 10% from session to session, as a live
// catch-up's does, so no two consecutive sessions need a sketch of the
// same size. Beside the mean they report the median session.
func BenchmarkReconcileSession(b *testing.B) {
	for _, tc := range []struct{ n, d, hot int }{{20_000, 100, 0}, {200_000, 100, 0}, {5000, 2500, 0}, {20_000, 10_000, 200}} {
		n, d, hot := tc.n, tc.d, tc.hot
		name := fmt.Sprintf("n%d_d%d_catchup", n, d)
		if hot > 0 {
			name = fmt.Sprintf("n%d_d%d_hot%d_catchup", n, d, hot)
		}
		b.Run(name, func(b *testing.B) {
			src, dst := NewReplica(0, 2), NewReplica(1, 2)
			for i := 0; i < n; i++ {
				src.Update(fmt.Sprintf("item-%06d", i), op.NewSet([]byte{'a'}))
			}
			AntiEntropy(dst, src)
			// One untimed session of the same shape builds both summaries.
			rng := rand.New(rand.NewSource(1))
			perm, next := rng.Perm(n), 0
			if hot > 0 {
				perm = perm[:hot]
			}
			// rewrite makes about d updates and returns how many distinct
			// keys they changed.
			rewrite := func(v byte) int {
				k := d - d/10 + rng.Intn(d/5+1)
				for j := 0; j < k; j++ {
					src.Update(fmt.Sprintf("item-%06d", perm[next%len(perm)]), op.NewSet([]byte{v, byte(next / len(perm))}))
					next++
				}
				return min(k, len(perm))
			}
			rewrite('w')
			ReconcileAntiEntropy(dst, src)
			sessions := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k := rewrite(byte('b' + i%2))
				b.StartTimer()
				start := time.Now()
				if got := ReconcileAntiEntropy(dst, src); got != k {
					b.Fatalf("adopted %d items, want %d", got, k)
				}
				sessions[i] = time.Since(start)
			}
			b.StopTimer()
			slices.Sort(sessions)
			b.ReportMetric(float64(sessions[b.N/2].Nanoseconds()), "p50-ns/session")
		})
	}
	for _, tc := range []struct{ n, d int }{{5000, 250}, {5000, 2500}, {20000, 1000}} {
		b.Run(fmt.Sprintf("n%d_d%d", tc.n, tc.d), func(b *testing.B) {
			src, dst := NewReplica(0, 2), NewReplica(1, 2)
			for i := 0; i < tc.n; i++ {
				src.Update(fmt.Sprintf("item-%06d", i), op.NewSet([]byte{'a'}))
			}
			AntiEntropy(dst, src)
			for _, i := range rand.New(rand.NewSource(1)).Perm(tc.n)[:tc.d] {
				src.Update(fmt.Sprintf("item-%06d", i), op.NewSet([]byte{'b'}))
			}
			src.syncDigests()
			dst.syncDigests()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc := dst.StartReconcile()
				for ranges := rc.Next(); ranges != nil; ranges = rc.Next() {
					rc.Handle(ranges, src.ServeReconcile(ranges))
				}
				if len(rc.NeedKeys()) != tc.d {
					b.Fatalf("NeedKeys has %d keys, want %d", len(rc.NeedKeys()), tc.d)
				}
			}
		})
	}
}

// BenchmarkStreamCatchUp times one streamed catch-up in process: the
// source rewrites 20 000 uniformly drawn keys of N = 100 000 (with the
// timer stopped), then ChunkSession.Next cuts every chunk and ApplyChunk
// commits it at a recipient that was current before the rewrites. It
// reports each side's time per item shipped: next-ns/item walks the log
// tail, records and payloads at the source; apply-ns/item adopts the
// copies and supersedes the log records at the recipient.
func BenchmarkStreamCatchUp(b *testing.B) {
	const n, rewrites = 100_000, 20_000
	src, dst := NewReplica(0, 2), NewReplica(1, 2)
	val := make([]byte, 16)
	for i := 0; i < n; i++ {
		src.Update(fmt.Sprintf("item-%07d", i), op.NewSet(val))
	}
	AntiEntropy(dst, src)
	rng := rand.New(rand.NewSource(1))
	var next, apply time.Duration
	items := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < rewrites; j++ {
			val[0], val[1] = byte(i), byte(j)
			src.Update(fmt.Sprintf("item-%07d", rng.Intn(n)), op.NewSet(val))
		}
		b.StartTimer()
		s := src.StartChunkSession(dst.DBVV(), 0)
		for {
			start := time.Now()
			p := s.Next()
			next += time.Since(start)
			if p == nil {
				break
			}
			items += len(p.Items)
			start = time.Now()
			dst.ApplyChunk(p)
			apply += time.Since(start)
			s.Recycle(p)
		}
	}
	b.StopTimer()
	if !dst.DBVV().Equal(src.DBVV()) {
		b.Fatal("recipient did not catch up")
	}
	b.ReportMetric(float64(next.Nanoseconds())/float64(items), "next-ns/item")
	b.ReportMetric(float64(apply.Nanoseconds())/float64(items), "apply-ns/item")
}
