package core

import (
	"fmt"
	"testing"

	"repro/internal/baseline/wuu"
	"repro/internal/op"
	"repro/internal/vv"
)

func TestNoteAckIsMonotoneAndExcludesSelf(t *testing.T) {
	r := NewReplica(0, 3)
	r.NoteAck(1, vv.VV{5, 2, 0})
	if got := r.AckedPeer(1); !got.Equal(vv.VV{5, 2, 0}) {
		t.Fatalf("acked[1] = %v", got)
	}
	// Merge keeps per-component maxima; components never regress.
	r.NoteAck(1, vv.VV{3, 7, 1})
	if got := r.AckedPeer(1); !got.Equal(vv.VV{5, 7, 1}) {
		t.Fatalf("acked[1] after merge = %v", got)
	}
	r.NoteAck(0, vv.VV{9, 9, 9}) // self: ignored
	if got := r.AckedPeer(0); got != nil {
		t.Fatalf("acked[self] = %v, want nil", got)
	}
	r.NoteAck(-1, vv.VV{1}) // out of range: ignored
	if got := r.AckedPeer(2); got != nil {
		t.Fatalf("acked[2] = %v, want nil", got)
	}
}

func TestNoteSessionAckLearnsOnlyNonEmptyTails(t *testing.T) {
	r := NewReplica(0, 3)
	p := &Propagation{
		Source: 1,
		Tails: [][]TailRecord{
			{{Item: 0, Seq: 4}, {Item: 1, Seq: 9}}, // origin 0: tail ends at 9
			{},                                     // origin 1: empty — teaches nothing
			{{Item: 2, Seq: 2}},                    // origin 2: ends at 2
		},
	}
	r.NoteSessionAck(1, p)
	if got := r.AckedPeer(1); !got.Equal(vv.VV{9, 0, 2}) {
		t.Fatalf("acked[1] = %v, want [9 0 2]", got)
	}
	// A nil propagation (you-are-current) and an all-empty one teach nothing.
	r.NoteSessionAck(2, nil)
	r.NoteSessionAck(2, &Propagation{Source: 2, Tails: make([][]TailRecord, 3)})
	if got := r.AckedPeer(2); got != nil {
		t.Fatalf("acked[2] = %v, want nil", got)
	}
}

func TestPruneRequiresEveryConfiguredPeer(t *testing.T) {
	r0 := NewReplica(0, 3)
	r1 := NewReplica(1, 3)
	r2 := NewReplica(2, 3)
	r0.ConfigurePruning([]int{1, 2})

	for i := 0; i < 5; i++ {
		if err := r0.Update(fmt.Sprintf("k%d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	// First pulls: each request carries the peer's pre-session DBVV (zero),
	// so nothing is covered yet.
	AntiEntropy(r1, r0)
	if got := r0.Prune(); got != 0 {
		t.Fatalf("pruned %d with one peer never heard from", got)
	}
	AntiEntropy(r2, r0)
	if got := r0.Prune(); got != 0 {
		t.Fatalf("pruned %d before post-session acks", got)
	}
	// Second pulls are you-are-current, but their requests still carry the
	// now-complete DBVVs — acks advance and the records become coverable.
	AntiEntropy(r1, r0)
	AntiEntropy(r2, r0)
	if got := r0.Prune(); got != 5 {
		t.Fatalf("pruned %d, want all 5", got)
	}
	if r0.LogRecords() != 0 {
		t.Fatalf("log holds %d records after full ack coverage", r0.LogRecords())
	}
	if w := r0.PrunedBefore(); w.Get(0) == 0 {
		t.Fatalf("watermark did not advance: %v", w)
	}
	// Everything still converges from the pruned source for on-watermark
	// peers (they need nothing).
	if AntiEntropy(r1, r0) {
		t.Error("current peer received data after prune")
	}
}

func TestPruneFloorClampedByOwnDBVV(t *testing.T) {
	r := NewReplica(0, 2)
	r.ConfigurePruning([]int{1})
	if err := r.Update("x", op.NewSet([]byte("v"))); err != nil {
		t.Fatal(err)
	}
	// A peer claiming more than we ever performed must not push the floor
	// past our own DBVV (the clamp).
	r.NoteAck(1, vv.VV{100, 100})
	if got := r.Prune(); got != 1 {
		t.Fatalf("pruned %d, want 1", got)
	}
	if w := r.PrunedBefore(); w.Get(0) != r.DBVV().Get(0) {
		t.Fatalf("watermark %v exceeds own DBVV %v", w, r.DBVV())
	}
}

func TestPruneUnconfiguredIsNoop(t *testing.T) {
	r := NewReplica(0, 2)
	if err := r.Update("x", op.NewSet([]byte("v"))); err != nil {
		t.Fatal(err)
	}
	if got := r.Prune(); got != 0 {
		t.Fatalf("unconfigured replica pruned %d", got)
	}
	if len(r.PrunedBefore()) != 0 && r.PrunedBefore().Get(0) != 0 {
		t.Fatalf("watermark moved: %v", r.PrunedBefore())
	}
}

func TestLogCapForcesFloorPastSilentPeer(t *testing.T) {
	r := NewReplica(0, 2)
	r.ConfigurePruning([]int{1}) // peer 1 never acks
	r.SetLogCap(3)
	for i := 0; i < 10; i++ {
		if err := r.Update(fmt.Sprintf("k%d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Prune(); got != 7 {
		t.Fatalf("pruned %d, want 7 (cap 3 over 10 records)", got)
	}
	if got := r.LogRecords(); got != 3 {
		t.Fatalf("log holds %d records, want 3", got)
	}
	// The watermark sits past the dropped records: an empty puller needs
	// reconciliation, a caught-up one does not.
	if !r.NeedsReconcile(vv.VV{0, 0}) {
		t.Error("empty DBVV not diverted to reconcile")
	}
	if r.NeedsReconcile(r.DBVV()) {
		t.Error("current DBVV diverted to reconcile")
	}
	// Idempotent: a second pass has nothing to do.
	if got := r.Prune(); got != 0 {
		t.Fatalf("second pass pruned %d", got)
	}
}

func TestRestoreAcksMerges(t *testing.T) {
	r := NewReplica(0, 3)
	r.NoteAck(1, vv.VV{4, 0, 0})
	r.RestoreAcks([]vv.VV{{9, 9, 9}, {1, 6, 0}, {2, 2, 2}})
	if got := r.AckedPeer(0); got != nil {
		t.Fatalf("restore planted a self ack: %v", got)
	}
	if got := r.AckedPeer(1); !got.Equal(vv.VV{4, 6, 0}) {
		t.Fatalf("acked[1] = %v, want merge [4 6 0]", got)
	}
	if got := r.AckedPeer(2); !got.Equal(vv.VV{2, 2, 2}) {
		t.Fatalf("acked[2] = %v", got)
	}
}

// TestPullStraddlingPrunedBoundary is the straddle table: pullers whose
// DBVV sits below, at, and above the pruned watermark. Below diverts to
// reconciliation and then picks up the surviving log tail in the same
// AntiEntropy call; at/above are served purely from the log.
func TestPullStraddlingPrunedBoundary(t *testing.T) {
	build := func() (*Replica, vv.VV) {
		src := NewReplica(0, 4)
		src.ConfigurePruning([]int{1, 2, 3})
		src.SetLogCap(4)
		for i := 0; i < 8; i++ {
			src.Update(fmt.Sprintf("old%d", i), op.NewSet([]byte{byte(i)}))
		}
		atWatermark := src.DBVV().Clone()
		for i := 0; i < 8; i++ {
			src.Update(fmt.Sprintf("new%d", i), op.NewSet([]byte{1, byte(i)}))
		}
		// Cap 4 over 16 records: floor lands mid-history. Everything at or
		// before atWatermark is pruned, and a slice of the "new" records too.
		if got := src.Prune(); got != 12 {
			t.Fatalf("setup pruned %d, want 12", got)
		}
		if !src.NeedsReconcile(atWatermark) {
			t.Fatal("setup: mid-history DBVV not below the watermark")
		}
		return src, atWatermark
	}

	t.Run("below", func(t *testing.T) {
		src, _ := build()
		dst := NewReplica(1, 4) // empty: far below the watermark
		if !AntiEntropy(dst, src) {
			t.Fatal("session shipped nothing")
		}
		if ok, why := Converged(dst, src); !ok {
			t.Fatalf("not converged after straddling pull: %s", why)
		}
		m := dst.Metrics()
		if m.ReconcileSessions != 1 {
			t.Errorf("ReconcileSessions = %d, want 1", m.ReconcileSessions)
		}
		if m.ReconcileRoundTrips == 0 || m.ReconcileBytes == 0 {
			t.Errorf("reconcile traffic not charged: %+v round trips, %d bytes",
				m.ReconcileRoundTrips, m.ReconcileBytes)
		}
	})

	t.Run("at", func(t *testing.T) {
		// A peer exactly at the watermark: every record it lacks survives in
		// the log, so the session must stay on the log path.
		src := NewReplica(0, 4)
		src.ConfigurePruning([]int{1, 2, 3})
		dst := NewReplica(1, 4)
		for i := 0; i < 8; i++ {
			src.Update(fmt.Sprintf("old%d", i), op.NewSet([]byte{byte(i)}))
		}
		AntiEntropy(dst, src)
		AntiEntropy(dst, src) // second request carries the full DBVV: ack learned
		src.NoteAck(2, src.DBVV())
		src.NoteAck(3, src.DBVV())
		if src.Prune() == 0 {
			t.Fatal("setup: nothing pruned")
		}
		for i := 0; i < 4; i++ {
			src.Update(fmt.Sprintf("new%d", i), op.NewSet([]byte{1, byte(i)}))
		}
		if src.NeedsReconcile(dst.DBVV()) {
			t.Fatal("setup: at-watermark peer classified below it")
		}
		if !AntiEntropy(dst, src) {
			t.Fatal("session shipped nothing")
		}
		if ok, why := Converged(dst, src); !ok {
			t.Fatalf("not converged: %s", why)
		}
		if m := dst.Metrics(); m.ReconcileSessions != 0 {
			t.Errorf("at-watermark pull used %d reconcile sessions", m.ReconcileSessions)
		}
	})

	t.Run("above", func(t *testing.T) {
		src, _ := build()
		dst := NewReplica(1, 4)
		AntiEntropy(dst, src) // catches up (via reconcile)
		before := dst.Metrics()
		if AntiEntropy(dst, src) {
			t.Fatal("current peer received data")
		}
		d := dst.Metrics().Diff(before)
		if d.ReconcileSessions != 0 {
			t.Errorf("current pull used %d reconcile sessions", d.ReconcileSessions)
		}
	})
}

// TestPruneConformsToWuuGC checks the paper-family GC law against the
// Wuu-Bernstein baseline: once every server provably holds every update
// (full mutual knowledge), both protocols retain zero log records — wuu via
// its time-table GC, this protocol via min-acked pruning.
func TestPruneConformsToWuuGC(t *testing.T) {
	const n, items = 4, 12
	w := wuu.New(n)
	rs := make([]*Replica, n)
	for i := range rs {
		rs[i] = NewReplica(i, n)
		peers := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, j)
			}
		}
		rs[i].ConfigurePruning(peers)
	}

	// Identical single-writer workload on both systems.
	for i := 0; i < items; i++ {
		key, val := fmt.Sprintf("k%d", i), []byte{byte(i)}
		owner := i % n
		if err := w.Update(owner, key, val); err != nil {
			t.Fatal(err)
		}
		if err := rs[owner].Update(key, op.NewSet(val)); err != nil {
			t.Fatal(err)
		}
	}
	// Two full broadcast sweeps: the first spreads the data, the second
	// spreads everyone's knowledge of everyone (wuu's tt rows; our acks via
	// the you-are-current requests).
	for sweep := 0; sweep < 2; sweep++ {
		for src := 0; src < n; src++ {
			for r := 0; r < n; r++ {
				if r == src {
					continue
				}
				if err := w.Exchange(r, src); err != nil {
					t.Fatal(err)
				}
				AntiEntropy(rs[r], rs[src])
			}
		}
	}
	if ok, why := w.Converged(); !ok {
		t.Fatalf("wuu not converged: %s", why)
	}
	if ok, why := Converged(rs...); !ok {
		t.Fatalf("dbvv not converged: %s", why)
	}

	for i := 0; i < n; i++ {
		rs[i].Prune()
		if got, want := rs[i].LogRecords(), w.LogLen(i); got != want || got != 0 {
			t.Errorf("node %d: dbvv retains %d records, wuu retains %d, want both 0",
				i, got, want)
		}
	}
}
