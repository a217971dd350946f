package core

import (
	"fmt"
	"testing"

	"repro/internal/logvec"
	"repro/internal/op"
	"repro/internal/store"
	"repro/internal/vv"
)

// populate writes count items to r, value ~64 bytes each.
func populate(t *testing.T, r *Replica, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		key := fmt.Sprintf("item/%04d", i)
		val := fmt.Sprintf("value-%04d-%s", i, "0123456789012345678901234567890123456789012345678")
		mustUpdate(t, r, key, val)
	}
}

func TestStreamAntiEntropyMatchesMonolithic(t *testing.T) {
	source := NewReplica(0, 3)
	populate(t, source, 200)

	streamed := NewReplica(1, 3)
	if !streamAntiEntropy(streamed, source, 2<<10) {
		t.Fatal("streaming session shipped nothing")
	}
	mono := NewReplica(2, 3)
	if !AntiEntropy(mono, source) {
		t.Fatal("monolithic session shipped nothing")
	}

	checkAll(t, source, streamed, mono)
	if ok, why := streamed.Snapshot().Equivalent(mono.Snapshot()); !ok {
		t.Fatalf("streamed and monolithic recipients differ: %s", why)
	}
	if got := streamed.Metrics().ChunksApplied; got < 5 {
		t.Fatalf("ChunksApplied = %d, want several (budget should force many chunks)", got)
	}
}

func TestStreamAntiEntropyMultiOrigin(t *testing.T) {
	// Source holds updates from three origins, so session records span
	// log-vector components and items complete across per-origin frontiers.
	a, b, c := NewReplica(0, 3), NewReplica(1, 3), NewReplica(2, 3)
	for i := 0; i < 60; i++ {
		mustUpdate(t, a, fmt.Sprintf("a/%02d", i), "from-a")
		mustUpdate(t, b, fmt.Sprintf("b/%02d", i), "from-b")
		mustUpdate(t, c, fmt.Sprintf("shared/%02d", i%10), fmt.Sprintf("c-%d", i))
	}
	AntiEntropy(a, b)
	AntiEntropy(a, c)
	// Touch adopted items so some items carry records from several origins.
	for i := 0; i < 10; i++ {
		mustUpdate(t, a, fmt.Sprintf("shared/%02d", i), "a-over-c")
	}

	recipient := NewReplica(1, 3)
	if !streamAntiEntropy(recipient, a, 1<<10) {
		t.Fatal("streaming session shipped nothing")
	}
	checkAll(t, a, recipient)
	if ok, why := a.Snapshot().Equivalent(recipient.Snapshot()); !ok {
		t.Fatalf("recipient did not converge: %s", why)
	}
}

func TestChunkSessionPartialApplyIsConsistentPrefix(t *testing.T) {
	source := NewReplica(0, 2)
	populate(t, source, 150)
	recipient := NewReplica(1, 2)

	s := source.StartChunkSession(recipient.PropagationRequest(), 1<<10)
	if s == nil {
		t.Fatal("session is nil for a stale recipient")
	}
	// Apply only the first three chunks — a simulated mid-session
	// disconnect — and verify the partial state is a valid replica state.
	for i := 0; i < 3; i++ {
		p := s.Next()
		if p == nil {
			t.Fatalf("session drained after %d chunks, want more", i)
		}
		recipient.ApplyChunk(p)
	}
	checkAll(t, recipient)
	partial := recipient.DBVV()
	if partial.Sum() == 0 {
		t.Fatal("no progress recorded after three chunks")
	}
	if partial.Sum() >= source.DBVV().Sum() {
		t.Fatal("three small chunks already shipped everything; budget not honored")
	}

	// Resume is free: a fresh session starts from the advanced DBVV and
	// ships only the unapplied suffix.
	before := source.Metrics().LogRecordsSent
	if !streamAntiEntropy(recipient, source, 1<<10) {
		t.Fatal("resume session shipped nothing")
	}
	suffix := source.Metrics().LogRecordsSent - before
	if suffix >= uint64(source.LogRecords()) {
		t.Fatalf("resume re-shipped the whole log (%d of %d records)", suffix, source.LogRecords())
	}
	checkAll(t, source, recipient)
	if ok, why := source.Snapshot().Equivalent(recipient.Snapshot()); !ok {
		t.Fatalf("resume did not converge: %s", why)
	}
}

func TestChunkSessionAbortsOnMidSessionUpdate(t *testing.T) {
	source := NewReplica(0, 2)
	populate(t, source, 100)
	recipient := NewReplica(1, 2)

	s := source.StartChunkSession(recipient.PropagationRequest(), 1<<10)
	p := s.Next()
	if p == nil {
		t.Fatal("first chunk is nil")
	}
	recipient.ApplyChunk(p)

	// Supersede an item whose record has not shipped yet: the last-written
	// item sits at the end of the single origin's tail.
	mustUpdate(t, source, "item/0099", "rewritten-mid-session")

	aborted := false
	for i := 0; i < 1000; i++ {
		p := s.Next()
		if p == nil {
			aborted = true
			break
		}
		recipient.ApplyChunk(p)
	}
	if !aborted {
		t.Fatal("session never ended")
	}
	if v, _ := recipient.Read("item/0099"); string(v) == "rewritten-mid-session" {
		t.Fatal("session shipped a copy from beyond its target")
	}
	// The partial state must be consistent, and a follow-up session must
	// deliver the superseded item.
	checkAll(t, recipient)
	if !streamAntiEntropy(recipient, source, 1<<10) {
		t.Fatal("follow-up session shipped nothing")
	}
	checkAll(t, source, recipient)
	if ok, why := source.Snapshot().Equivalent(recipient.Snapshot()); !ok {
		t.Fatalf("follow-up did not converge: %s", why)
	}
	if got := readString(t, recipient, "item/0099"); got != "rewritten-mid-session" {
		t.Fatalf("item/0099 = %q after follow-up, want the mid-session value", got)
	}
}

// TestChunkSessionSurvivesPruneBetweenChunks prunes a capped source between
// two chunks of a session, so that snapshot records not yet emitted drop
// from the log while their items keep a record at the other origin. Every
// later record must still point at its own item, no placeholder may ship,
// and the recipient must end consistent and converge. With the source at
// id 0 a pruned record is emitted before its item's other record; at id 1,
// after it.
func TestChunkSessionSurvivesPruneBetweenChunks(t *testing.T) {
	for _, src := range []int{0, 1} {
		t.Run(fmt.Sprintf("source=%d", src), func(t *testing.T) {
			const items = 60
			source, writer := NewReplica(src, 3), NewReplica(1-src, 3)
			for i := 0; i < items; i++ {
				mustUpdate(t, source, fmt.Sprintf("item/%02d", i), "first")
			}
			AntiEntropy(writer, source)
			for i := 0; i < items; i++ {
				mustUpdate(t, writer, fmt.Sprintf("item/%02d", i), fmt.Sprintf("second-%02d", i))
			}
			AntiEntropy(source, writer)
			source.SetLogCap(80)

			// The key each session record names, read before any pruning.
			want := make([]map[uint64]string, 3)
			for k := range want {
				want[k] = make(map[uint64]string)
				source.logs.Component(k).TailAfter(0, func(rec *logvec.Record) {
					want[k][rec.Seq] = rec.Item.Key
				})
			}

			recipient := NewReplica(2, 3)
			s := source.StartChunkSession(recipient.PropagationRequest(), 512)
			check := func(p *Propagation) {
				t.Helper()
				for i := range p.Items {
					if p.Items[i].Key == "" {
						t.Fatalf("chunk %d ships an unfilled item at position %d", s.Chunks(), i)
					}
				}
				for k, tail := range p.Tails {
					for _, rec := range tail {
						if rec.Item < 0 || int(rec.Item) >= len(p.Items) {
							t.Fatalf("chunk %d: record %d@%d points past %d items", s.Chunks(), rec.Seq, k, len(p.Items))
						}
						if got := p.Items[rec.Item].Key; got != want[k][rec.Seq] {
							t.Fatalf("chunk %d: record %d@%d points at %q, want %q", s.Chunks(), rec.Seq, k, got, want[k][rec.Seq])
						}
					}
				}
			}
			p := s.Next()
			if p == nil {
				t.Fatal("first chunk is nil")
			}
			check(p)
			recipient.ApplyChunk(p)
			if s.pos[src] >= items {
				t.Fatalf("first chunk emitted all %d records at origin %d; nothing left to prune", items, src)
			}

			// Other keys overflow the cap, and the prune drops every session
			// record at the source's origin, emitted or not.
			for i := 0; i < 100; i++ {
				mustUpdate(t, source, fmt.Sprintf("other/%03d", i), "x")
			}
			if got := source.Prune(); got < items {
				t.Fatalf("Prune dropped %d records, want at least %d", got, items)
			}
			for p = s.Next(); p != nil; p = s.Next() {
				check(p)
				recipient.ApplyChunk(p)
			}
			if s.records != 2*items {
				t.Fatalf("session emitted %d records, want %d", s.records, 2*items)
			}
			checkAll(t, recipient)
			for i := 0; i < items; i++ {
				key := fmt.Sprintf("item/%02d", i)
				if got := readString(t, recipient, key); got != fmt.Sprintf("second-%02d", i) {
					t.Fatalf("%s = %q after the session", key, got)
				}
			}

			AntiEntropy(recipient, source)
			checkAll(t, source, recipient)
			if ok, why := Converged(source, recipient); !ok {
				t.Fatalf("not converged after the follow-up pull: %s", why)
			}
		})
	}
}

func TestChunkSessionRespectsBudget(t *testing.T) {
	source := NewReplica(0, 2)
	populate(t, source, 300)
	recipient := NewReplica(1, 2)

	const budget = 4 << 10
	s := source.StartChunkSession(recipient.PropagationRequest(), budget)
	chunks := 0
	for {
		p := s.Next()
		if p == nil {
			break
		}
		chunks++
		// Whole items ride with their records, so a chunk may overshoot by
		// the closing items' payloads — but never by another whole budget
		// for this small-value workload.
		if size := p.WireSize(); size > 2*budget {
			t.Fatalf("chunk %d wire size %d far exceeds budget %d", chunks, size, budget)
		}
		recipient.ApplyChunk(p)
	}
	if chunks < 4 {
		t.Fatalf("catch-up used %d chunks, want several under a %d-byte budget", chunks, budget)
	}
	if ok, why := source.Snapshot().Equivalent(recipient.Snapshot()); !ok {
		t.Fatalf("recipient did not converge: %s", why)
	}
}

func TestStartChunkSessionCurrentRecipient(t *testing.T) {
	source := NewReplica(0, 2)
	populate(t, source, 10)
	recipient := NewReplica(1, 2)
	streamAntiEntropy(recipient, source, 0)
	if s := source.StartChunkSession(recipient.PropagationRequest(), 0); s != nil {
		t.Fatal("session started for a current recipient")
	}
	// Symmetrically, the in-process loop reports nothing shipped.
	if streamAntiEntropy(recipient, source, 0) {
		t.Fatal("second streaming session shipped data to a current recipient")
	}
}

func TestPlanPropagation(t *testing.T) {
	source := NewReplica(0, 2)
	populate(t, source, 50)
	stale := vv.New(2)

	if got := source.PlanPropagation(source.DBVV(), 1); got != PlanCurrent {
		t.Fatalf("plan for a current recipient = %v, want PlanCurrent", got)
	}
	if got := source.PlanPropagation(stale, 0); got != PlanMonolithic {
		t.Fatalf("uncapped plan = %v, want PlanMonolithic", got)
	}
	if got := source.PlanPropagation(stale, 1<<30); got != PlanMonolithic {
		t.Fatalf("plan under a huge cap = %v, want PlanMonolithic", got)
	}
	if got := source.PlanPropagation(stale, 64); got != PlanStream {
		t.Fatalf("plan under a tiny cap = %v, want PlanStream", got)
	}
	// The plan sweep must not leak IsSelected flags (invariant 4).
	checkAll(t, source)
}

func TestPlanPropagationEarlyExitClearsSelected(t *testing.T) {
	source := NewReplica(0, 2)
	populate(t, source, 500)
	stale := vv.New(2)
	exact := source.BuildPropagation(stale).WireSize()

	// A cap a few items in stops the walk early, with items selected.
	if got := source.PlanPropagation(stale, 100); got != PlanStream {
		t.Fatalf("plan under a 100-byte cap = %v, want PlanStream", got)
	}
	source.rlockAll()
	source.store.ForEach(func(it *store.Item) {
		if it.Selected() {
			t.Errorf("early exit left %q selected", it.Key)
		}
	})
	source.runlockAll()
	// A leaked flag would drop its item from later estimates; the boundary
	// must still sit exactly at the encoded size.
	if got := source.PlanPropagation(stale, exact); got != PlanMonolithic {
		t.Errorf("plan at the exact size = %v, want PlanMonolithic", got)
	}
	if got := source.PlanPropagation(stale, exact-1); got != PlanStream {
		t.Errorf("plan one byte under the exact size = %v, want PlanStream", got)
	}
	checkAll(t, source)
}

func TestStreamingConcurrentWithUpdates(t *testing.T) {
	source := NewReplica(0, 2)
	populate(t, source, 200)
	recipient := NewReplica(1, 2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = source.Update(fmt.Sprintf("hot/%02d", i%20), op.NewSet([]byte("concurrent")))
		}
	}()
	// Sessions may abort under the write load; keep pulling until quiet.
	for i := 0; i < 100; i++ {
		streamAntiEntropy(recipient, source, 1<<10)
	}
	<-done
	for !streamAntiEntropy(recipient, source, 1<<10) {
		break
	}
	streamAntiEntropy(recipient, source, 1<<10)
	checkAll(t, source, recipient)
	if ok, why := source.Snapshot().Equivalent(recipient.Snapshot()); !ok {
		t.Fatalf("recipient did not converge after the write burst: %s", why)
	}
}
