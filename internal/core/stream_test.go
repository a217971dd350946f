package core

import (
	"fmt"
	"testing"

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
