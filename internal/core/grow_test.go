package core

import (
	"testing"

	"repro/internal/op"
	"repro/internal/vv"
)

func TestGrowAddsServer(t *testing.T) {
	// Two servers with data; a third is admitted.
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	for i := 0; i < 20; i++ {
		mustUpdate(t, a, key(i), "v")
	}
	AntiEntropy(b, a)

	a.Grow(3)
	c := NewReplica(2, 3) // the new server is born at the new count
	if a.Servers() != 3 || a.DBVV().Len() != 3 {
		t.Fatalf("grow did not extend: n=%d dbvv=%v", a.Servers(), a.DBVV())
	}

	// The new server catches up by ordinary anti-entropy.
	AntiEntropy(c, a)
	if ok, why := Converged(a, c); !ok {
		t.Fatalf("new server did not catch up: %s", why)
	}
	checkAll(t, a, c)
}

func TestGrowSpreadsEpidemically(t *testing.T) {
	// Only node 0 is administratively grown; node 1 learns the new width
	// from the next propagation message that mentions three origins.
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "x", "v")
	AntiEntropy(b, a)

	a.Grow(3)
	c := NewReplica(2, 3)
	mustUpdate(t, c, "from-c", "new-server-data")
	AntiEntropy(c, a) // c pulls history
	AntiEntropy(a, c) // a pulls c's data

	// b still believes n=2; a session from a (now 3-wide) grows it.
	if b.Servers() != 2 {
		t.Fatalf("test setup: b already grew")
	}
	AntiEntropy(b, a)
	if b.Servers() != 3 {
		t.Errorf("b did not grow from propagation: n=%d", b.Servers())
	}
	if v, _ := b.Read("from-c"); string(v) != "new-server-data" {
		t.Errorf("b missing the new server's data: %q", v)
	}
	if ok, why := Converged(a, b, c); !ok {
		t.Fatalf("not converged: %s", why)
	}
	checkAll(t, a, b, c)
}

func TestGrowIsIdempotentAndMonotone(t *testing.T) {
	a := NewReplica(0, 2)
	a.Grow(4)
	a.Grow(3) // shrinking is ignored
	a.Grow(4)
	if a.Servers() != 4 {
		t.Fatalf("n = %d, want 4", a.Servers())
	}
	checkAll(t, a)
}

func TestGrownClusterFullWorkload(t *testing.T) {
	// Start 2 servers, grow to 4, run a single-writer workload across all
	// four, converge, verify invariants everywhere.
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	for i := 0; i < 10; i++ {
		mustUpdate(t, a, key(i), "epoch-1")
	}
	AntiEntropy(b, a)

	a.Grow(4)
	b.Grow(4)
	c, d := NewReplica(2, 4), NewReplica(3, 4)
	reps := []*Replica{a, b, c, d}
	AntiEntropy(c, a)
	AntiEntropy(d, b)

	for round := 0; round < 5; round++ {
		for i, r := range reps {
			mustUpdate(t, r, key(10+i), "epoch-2")
			AntiEntropy(reps[(i+1)%4], r)
		}
	}
	for round := 0; round < 5; round++ {
		for i := range reps {
			AntiEntropy(reps[i], reps[(i+1)%4])
		}
	}
	if ok, why := Converged(reps...); !ok {
		t.Fatalf("not converged: %s", why)
	}
	for _, r := range reps {
		if len(r.Conflicts()) != 0 {
			t.Errorf("node %d conflicts: %v", r.ID(), r.Conflicts())
		}
	}
	checkAll(t, reps...)
}

func TestNewServerUpdatesReachOldServers(t *testing.T) {
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "old", "data")
	AntiEntropy(b, a)

	a.Grow(3)
	c := NewReplica(2, 3)
	AntiEntropy(c, a)
	mustUpdate(t, c, "old", "updated-by-newcomer") // c updates an OLD item

	AntiEntropy(a, c)
	AntiEntropy(b, a) // b grows + receives via relay
	if v, _ := b.Read("old"); string(v) != "updated-by-newcomer" {
		t.Errorf("b.old = %q", v)
	}
	ivv, _ := b.ReadIVV("old")
	if got := ivv.Get(2); got != 1 {
		t.Errorf("IVV component for the new server = %d, want 1 (vector %v)", got, ivv)
	}
	checkAll(t, a, b, c)
}

func TestGrowWithOOBAndAux(t *testing.T) {
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "x", "v")
	b.CopyOutOfBound("x", a)
	if err := b.Update("x", op.NewAppend([]byte("+aux"))); err != nil {
		t.Fatal(err)
	}
	b.Grow(3) // grow while aux state is pending
	AntiEntropy(b, a)
	if b.AuxRecords() != 0 || b.AuxCopies() != 0 {
		t.Error("aux state did not drain after grow")
	}
	if v, _ := b.Read("x"); string(v) != "v+aux" {
		t.Errorf("b.x = %q", v)
	}
	checkAll(t, a, b)
}

func TestGrowPersists(t *testing.T) {
	a := NewReplica(0, 2)
	mustUpdate(t, a, "x", "v")
	a.Grow(5)
	restored := roundTripState(t, a)
	if restored.Servers() != 5 {
		t.Errorf("restored n = %d, want 5", restored.Servers())
	}
	if !restored.DBVV().Equal(vv.VV{1, 0, 0, 0, 0}) {
		t.Errorf("restored DBVV = %v", restored.DBVV())
	}
	checkAll(t, restored)
}

func TestGrowDeltaMode(t *testing.T) {
	a := NewReplica(0, 2, WithDeltaPropagation())
	b := NewReplica(1, 2, WithDeltaPropagation())
	mustUpdate(t, a, "x", "v1")
	AntiEntropy(b, a)
	a.Grow(3)
	c := NewReplica(2, 3, WithDeltaPropagation())
	AntiEntropy(c, a)
	mustUpdate(t, a, "x", "v2")
	AntiEntropy(c, a) // one behind: ships as delta with 3-wide vectors
	AntiEntropy(b, a) // grows b too
	if ok, why := Converged(a, b, c); !ok {
		t.Fatalf("not converged: %s", why)
	}
	checkAll(t, a, b, c)
}

func TestGrowthKeepsDeltaChainsValid(t *testing.T) {
	// An item adopted before growth keeps its short IVV; a delta the new
	// server then retains for it has an origin past that IVV's length.
	// Checking, shipping and applying the chain must treat the missing
	// component as zero rather than index past it.
	a, b := NewReplica(0, 2, WithDeltaPropagation()), NewReplica(1, 2, WithDeltaPropagation())
	mustUpdate(t, a, "x", "v")
	AntiEntropy(b, a)
	b.Grow(3)
	c := NewReplica(2, 3, WithDeltaPropagation())
	AntiEntropy(c, b)
	if err := c.Update("x", op.NewAppend([]byte("+c"))); err != nil {
		t.Fatal(err)
	}
	checkAll(t, c)
	for _, r := range []*Replica{b, a} {
		AntiEntropy(r, c)
	}
	if ok, why := Converged(a, b, c); !ok {
		t.Fatalf("not converged: %s", why)
	}
	if got, _ := a.Read("x"); string(got) != "v+c" {
		t.Fatalf("a reads %q, want %q", got, "v+c")
	}
	if a.Metrics().DeltasApplied == 0 {
		t.Error("the new server's update did not ship as a delta")
	}
	checkAll(t, a, b, c)
}
