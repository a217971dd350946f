package core

import (
	"math/rand"
	"testing"

	"repro/internal/op"
	"repro/internal/vv"
)

// roundTripState restores a replica from a full checkpoint of r.
func roundTripState(t *testing.T, r *Replica) *Replica {
	t.Helper()
	restored, err := RestoreCheckpoint(r.CaptureCheckpoint(true))
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	return restored
}

func TestPersistEmptyReplica(t *testing.T) {
	r := NewReplica(1, 3)
	restored := roundTripState(t, r)
	if restored.ID() != 1 || restored.Servers() != 3 {
		t.Errorf("identity = %d/%d", restored.ID(), restored.Servers())
	}
	if ok, why := r.Snapshot().Equivalent(restored.Snapshot()); !ok {
		t.Errorf("not equivalent: %s", why)
	}
	checkAll(t, restored)
}

func TestPersistWithUpdatesAndLogs(t *testing.T) {
	r := NewReplica(0, 2)
	for i := 0; i < 50; i++ {
		mustUpdate(t, r, key(i%10), "v")
	}
	restored := roundTripState(t, r)
	if ok, why := r.Snapshot().Equivalent(restored.Snapshot()); !ok {
		t.Fatalf("not equivalent: %s", why)
	}
	if restored.LogRecords() != r.LogRecords() {
		t.Errorf("log records = %d, want %d", restored.LogRecords(), r.LogRecords())
	}
	checkAll(t, restored)

	// The restored replica must behave identically in a session.
	b := NewReplica(1, 2)
	AntiEntropy(b, restored)
	if ok, why := Converged(restored, b); !ok {
		t.Errorf("restored replica broken in propagation: %s", why)
	}
}

func TestPersistWithAuxState(t *testing.T) {
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "x", "base")
	b.CopyOutOfBound("x", a)
	if err := b.Update("x", op.NewAppend([]byte("+pending"))); err != nil {
		t.Fatal(err)
	}

	restored := roundTripState(t, b)
	if restored.AuxCopies() != 1 || restored.AuxRecords() != 1 {
		t.Fatalf("aux state lost: copies=%d records=%d", restored.AuxCopies(), restored.AuxRecords())
	}
	if v, _ := restored.Read("x"); string(v) != "base+pending" {
		t.Errorf("restored user view = %q", v)
	}
	checkAll(t, restored)

	// Intra-node propagation must still drain after restore.
	AntiEntropy(restored, a)
	if restored.AuxRecords() != 0 || restored.AuxCopies() != 0 {
		t.Error("aux state did not drain after restore")
	}
	if v, _ := restored.Read("x"); string(v) != "base+pending" {
		t.Errorf("final value = %q", v)
	}
}

func TestPersistAfterRandomizedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reps := makeReplicas(3)
	for step := 0; step < 300; step++ {
		switch rng.Intn(3) {
		case 0:
			i := rng.Intn(9)
			mustUpdate(t, reps[i%3], key(i), "v")
		default:
			a, b := rng.Intn(3), rng.Intn(3)
			if a != b {
				AntiEntropy(reps[a], reps[b])
			}
		}
	}
	for _, r := range reps {
		restored := roundTripState(t, r)
		if ok, why := r.Snapshot().Equivalent(restored.Snapshot()); !ok {
			t.Fatalf("node %d: %s", r.ID(), why)
		}
		checkAll(t, restored)
	}
}

func TestRestoreCheckpointRejectsBadIdentity(t *testing.T) {
	for _, c := range []*Checkpoint{
		{ID: 0, N: 0},
		{ID: 2, N: 2, DBVV: vv.New(2)},
		{ID: -1, N: 2, DBVV: vv.New(2)},
		{ID: 0, N: 2, DBVV: vv.New(3)},
		{ID: 0, N: 2, DBVV: vv.New(2), Trunc: vv.New(3)},
	} {
		if _, err := RestoreCheckpoint(c); err == nil {
			t.Errorf("checkpoint %d/%d with DBVV %v and floors %v accepted", c.ID, c.N, c.DBVV, c.Trunc)
		}
	}
}

func TestRestoreCheckpointRejectsBadLog(t *testing.T) {
	for name, items := range map[string][]ItemImage{
		"same key twice":        {{Key: "x"}, {Key: "x"}},
		"one seq for two items": {{Key: "x", Seqs: []uint64{4}}, {Key: "y", Seqs: []uint64{4}}},
		"records past n":        {{Key: "x", Seqs: []uint64{1, 0, 2}}},
	} {
		c := &Checkpoint{ID: 0, N: 2, DBVV: vv.New(2), Items: items}
		if _, err := RestoreCheckpoint(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPersistPreservesMetricsIndependence(t *testing.T) {
	// Metrics are operational, not state: a restored replica starts with
	// zero counters.
	r := NewReplica(0, 2)
	mustUpdate(t, r, "x", "v")
	restored := roundTripState(t, r)
	if restored.Metrics().UpdatesApplied != 0 {
		t.Error("metrics survived restore; they should reset")
	}
}

func TestPersistKeepsConflictFlag(t *testing.T) {
	// A conflict suspends log coverage (§5.1): after B adopts A's tail
	// past the conflicting item, B's log holds A's record for y above the
	// count B's DBVV gives A. The restored replica must know a conflict
	// was declared, or its own invariant check fails.
	a, b := NewReplica(0, 2), NewReplica(1, 2)
	mustUpdate(t, a, "x", "at-a")
	mustUpdate(t, b, "x", "at-b")
	mustUpdate(t, a, "y", "at-a")
	AntiEntropy(b, a)
	if len(b.Conflicts()) == 0 {
		t.Fatal("concurrent writes of x declared no conflict")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("live replica: %v", err)
	}
	if err := roundTripState(t, b).CheckInvariants(); err != nil {
		t.Fatalf("restored replica: %v", err)
	}
}

// checkpointChain is a replica's base checkpoint and the deltas captured
// after it, oldest first, as the durable layer keeps them in files.
type checkpointChain []*Checkpoint

// newChain starts tracking r's changes and takes its base.
func newChain(r *Replica) checkpointChain {
	r.TrackCheckpoints()
	return checkpointChain{r.CaptureCheckpoint(true)}
}

// restoreChain rebuilds r from its chain and checks the rebuilt replica
// against it: the same full checkpoint — control state, every item image
// and every log component as (key, seq) pairs — and clean invariants. It
// returns the rebuilt replica and a chain started from it.
func restoreChain(t *testing.T, r *Replica, chain checkpointChain) (*Replica, checkpointChain) {
	t.Helper()
	restored, err := RestoreCheckpoint(MergeCheckpoints(chain...))
	if err != nil {
		t.Fatalf("restore from %d checkpoints: %v", len(chain), err)
	}
	if why := CheckpointDiff(r.CaptureCheckpoint(true), restored.CaptureCheckpoint(true)); why != "" {
		t.Fatalf("restore from %d checkpoints differs from the replica: %s", len(chain), why)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored replica: %v", err)
	}
	return restored, newChain(restored)
}
