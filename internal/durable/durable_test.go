package durable

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

func mustOpen(t testing.TB, dir string, id, n int, opts Options) *Replica {
	t.Helper()
	d, err := Open(dir, id, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// latestSnapshotPath returns the newest checkpoint file recovery would
// load — the highest-floor base-/delta-NNNNNNNN.ckpt — or "" when the
// directory holds no checkpoint.
func latestSnapshotPath(dir string) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	path := ""
	var floor uint64
	for _, e := range entries {
		var f uint64
		if !parseFloor(e.Name(), basePrefix, &f) && !parseFloor(e.Name(), deltaPrefix, &f) {
			continue
		}
		if f >= floor {
			floor, path = f, filepath.Join(dir, e.Name())
		}
	}
	return path
}

func TestFreshOpenAndReopen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 2, Options{NoSync: true})
	if err := d.Update("x", op.NewSet([]byte("v1"))); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, 0, 2, Options{NoSync: true})
	defer d2.Close()
	v, ok := d2.Core().Read("x")
	if !ok || string(v) != "v1" {
		t.Fatalf("after reopen: %q/%v", v, ok)
	}
	if err := d2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryFromWALOnly(t *testing.T) {
	// No clean shutdown: state must come back from snapshot + WAL replay.
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 2, Options{NoSync: true, SnapshotEvery: 1 << 30})
	for i := 0; i < 25; i++ {
		if err := d.Update("k"+string(rune('a'+i%5)), op.NewAppend([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	want := d.Core().Snapshot()
	if d.WALRecords() != 25 {
		t.Fatalf("wal records = %d", d.WALRecords())
	}
	d.CloseWithoutSnapshot() // crash

	d2 := mustOpen(t, dir, 0, 2, Options{NoSync: true})
	defer d2.Close()
	if ok, why := want.Equivalent(d2.Core().Snapshot()); !ok {
		t.Fatalf("recovered state differs: %s", why)
	}
	if err := d2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryWithPropagationsAndOOB(t *testing.T) {
	dir := t.TempDir()
	src := core.NewReplica(0, 2)
	for i := 0; i < 10; i++ {
		src.Update("item"+string(rune('0'+i)), op.NewSet([]byte{byte(i)}))
	}

	d := mustOpen(t, dir, 1, 2, Options{NoSync: true, SnapshotEvery: 1 << 30})
	if _, err := d.AntiEntropyFrom(src); err != nil {
		t.Fatal(err)
	}
	src.Update("hot", op.NewSet([]byte("fresh")))
	reply := src.ServeOOB("hot")
	if adopted, err := d.ApplyOOB(reply, 0); err != nil || !adopted {
		t.Fatalf("ApplyOOB = %v/%v", adopted, err)
	}
	if err := d.Update("hot", op.NewAppend([]byte("+local"))); err != nil {
		t.Fatal(err)
	}
	want := d.Core().Snapshot()
	d.CloseWithoutSnapshot() // crash with aux state pending

	d2 := mustOpen(t, dir, 1, 2, Options{NoSync: true})
	defer d2.Close()
	got := d2.Core().Snapshot()
	if ok, why := want.Equivalent(got); !ok {
		t.Fatalf("recovered state differs: %s", why)
	}
	if d2.Core().AuxCopies() != 1 || d2.Core().AuxRecords() != 1 {
		t.Fatalf("aux state lost in recovery: %d/%d",
			d2.Core().AuxCopies(), d2.Core().AuxRecords())
	}
	v, _ := d2.Core().Read("hot")
	if string(v) != "fresh+local" {
		t.Fatalf("hot = %q", v)
	}
	// The recovered replica still drains its aux state via propagation.
	if _, err := d2.AntiEntropyFrom(src); err != nil {
		t.Fatal(err)
	}
	if d2.Core().AuxRecords() != 0 {
		t.Error("aux records did not drain after recovery")
	}
}

func TestAutomaticSnapshotResetsWAL(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 1, Options{NoSync: true, SnapshotEvery: 10})
	defer d.Close()
	for i := 0; i < 25; i++ {
		if err := d.Update("x", op.NewAppend([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.WALRecords(); got >= 10 {
		t.Errorf("wal records = %d, snapshot should have reset it below 10", got)
	}
	if latestSnapshotPath(dir) == "" {
		t.Error("snapshot file missing")
	}
}

func TestIdentityMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 2, Options{NoSync: true})
	d.Update("x", op.NewSet([]byte("v")))
	d.Close()

	if _, err := Open(dir, 1, 2, Options{NoSync: true}); err == nil {
		t.Error("wrong id accepted")
	}
	if _, err := Open(dir, 0, 3, Options{NoSync: true}); err == nil {
		t.Error("wrong n accepted")
	}
}

func TestInvalidUpdateNotLogged(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 1, Options{NoSync: true})
	defer d.Close()
	if err := d.Update("x", op.Op{Kind: op.Kind(99)}); err == nil {
		t.Fatal("invalid op accepted")
	}
	if d.WALRecords() != 0 {
		t.Error("invalid op reached the WAL")
	}
}

func TestNilPropagationIsNoop(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 2, Options{NoSync: true})
	defer d.Close()
	if err := d.ApplyPropagation(nil); err != nil {
		t.Fatal(err)
	}
	if d.WALRecords() != 0 {
		t.Error("nil propagation logged")
	}
}

func TestRandomizedCrashRecoveryConvergence(t *testing.T) {
	// A durable replica crash-recovers at random points during a gossip
	// run; the system must still converge and validate.
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	peers := []*core.Replica{core.NewReplica(0, 3), core.NewReplica(1, 3)}
	d := mustOpen(t, dir, 2, 3, Options{NoSync: true, SnapshotEvery: 7})

	val := byte(0)
	for step := 0; step < 200; step++ {
		switch rng.Intn(6) {
		case 0:
			val++
			peers[0].Update("p0", op.NewSet([]byte{val}))
		case 1:
			val++
			peers[1].Update("p1", op.NewSet([]byte{val}))
		case 2:
			val++
			if err := d.Update("d", op.NewSet([]byte{val})); err != nil {
				t.Fatal(err)
			}
		case 3:
			core.AntiEntropy(peers[0], peers[1])
			core.AntiEntropy(peers[1], peers[0])
		case 4:
			if _, err := d.AntiEntropyFrom(peers[rng.Intn(2)]); err != nil {
				t.Fatal(err)
			}
			core.AntiEntropy(peers[rng.Intn(2)], d.Core())
		case 5: // crash + recover
			if rng.Intn(2) == 0 {
				d.CloseWithoutSnapshot()
			} else {
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
			d = mustOpen(t, dir, 2, 3, Options{NoSync: true, SnapshotEvery: 7})
		}
		if err := d.Core().CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// Final drain.
	for i := 0; i < 6; i++ {
		d.AntiEntropyFrom(peers[0])
		d.AntiEntropyFrom(peers[1])
		core.AntiEntropy(peers[0], d.Core())
		core.AntiEntropy(peers[1], peers[0])
		core.AntiEntropy(peers[0], peers[1])
	}
	if ok, why := core.Converged(peers[0], peers[1], d.Core()); !ok {
		t.Fatalf("not converged: %s", why)
	}
	d.Close()
}

func TestCrashRecoveryWithReconcileAndPrune(t *testing.T) {
	// recReconcile and recPrune must replay to the identical state: the
	// prune record carries the pass's inputs (ack table, peers, cap) so the
	// replayed pass computes the same floor against the rebuilt log.
	dir := t.TempDir()
	src := core.NewReplica(0, 2)
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = fmt.Sprintf("src/%d", i)
		src.Update(keys[i], op.NewSet([]byte{byte(i)}))
	}

	d := mustOpen(t, dir, 1, 2, Options{NoSync: true, SnapshotEvery: 1 << 30})
	for i := 0; i < 8; i++ {
		if err := d.Update(fmt.Sprintf("own/%d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	// Adopt src's items as a reconcile difference: raises the watermark.
	if n, err := d.ApplyReconcileItems(src.BuildItems(keys), 0); err != nil || n != len(keys) {
		t.Fatalf("adopted %d, err %v", n, err)
	}
	// A cap-forced pruning pass on our own writes.
	d.Core().SetLogCap(3)
	if dropped, err := d.Prune(); err != nil || dropped != 5 {
		t.Fatalf("pruned %d, err %v, want 5", dropped, err)
	}

	want := d.Core().Snapshot()
	wantMark := fmt.Sprintf("%v", d.Core().PrunedBefore())
	wantLog := d.Core().LogRecords()
	d.CloseWithoutSnapshot() // crash

	d2 := mustOpen(t, dir, 1, 2, Options{NoSync: true})
	defer d2.Close()
	if ok, why := want.Equivalent(d2.Core().Snapshot()); !ok {
		t.Fatalf("recovered state differs: %s", why)
	}
	if got := fmt.Sprintf("%v", d2.Core().PrunedBefore()); got != wantMark {
		t.Fatalf("recovered watermark %s, want %s", got, wantMark)
	}
	if got := d2.Core().LogRecords(); got != wantLog {
		t.Fatalf("recovered log records = %d, want %d", got, wantLog)
	}
	if !d2.Core().NeedsReconcile(vv.VV{}) {
		t.Fatal("recovered replica lost its divert watermark")
	}
	if err := d2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotPersistsPruningState(t *testing.T) {
	// Clean shutdown path: the ack table and watermark survive via the
	// snapshot, not the WAL.
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 3, Options{NoSync: true})
	d.Core().ConfigurePruning([]int{1, 2})
	for i := 0; i < 4; i++ {
		if err := d.Update(fmt.Sprintf("k/%d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	d.Core().NoteAck(1, d.Core().DBVV())
	d.Core().NoteAck(2, d.Core().DBVV())
	if dropped, err := d.Prune(); err != nil || dropped != 4 {
		t.Fatalf("pruned %d, err %v, want 4", dropped, err)
	}
	ack := fmt.Sprintf("%v", d.Core().AckedPeer(1))
	mark := fmt.Sprintf("%v", d.Core().PrunedBefore())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, 0, 3, Options{NoSync: true})
	defer d2.Close()
	if got := fmt.Sprintf("%v", d2.Core().AckedPeer(1)); got != ack {
		t.Fatalf("ack table after snapshot reopen = %s, want %s", got, ack)
	}
	if got := fmt.Sprintf("%v", d2.Core().PrunedBefore()); got != mark {
		t.Fatalf("watermark after snapshot reopen = %s, want %s", got, mark)
	}
	if d2.Core().LogRecords() != 0 {
		t.Fatalf("log records after reopen = %d, want 0", d2.Core().LogRecords())
	}
}

// A source that pruned past the replica's DBVV cannot serve it from its log:
// AntiEntropyFrom must divert to reconciliation, as core.AntiEntropy does,
// and not commit the log tail over a gap (which leaves a tail record above
// the DBVV).
func TestAntiEntropyFromReconcilesPastAPrunedLog(t *testing.T) {
	src := core.NewReplica(0, 2)
	for i := 0; i < 10; i++ {
		if err := src.Update(fmt.Sprintf("item/%02d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	src.SetLogCap(3)
	if dropped := src.Prune(); dropped != 7 {
		t.Fatalf("setup: prune dropped %d records, want 7", dropped)
	}
	dir := t.TempDir()
	d := mustOpen(t, dir, 1, 2, Options{NoSync: true})
	shipped, err := d.AntiEntropyFrom(src)
	if err != nil || !shipped {
		t.Fatalf("AntiEntropyFrom = %v/%v", shipped, err)
	}
	if err := d.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ok, why := core.Converged(src, d.Core()); !ok {
		t.Fatalf("not converged: %s", why)
	}
	if err := d.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, 1, 2, Options{NoSync: true})
	defer d2.Close()
	if ok, why := core.Converged(src, d2.Core()); !ok {
		t.Fatalf("recovered replica differs: %s", why)
	}
}

// A durable recipient charges the payload it commits to PeakPayloadBytes
// on the inline path too, not only when it builds one as a source.
func TestInlineCommitChargesPeakPayload(t *testing.T) {
	src := core.NewReplica(0, 2)
	for i := 0; i < 10; i++ {
		src.Update(fmt.Sprintf("k%d", i), op.NewSet([]byte{byte(i)}))
	}
	d := mustOpen(t, t.TempDir(), 1, 2, Options{NoSync: true})
	defer d.Close()
	want := src.BuildPropagation(d.Core().PropagationRequest()).WireSize()
	if shipped, err := d.AntiEntropyFrom(src); err != nil || !shipped {
		t.Fatalf("AntiEntropyFrom = %v, %v", shipped, err)
	}
	if got := d.Core().Metrics().PeakPayloadBytes; got != want {
		t.Errorf("recipient peak payload %d B, want the session's %d B", got, want)
	}
}
