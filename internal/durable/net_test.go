package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/transport"
)

// testClient drives the tests' pulls; a durable Replica is its own sink.
var testClient = transport.NewClient(transport.Options{})

// partSinks returns the durable sink of every partition p replicates,
// indexed by pid.
func partSinks(p *Partitioned) []core.Sink {
	sinks := make([]core.Sink, len(p.parts))
	for pid, part := range p.parts {
		if part != nil {
			sinks[pid] = part
		}
	}
	return sinks
}

// pull runs one pull into s through testClient, as the one-partition node
// a full replica is.
func pull(s core.Sink, addr string) (bool, error) {
	r := s.Core()
	pr, err := core.RestorePartitioned(r.ID(), r.Servers(), 1, r.Servers(), map[int]*core.Replica{0: r})
	if err != nil {
		return false, err
	}
	shipped, err := testClient.PullPart(pr, []core.Sink{s}, addr)
	return shipped > 0, err
}

// pullPart runs one partitioned pull into p through testClient.
func pullPart(p *Partitioned, addr string) (int, error) {
	return testClient.PullPart(p.Parted(), partSinks(p), addr)
}

func startSource(t *testing.T, opts ...core.Option) (*core.Replica, string) {
	t.Helper()
	src := core.NewReplica(0, 2, opts...)
	srv, err := transport.Listen(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return src, srv.Addr()
}

func TestPullFromOverTCP(t *testing.T) {
	src, addr := startSource(t)
	for i := 0; i < 10; i++ {
		src.Update("k"+string(rune('0'+i)), op.NewSet([]byte{byte(i)}))
	}
	d := mustOpen(t, t.TempDir(), 1, 2, Options{NoSync: true})
	defer d.Close()

	shipped, err := pull(d, addr)
	if err != nil || !shipped {
		t.Fatalf("Pull = %v/%v", shipped, err)
	}
	if ok, why := core.Converged(src, d.Core()); !ok {
		t.Fatalf("not converged: %s", why)
	}
	// Current replica: second pull is a no-op.
	shipped, err = pull(d, addr)
	if err != nil || shipped {
		t.Fatalf("second Pull = %v/%v, want no-op", shipped, err)
	}
}

func TestPullFromDeltaFetchRound(t *testing.T) {
	src, addr := startSource(t, core.WithDeltaPropagation())
	opts := Options{NoSync: true, SnapshotEvery: 1 << 30,
		CoreOptions: []core.Option{core.WithDeltaPropagation()}}
	dir := t.TempDir()
	d := mustOpen(t, dir, 1, 2, opts)

	src.Update("x", op.NewSet([]byte("v1")))
	if _, err := pull(d, addr); err != nil {
		t.Fatal(err)
	}
	src.Update("x", op.NewSet([]byte("v2")))
	src.Update("x", op.NewSet([]byte("v3"))) // two behind: fetch round
	if _, err := pull(d, addr); err != nil {
		t.Fatal(err)
	}
	v, _ := d.Core().Read("x")
	if string(v) != "v3" {
		t.Fatalf("after delta pull: %q", v)
	}
	want := d.Core().Snapshot()
	d.CloseWithoutSnapshot() // crash: the fetched items must replay

	d2 := mustOpen(t, dir, 1, 2, opts)
	defer d2.Close()
	if ok, why := want.Equivalent(d2.Core().Snapshot()); !ok {
		t.Fatalf("recovery diverged: %s", why)
	}
}

func TestFetchOOBOverTCPDurable(t *testing.T) {
	src, addr := startSource(t)
	src.Update("hot", op.NewSet([]byte("fresh")))
	dir := t.TempDir()
	d := mustOpen(t, dir, 1, 2, Options{NoSync: true, SnapshotEvery: 1 << 30})

	adopted, err := testClient.FetchOOB(d, addr, "hot")
	if err != nil || !adopted {
		t.Fatalf("FetchOOB = %v/%v", adopted, err)
	}
	d.CloseWithoutSnapshot() // crash: OOB adoption must replay from WAL

	d2 := mustOpen(t, dir, 1, 2, Options{NoSync: true})
	defer d2.Close()
	v, _ := d2.Core().Read("hot")
	if string(v) != "fresh" {
		t.Fatalf("recovered OOB value = %q", v)
	}
	if d2.Core().AuxCopies() != 1 {
		t.Error("aux copy lost in WAL-only recovery")
	}
}

func TestPullFromDeadAddress(t *testing.T) {
	d := mustOpen(t, t.TempDir(), 1, 2, Options{NoSync: true})
	defer d.Close()
	if _, err := pull(d, "127.0.0.1:1"); err == nil {
		t.Error("Pull dead address succeeded")
	}
	if _, err := testClient.FetchOOB(d, "127.0.0.1:1", "x"); err == nil {
		t.Error("FetchOOB dead address succeeded")
	}
}

func TestSnapshotFailurePropagates(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 1, Options{NoSync: true})
	d.Update("x", op.NewSet([]byte("v")))
	// Squat a directory on the checkpoint temp path so os.Create fails
	// (chmod-based denial does not bind when tests run as root).
	blocker := filepath.Join(dir, deltaTemp)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err == nil {
		t.Error("Snapshot with blocked temp path succeeded")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if latestSnapshotPath(dir) == "" {
		t.Error("snapshot missing after recovery of permissions")
	}
}

func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 1, Options{NoSync: true})
	d.Update("x", op.NewSet([]byte("v")))
	d.Close()
	snap := latestSnapshotPath(dir)
	if snap == "" {
		t.Fatal("no snapshot to corrupt")
	}
	if err := os.WriteFile(snap, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0, 1, Options{NoSync: true}); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestPullFromDivertsToReconcileThenCrash(t *testing.T) {
	src, addr := startSource(t)
	for i := 0; i < 40; i++ {
		src.Update(fmt.Sprintf("item/%03d", i), op.NewSet([]byte{byte(i)}))
	}
	dir := t.TempDir()
	d := mustOpen(t, dir, 1, 2, Options{NoSync: true, SnapshotEvery: 1 << 30})
	if _, err := pull(d, addr); err != nil {
		t.Fatal(err)
	}
	// The source moves on and prunes past our acknowledged DBVV.
	for i := 0; i < 5; i++ {
		src.Update(fmt.Sprintf("item/%03d", i*7), op.NewSet([]byte{0xFF, byte(i)}))
	}
	src.SetLogCap(2)
	if src.Prune() == 0 {
		t.Fatal("setup: source pruned nothing")
	}
	if !src.NeedsReconcile(d.Core().DBVV()) {
		t.Fatal("setup: replica still within the source's log")
	}

	shipped, err := pull(d, addr)
	if err != nil || !shipped {
		t.Fatalf("diverted Pull = %v/%v", shipped, err)
	}
	if ok, why := core.Converged(src, d.Core()); !ok {
		t.Fatalf("not converged after divert: %s", why)
	}
	if m := d.Core().Metrics(); m.ReconcileSessions == 0 {
		t.Error("no reconcile session charged")
	}
	want := d.Core().Snapshot()
	d.CloseWithoutSnapshot() // crash: the fetched batches replay from the WAL

	d2 := mustOpen(t, dir, 1, 2, Options{NoSync: true})
	defer d2.Close()
	if ok, why := want.Equivalent(d2.Core().Snapshot()); !ok {
		t.Fatalf("recovered state differs: %s", why)
	}
	if err := d2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
