package durable

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/transport"
)

func mustOpenPart(t *testing.T, dir string, id, n, partitions, placement int, opts Options) *Partitioned {
	t.Helper()
	p, err := OpenPartitioned(dir, id, n, partitions, placement, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func startPartSource(t *testing.T, src *core.Partitioned) string {
	t.Helper()
	srv, err := transport.ListenPart(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestPartitionedKillRecover crashes a durable partitioned node (no
// closing snapshot) and checks every partition replays to byte-identical
// state: the acceptance bar for per-partition durable logging.
func TestPartitionedKillRecover(t *testing.T) {
	dir := t.TempDir()
	const parts = 8
	opts := Options{NoSync: true, SnapshotEvery: 9}
	p := mustOpenPart(t, dir, 0, 1, parts, 1, opts)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%03d", i%40)
		if err := p.Update(key, op.NewAppend([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	want := p.Parted().Snapshot()
	if len(want) != parts {
		t.Fatalf("snapshot covers %d partitions, want %d", len(want), parts)
	}
	if err := p.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}

	p2 := mustOpenPart(t, dir, 0, 1, parts, 1, opts)
	defer p2.Close()
	got := p2.Parted().Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered partitioned state differs:\n got %+v\nwant %+v", got, want)
	}
	if err := p2.Parted().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedSharedCommitter runs concurrent fsync-enabled writers
// across partitions: all records land in one committer's stream, so the
// node-level stats account every partition and batching amortizes the
// flushes.
func TestPartitionedSharedCommitter(t *testing.T) {
	dir := t.TempDir()
	p := mustOpenPart(t, dir, 0, 1, 4, 1, Options{})
	const writers = 8
	const perWriter = 10
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", g, i)
				if err := p.Update(key, op.NewSet([]byte(key))); err != nil {
					t.Errorf("update %s: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := p.WALStats()
	if st.BatchedRecords != writers*perWriter {
		t.Errorf("BatchedRecords = %d, want %d (shared committer must see every partition)", st.BatchedRecords, writers*perWriter)
	}
	if st.Fsyncs == 0 {
		t.Error("no fsyncs counted")
	}
	if p.WALRecords() != writers*perWriter {
		t.Errorf("WALRecords = %d, want %d", p.WALRecords(), writers*perWriter)
	}
	if err := p.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}

	p2 := mustOpenPart(t, dir, 0, 1, 4, 1, Options{})
	defer p2.Close()
	for g := 0; g < writers; g++ {
		for i := 0; i < perWriter; i++ {
			key := fmt.Sprintf("w%d-k%d", g, i)
			if v, ok := p2.Read(key); !ok || string(v) != key {
				t.Fatalf("acked update %s lost across crash: %q/%v", key, v, ok)
			}
		}
	}
}

// TestPartitionedPullDurableThenCrash pulls a partitioned session into a
// durable node (every inline payload WAL-logged before applying), crashes,
// and checks recovery converges with the source.
func TestPartitionedPullDurableThenCrash(t *testing.T) {
	const parts = 4
	src := core.NewPartitioned(0, 2, parts, 2)
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("item/%03d", i)
		if err := src.Update(key, op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	addr := startPartSource(t, src)

	dir := t.TempDir()
	opts := Options{NoSync: true, SnapshotEvery: 1 << 30}
	p := mustOpenPart(t, dir, 1, 2, parts, 2, opts)
	shipped, err := pullPart(p, addr)
	if err != nil {
		t.Fatal(err)
	}
	if shipped == 0 {
		t.Fatal("nothing shipped")
	}
	if ok, why := core.PartConverged(src, p.Parted()); !ok {
		t.Fatalf("not converged: %s", why)
	}
	// Current node: a second pull ships nothing.
	if shipped, err = pullPart(p, addr); err != nil || shipped != 0 {
		t.Fatalf("second pull = %d/%v, want clean no-op", shipped, err)
	}
	if err := p.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}

	p2 := mustOpenPart(t, dir, 1, 2, parts, 2, opts)
	defer p2.Close()
	if ok, why := core.PartConverged(src, p2.Parted()); !ok {
		t.Fatalf("recovery diverged from source: %s", why)
	}
	if err := p2.Parted().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedPullDivertsToReconcile prunes the source past the durable
// recipient's acknowledged state in every partition; the next pull must
// divert those partitions to logged reconciliation, drain what remains
// over a logged chunk stream, and still converge — then survive a crash.
func TestPartitionedPullDivertsToReconcile(t *testing.T) {
	const parts = 4
	src := core.NewPartitioned(0, 2, parts, 2)
	for i := 0; i < 60; i++ {
		if err := src.Update(fmt.Sprintf("item/%03d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	addr := startPartSource(t, src)

	dir := t.TempDir()
	opts := Options{NoSync: true, SnapshotEvery: 1 << 30}
	p := mustOpenPart(t, dir, 1, 2, parts, 2, opts)
	if _, err := pullPart(p, addr); err != nil {
		t.Fatal(err)
	}
	// The source moves on and caps its logs below the new tail.
	for i := 0; i < 20; i++ {
		if err := src.Update(fmt.Sprintf("item/%03d", i*3), op.NewSet([]byte{0xFF, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	src.ConfigurePruning(1)
	if src.Prune() == 0 {
		t.Fatal("setup: source pruned nothing")
	}
	diverted := false
	for pid := 0; pid < parts; pid++ {
		if src.Partition(pid).NeedsReconcile(p.Partition(pid).Core().DBVV()) {
			diverted = true
		}
	}
	if !diverted {
		t.Fatal("setup: no partition needs reconciliation")
	}

	if _, err := pullPart(p, addr); err != nil {
		t.Fatal(err)
	}
	if ok, why := core.PartConverged(src, p.Parted()); !ok {
		t.Fatalf("not converged after divert: %s", why)
	}
	if m := p.Parted().Metrics(); m.ReconcileSessions == 0 {
		t.Error("no reconcile session charged")
	}
	want := p.Parted().Snapshot()
	if err := p.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}

	p2 := mustOpenPart(t, dir, 1, 2, parts, 2, opts)
	defer p2.Close()
	if !reflect.DeepEqual(p2.Parted().Snapshot(), want) {
		t.Fatal("recovered state differs from pre-crash state")
	}
}

// TestPartitionedRejectsNonOwnedWrites checks routing errors surface as
// core.ErrNotOwner, not silent drops, on a durable partitioned node.
func TestPartitionedRejectsNonOwnedWrites(t *testing.T) {
	// 3 servers, placement 1: each partition has exactly one owner, so some
	// keys must be foreign to node 0.
	p := mustOpenPart(t, t.TempDir(), 0, 3, 8, 1, Options{NoSync: true})
	defer p.Close()
	foreign := ""
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("probe-%d", i)
		if !p.Parted().OwnsKey(key) {
			foreign = key
			break
		}
	}
	if foreign == "" {
		t.Skip("node 0 owns every probe key")
	}
	if err := p.Update(foreign, op.NewSet([]byte("x"))); !errors.Is(err, core.ErrNotOwner) {
		t.Fatalf("foreign update error = %v, want ErrNotOwner", err)
	}
	if p.Partition(p.Parted().PartitionOf(foreign)) != nil {
		t.Fatal("a foreign key's partition has a durable replica to pull into")
	}
}

// TestRestorePartitionedValidates covers the constructor's rejection
// paths: wrong identity and a recovered partition the ring does not place
// on the node.
func TestRestorePartitionedValidates(t *testing.T) {
	wrong := core.NewReplica(1, 2)
	if _, err := core.RestorePartitioned(0, 2, 4, 2, map[int]*core.Replica{0: wrong}); err == nil {
		t.Error("recovered replica with wrong id accepted")
	}
	r := core.NewReplica(0, 3)
	// placement 1 on 3 servers: node 0 does not own every partition, so
	// handing it a replica for every pid must fail on some pid.
	bad := map[int]*core.Replica{}
	for pid := 0; pid < 8; pid++ {
		bad[pid] = r
	}
	if _, err := core.RestorePartitioned(0, 3, 8, 1, bad); err == nil {
		t.Error("recovered partition outside the ring placement accepted")
	}
}
