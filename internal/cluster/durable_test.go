package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/op"
)

func startDurableNode(t *testing.T, dir string, id, servers int) *Node {
	t.Helper()
	n, err := Start(Config{
		ID: id, Servers: servers, DataDir: dir,
		DurableOptions: durable.Options{NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDurableNodeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	// A volatile peer holds the other replica.
	peer, err := Start(Config{ID: 0, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for i := 0; i < 30; i++ {
		peer.Update("k"+string(rune('a'+i%10)), op.NewSet([]byte{byte(i)}))
	}

	node := startDurableNode(t, dir, 1, 2)
	if _, err := node.PullFrom(peer.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := node.Update("local", op.NewSet([]byte("mine"))); err != nil {
		t.Fatal(err)
	}
	want := node.Replica().Snapshot()
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the same directory: state must be identical.
	node = startDurableNode(t, dir, 1, 2)
	defer node.Close()
	if ok, why := want.Equivalent(node.Replica().Snapshot()); !ok {
		t.Fatalf("restart lost state: %s", why)
	}
	// And the node keeps working: push the local update back to the peer.
	if _, err := peer.PullFrom(node.Addr()); err != nil {
		t.Fatal(err)
	}
	if v, _ := peer.Read("local"); string(v) != "mine" {
		t.Errorf("peer.local = %q", v)
	}
	if ok, why := Converged([]*Node{peer, node}); !ok {
		t.Errorf("not converged: %s", why)
	}
}

func TestDurableNodeBackgroundLoop(t *testing.T) {
	dir := t.TempDir()
	peer, err := Start(Config{ID: 0, Servers: 2, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	node, err := Start(Config{
		ID: 1, Servers: 2, Interval: 2 * time.Millisecond,
		DataDir:        dir,
		DurableOptions: durable.Options{NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	peer.SetPeers([]string{node.Addr()})
	node.SetPeers([]string{peer.Addr()})

	peer.Update("x", op.NewSet([]byte("via-loop")))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := node.Read("x"); ok && string(v) == "via-loop" {
			if err := node.Replica().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("durable node's background loop never pulled the update")
}

func TestDurableNodeOOB(t *testing.T) {
	dir := t.TempDir()
	peer, err := Start(Config{ID: 0, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.Update("hot", op.NewSet([]byte("fresh")))

	node := startDurableNode(t, dir, 1, 2)
	adopted, err := node.FetchOOB(peer.Addr(), "hot")
	if err != nil || !adopted {
		t.Fatalf("FetchOOB = %v/%v", adopted, err)
	}
	if err := node.Update("hot", op.NewAppend([]byte("+note"))); err != nil {
		t.Fatal(err)
	}
	node.Close() // clean close snapshots

	node = startDurableNode(t, dir, 1, 2)
	defer node.Close()
	v, _ := node.Read("hot")
	if string(v) != "fresh+note" {
		t.Fatalf("restored OOB state = %q", v)
	}
	if node.Replica().AuxCopies() != 1 {
		t.Error("aux copy lost across restart")
	}
}

// startDurablePartCluster starts `servers` durable partitioned nodes
// rooted under root, full-mesh peered.
func startDurablePartCluster(t *testing.T, root string, servers, partitions, placement int) []*Node {
	t.Helper()
	nodes := make([]*Node, servers)
	for i := 0; i < servers; i++ {
		n, err := Start(Config{
			ID: i, Servers: servers,
			Partitions: partitions, Placement: placement,
			DataDir:        filepath.Join(root, fmt.Sprintf("node-%d", i)),
			DurableOptions: durable.Options{NoSync: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for i, n := range nodes {
		var peers []string
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other.Addr())
			}
		}
		n.SetPeers(peers)
	}
	return nodes
}

// TestDurablePartitionedClusterRestart: partitioned nodes now accept a
// DataDir. Three nodes write their owned shares, converge, restart from
// disk, and every node's per-partition state must come back byte-identical
// and still converged.
func TestDurablePartitionedClusterRestart(t *testing.T) {
	root := t.TempDir()
	const servers, partitions, placement = 3, 8, 2
	nodes := startDurablePartCluster(t, root, servers, partitions, placement)

	written := 0
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%02d", i)
		for _, n := range nodes {
			err := n.Update(key, op.NewSet([]byte(key)))
			if errors.Is(err, core.ErrNotOwner) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			written++
			break
		}
	}
	if written != 40 {
		t.Fatalf("only %d/40 keys found an owner", written)
	}
	for round := 0; round < 4; round++ {
		for i, n := range nodes {
			for j, other := range nodes {
				if j == i {
					continue
				}
				if _, err := n.PullFrom(other.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if ok, why := Converged(nodes); !ok {
		t.Fatalf("not converged before restart: %s", why)
	}
	if st, ok := nodes[0].WALStats(); !ok || st.BatchedRecords == 0 {
		t.Errorf("durable partitioned node reports no WAL activity: %+v/%v", st, ok)
	}
	// A durable pruning pass must not disturb convergence or durability.
	nodes[0].PruneOnce()

	want := make([][]core.Snapshot, servers)
	for i, n := range nodes {
		want[i] = n.Parted().Snapshot()
	}
	if err := CloseAll(nodes); err != nil {
		t.Fatal(err)
	}

	nodes = startDurablePartCluster(t, root, servers, partitions, placement)
	defer CloseAll(nodes)
	for i, n := range nodes {
		if got := n.Parted().Snapshot(); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("node %d restarted with different state", i)
		}
		if err := n.Parted().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if ok, why := Converged(nodes); !ok {
		t.Fatalf("not converged after restart: %s", why)
	}
	// And the restarted cluster keeps replicating.
	if err := nodes[0].Update("post-restart", op.NewSet([]byte("alive"))); err != nil && !errors.Is(err, core.ErrNotOwner) {
		t.Fatal(err)
	}
}

func TestMixedDurableVolatileCluster(t *testing.T) {
	dir := t.TempDir()
	volatileA, err := Start(Config{ID: 0, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer volatileA.Close()
	volatileB, err := Start(Config{ID: 1, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer volatileB.Close()
	durableC := startDurableNode(t, dir, 2, 3)
	defer durableC.Close()

	volatileA.Update("a", op.NewSet([]byte("1")))
	volatileB.Update("b", op.NewSet([]byte("2")))
	durableC.Update("c", op.NewSet([]byte("3")))

	nodes := []*Node{volatileA, volatileB, durableC}
	for round := 0; round < 4; round++ {
		for i, n := range nodes {
			if _, err := n.PullFrom(nodes[(i+1)%3].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ok, why := Converged(nodes); !ok {
		t.Fatalf("mixed cluster not converged: %s", why)
	}
	for _, n := range nodes {
		if err := n.Replica().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFetchOOBMetersEveryNodeShape runs one out-of-bound copy into each
// node shape that can hold the key and checks the exchange's bytes reach
// the node's Metrics: an OOB copy into a durable node is the same metered
// call as into a volatile one.
func TestFetchOOBMetersEveryNodeShape(t *testing.T) {
	const parts = 4
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"volatile", Config{}},
		{"durable", Config{DataDir: t.TempDir()}},
		{"durable-partitioned", Config{DataDir: t.TempDir(), Partitions: parts}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, err := Start(Config{ID: 0, Servers: 2, Partitions: tc.cfg.Partitions})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if err := src.Update("hot", op.NewSet([]byte("fresh"))); err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.ID, cfg.Servers = 1, 2
			cfg.DurableOptions = durable.Options{NoSync: true}
			node, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()

			before := node.Metrics().WireBytesRecv
			adopted, err := node.FetchOOB(src.Addr(), "hot")
			if err != nil || !adopted {
				t.Fatalf("FetchOOB = %v/%v", adopted, err)
			}
			if got := node.Metrics().WireBytesRecv; got <= before {
				t.Errorf("received wire bytes %d -> %d: the OOB copy was not metered", before, got)
			}
		})
	}
}
