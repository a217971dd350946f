package cluster

// Experiment E19: bounded logs with reconciliation catch-up. A cluster
// running acked-peer pruning under a log cap keeps every log component
// bounded while one node is offline; when the node rejoins, its pull is
// diverted to range-based set reconciliation and the catch-up traffic is
// proportional to the missed difference, never to database size.
// Methodology and recorded numbers live in EXPERIMENTS.md (E19).

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/op"
)

const (
	e19Servers = 4
	e19Items   = 400 // preloaded database size
	e19Diff    = 40  // rewrites the offline node misses
	e19Value   = 256 // bytes per item value
	e19LogCap  = 8   // per-origin log component bound
)

// startE19Cluster is StartCluster with a log cap and no background loops:
// the experiment drives sessions and pruning passes explicitly.
func startE19Cluster(tb testing.TB) []*Node {
	tb.Helper()
	nodes := make([]*Node, e19Servers)
	for i := range nodes {
		node, err := Start(Config{ID: i, Servers: e19Servers, LogCap: e19LogCap})
		if err != nil {
			tb.Fatal(err)
		}
		nodes[i] = node
	}
	tb.Cleanup(func() { CloseAll(nodes) })
	for i, node := range nodes {
		var peers []string
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other.Addr())
			}
		}
		node.SetPeers(peers)
	}
	return nodes
}

// e19Sweep runs full-mesh pull rounds among the given nodes. Two rounds
// give every node fresh data and teach every server the post-session
// acked DBVVs (a pull request carries the puller's pre-session DBVV, so
// acknowledgements trail one session behind).
func e19Sweep(tb testing.TB, nodes []*Node, rounds int) {
	tb.Helper()
	for r := 0; r < rounds; r++ {
		for i, n := range nodes {
			for j, peer := range nodes {
				if i == j {
					continue
				}
				if _, err := n.PullFrom(peer.Addr()); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
}

func TestE19BoundedLogReconcileCatchup(t *testing.T) {
	nodes := startE19Cluster(t)
	val := bytes.Repeat([]byte{'v'}, e19Value)
	for i := 0; i < e19Items; i++ {
		if err := nodes[0].Update(fmt.Sprintf("item/%05d", i), op.NewSet(val)); err != nil {
			t.Fatal(err)
		}
	}
	e19Sweep(t, nodes, 2)
	if ok, why := Converged(nodes); !ok {
		t.Fatalf("preload not converged: %s", why)
	}
	for _, n := range nodes {
		n.PruneOnce()
	}

	// The log stays bounded: at most logCap records per origin component.
	for i, n := range nodes {
		if got := n.Replica().LogRecords(); got > e19Servers*e19LogCap {
			t.Errorf("node %d holds %d log records after pruning, cap implies <= %d",
				i, got, e19Servers*e19LogCap)
		}
	}
	if m := nodes[0].Metrics(); m.PrunedRecords == 0 {
		t.Error("pruning dropped nothing on the writer")
	}

	// Node 3 goes offline; the cluster keeps writing, gossiping among the
	// survivors, and pruning under the cap — past the offline node's ack.
	offline := nodes[3]
	live := nodes[:3]
	var diffBytes uint64
	for i := 0; i < e19Diff; i++ {
		key := fmt.Sprintf("item/%05d", i) // a contiguous hot range
		val[0] = byte(i)
		if err := nodes[0].Update(key, op.NewSet(val)); err != nil {
			t.Fatal(err)
		}
		diffBytes += uint64(len(key) + e19Value + 16)
	}
	e19Sweep(t, live, 2)
	for _, n := range live {
		n.PruneOnce()
	}
	if !nodes[0].Replica().NeedsReconcile(offline.Replica().DBVV()) {
		t.Fatal("survivors did not prune past the offline node's DBVV")
	}

	// Rejoin: the pull is diverted to reconciliation and converges with
	// traffic proportional to the missed difference.
	before := offline.Metrics()
	shipped, err := offline.PullFrom(nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !shipped {
		t.Fatal("rejoin pull shipped nothing")
	}
	if ok, why := Converged(nodes); !ok {
		t.Fatalf("not converged after rejoin: %s", why)
	}
	d := offline.Metrics().Diff(before)
	if d.ReconcileSessions != 1 {
		t.Errorf("ReconcileSessions = %d, want 1", d.ReconcileSessions)
	}
	if d.ReconcileRoundTrips == 0 || d.ReconcileBytes == 0 {
		t.Errorf("reconcile traffic not charged: %d trips, %d bytes",
			d.ReconcileRoundTrips, d.ReconcileBytes)
	}
	moved := d.WireBytesSent + d.WireBytesRecv
	if moved > 3*diffBytes {
		t.Errorf("rejoin moved %d B for a %d B diff, want <= 3x", moved, diffBytes)
	}
	fullState := uint64(e19Items * (10 + e19Value))
	if moved >= fullState/4 {
		t.Errorf("rejoin moved %d B, full state is %d B — O(N) transfer", moved, fullState)
	}
	t.Logf("E19: rejoin moved %d B for a %d B diff (full state ~%d B), %d reconcile round trips",
		moved, diffBytes, fullState, d.ReconcileRoundTrips)
}

// BenchmarkE19ReconcileCatchup times the rejoin catch-up session: per
// iteration the source takes a burst of rewrites the recipient missed and
// cap-prunes past its acknowledgement, then the timed pull reconciles and
// catches up. Run with
// `go test -run=NONE -bench=BenchmarkE19ReconcileCatchup -benchtime=5x -v ./internal/cluster`.
func BenchmarkE19ReconcileCatchup(b *testing.B) {
	nodes := startE19Cluster(b)
	src, dst := nodes[0], nodes[1]
	val := bytes.Repeat([]byte{'v'}, e19Value)
	for i := 0; i < e19Items; i++ {
		if err := src.Update(fmt.Sprintf("item/%05d", i), op.NewSet(val)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := dst.PullFrom(src.Addr()); err != nil {
		b.Fatal(err)
	}

	var wire uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < e19Diff; k++ {
			val[0], val[1] = byte(i), byte(k)
			if err := src.Update(fmt.Sprintf("item/%05d", k), op.NewSet(val)); err != nil {
				b.Fatal(err)
			}
		}
		// The cap (8) sits far below the burst (40): pruning always passes
		// the recipient's DBVV, so every timed pull is a diverted catch-up.
		src.PruneOnce()
		if !src.Replica().NeedsReconcile(dst.Replica().DBVV()) {
			b.Fatal("burst did not prune past the recipient")
		}
		before := dst.Metrics()
		b.StartTimer()
		shipped, err := dst.PullFrom(src.Addr())
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if !shipped {
			b.Fatal("catch-up pull shipped nothing")
		}
		d := dst.Metrics().Diff(before)
		wire += d.WireBytesSent + d.WireBytesRecv
		b.StartTimer()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
	}
}
