package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/op"
	"repro/internal/ring"
)

// partKeys returns count distinct keys that hash into partition pid of a
// ring with the given partition count.
func partKeys(t testing.TB, rg *ring.Ring, pid, count int) []string {
	t.Helper()
	keys := make([]string, 0, count)
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("key/%d/%06d", pid, i)
		if rg.PartitionOf(k) == pid {
			keys = append(keys, k)
		}
		if i > 1_000_000 {
			t.Fatalf("could not find %d keys for partition %d", count, pid)
		}
	}
	return keys
}

// newPartCluster builds one Partitioned node per server id.
func newPartCluster(servers, partitions, placement int, opts ...Option) []*Partitioned {
	nodes := make([]*Partitioned, servers)
	for i := range nodes {
		nodes[i] = NewPartitioned(i, servers, partitions, placement, opts...)
	}
	return nodes
}

func TestPartitionedRoutingAndRejection(t *testing.T) {
	nodes := newPartCluster(4, 8, 2)
	rg := nodes[0].Ring()
	for pid := 0; pid < rg.Partitions(); pid++ {
		key := partKeys(t, rg, pid, 1)[0]
		owners := rg.Owners(pid)
		if len(owners) != 2 {
			t.Fatalf("partition %d has %d owners, want 2", pid, len(owners))
		}
		for _, n := range nodes {
			err := n.Update(key, op.NewSet([]byte("v")))
			if rg.Owns(n.ID(), pid) {
				if err != nil {
					t.Fatalf("node %d owns partition %d but rejected %q: %v", n.ID(), pid, key, err)
				}
				if !n.OwnsKey(key) {
					t.Fatalf("node %d OwnsKey(%q) = false for owned partition %d", n.ID(), key, pid)
				}
				if v, ok := n.Read(key); !ok || string(v) != "v" {
					t.Fatalf("node %d read %q = (%q, %v)", n.ID(), key, v, ok)
				}
				if _, ok := n.ReadIVV(key); !ok {
					t.Fatalf("node %d ReadIVV(%q) missing", n.ID(), key)
				}
			} else {
				if !errors.Is(err, ErrNotOwner) {
					t.Fatalf("node %d does not own partition %d; Update(%q) err = %v, want ErrNotOwner",
						n.ID(), pid, key, err)
				}
				if n.OwnsKey(key) {
					t.Fatalf("node %d OwnsKey(%q) = true for non-owned partition %d", n.ID(), key, pid)
				}
				if _, ok := n.Read(key); ok {
					t.Fatalf("node %d read non-owned key %q", n.ID(), key)
				}
			}
		}
	}
}

// gossipToConvergence runs pairwise partitioned sessions until every
// partition's owner set is pairwise equivalent.
func gossipToConvergence(t *testing.T, nodes []*Partitioned) {
	t.Helper()
	for round := 0; ; round++ {
		if round > 4*len(nodes) {
			_, why := PartConverged(nodes...)
			t.Fatalf("no convergence after %d rounds: %s", round, why)
		}
		for _, src := range nodes {
			for _, dst := range nodes {
				if src != dst {
					PartAntiEntropy(dst, src)
				}
			}
		}
		if ok, _ := PartConverged(nodes...); ok {
			return
		}
	}
}

func TestPartAntiEntropyConverges(t *testing.T) {
	nodes := newPartCluster(5, 16, 3)
	rg := nodes[0].Ring()
	written := 0
	for pid := 0; pid < rg.Partitions(); pid++ {
		owners := rg.Owners(pid)
		for i, key := range partKeys(t, rg, pid, 6) {
			owner := nodes[owners[i%len(owners)]]
			if err := owner.Update(key, op.NewSet([]byte(key))); err != nil {
				t.Fatalf("update %q at node %d: %v", key, owner.ID(), err)
			}
			written++
		}
	}
	gossipToConvergence(t, nodes)
	for _, n := range nodes {
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("node %d: %v", n.ID(), err)
		}
	}
	// Every owner of every partition must hold all 6 of its keys.
	for pid := 0; pid < rg.Partitions(); pid++ {
		for _, key := range partKeys(t, rg, pid, 6) {
			for _, s := range rg.Owners(pid) {
				if v, ok := nodes[s].Read(key); !ok || string(v) != key {
					t.Fatalf("node %d missing %q after convergence (got %q, %v)", s, key, v, ok)
				}
			}
		}
	}
	if written == 0 {
		t.Fatal("no updates written")
	}
}

// A quiescent partitioned session between nodes sharing k partitions costs
// exactly k DBVV comparisons at the source — the per-partition O(1)
// identical-check, and nothing else: no items examined, nothing shipped.
func TestPartAntiEntropyNoopCostsExactlyKComparisons(t *testing.T) {
	nodes := newPartCluster(4, 16, 4)
	rg := nodes[0].Ring()
	// Populate and converge so the no-op session runs over non-trivial state.
	for pid := 0; pid < rg.Partitions(); pid++ {
		owner := nodes[rg.Owners(pid)[0]]
		for _, key := range partKeys(t, rg, pid, 4) {
			if err := owner.Update(key, op.NewSet([]byte(key))); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
	}
	gossipToConvergence(t, nodes)

	recipient, source := nodes[0], nodes[1]
	k := len(rg.Shared(recipient.ID(), source.ID()))
	if k == 0 {
		t.Fatal("test needs nodes sharing at least one partition")
	}
	before := source.Metrics()
	if shipped := PartAntiEntropy(recipient, source); shipped != 0 {
		t.Fatalf("quiescent session shipped %d partitions", shipped)
	}
	d := source.Metrics().Diff(before)
	if d.DBVVComparisons != uint64(k) {
		t.Fatalf("no-op session cost %d DBVV comparisons, want exactly k=%d", d.DBVVComparisons, k)
	}
	if d.PropagationNoops != uint64(k) {
		t.Fatalf("no-op session recorded %d noops, want %d", d.PropagationNoops, k)
	}
	if d.ItemsExamined != 0 || d.ItemsSent != 0 || d.LogRecordsSent != 0 {
		t.Fatalf("no-op session touched items: %+v", d)
	}
}

// A write burst confined to one partition must cost a session only that
// partition's work: the other shared partitions stay at one comparison
// each, and only the burst's items move.
func TestPartAntiEntropySkipsCleanPartitions(t *testing.T) {
	nodes := newPartCluster(4, 16, 4)
	rg := nodes[0].Ring()
	recipient, source := nodes[0], nodes[1]
	shared := rg.Shared(recipient.ID(), source.ID())
	if len(shared) < 2 {
		t.Fatalf("need ≥2 shared partitions, have %d", len(shared))
	}
	hot := shared[0]
	const burst = 32
	for _, key := range partKeys(t, rg, hot, burst) {
		if err := source.Update(key, op.NewSet([]byte(key))); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
	before := source.Metrics()
	if shipped := PartAntiEntropy(recipient, source); shipped != 1 {
		t.Fatalf("session shipped %d partitions, want 1", shipped)
	}
	d := source.Metrics().Diff(before)
	if d.DBVVComparisons != uint64(len(shared)) {
		t.Fatalf("session cost %d DBVV comparisons, want %d (one per shared partition)",
			d.DBVVComparisons, len(shared))
	}
	if d.ItemsSent != burst || d.ItemsExamined != burst {
		t.Fatalf("session moved %d items (examined %d), want exactly the %d-item burst",
			d.ItemsSent, d.ItemsExamined, burst)
	}
	if v, ok := recipient.Read(partKeys(t, rg, hot, 1)[0]); !ok || len(v) == 0 {
		t.Fatal("burst item did not arrive at recipient")
	}
}

func TestStreamPartAntiEntropyConverges(t *testing.T) {
	nodes := newPartCluster(3, 8, 2)
	rg := nodes[0].Ring()
	val := make([]byte, 2048)
	for i := range val {
		val[i] = byte(i)
	}
	for pid := 0; pid < rg.Partitions(); pid++ {
		owner := nodes[rg.Owners(pid)[0]]
		for _, key := range partKeys(t, rg, pid, 16) {
			if err := owner.Update(key, op.NewSet(val)); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
	}
	// Small chunk budget forces multi-chunk streams per dirty partition.
	for round := 0; round < 3; round++ {
		for _, src := range nodes {
			for _, dst := range nodes {
				if src != dst {
					Pull(dst, memSinks(dst), streamPeer{LocalPeer: Local(src), maxBytes: 1, chunkBytes: 4 << 10})
				}
			}
		}
	}
	if ok, why := PartConverged(nodes...); !ok {
		t.Fatalf("not converged: %s", why)
	}
	for _, n := range nodes {
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("node %d: %v", n.ID(), err)
		}
		if n.Metrics().ChunksSent == 0 && len(n.Owned()) > 0 {
			t.Fatalf("node %d streamed no chunks", n.ID())
		}
	}
}

func TestPartitionedSnapshotAndMetricsAggregate(t *testing.T) {
	nodes := newPartCluster(3, 8, 3) // placement 3 of 3: all nodes own all partitions
	rg := nodes[0].Ring()
	n := nodes[0]
	total := 0
	for pid := 0; pid < rg.Partitions(); pid++ {
		for _, key := range partKeys(t, rg, pid, 3) {
			if err := n.Update(key, op.NewSet([]byte("x"))); err != nil {
				t.Fatalf("update: %v", err)
			}
			total++
		}
	}
	snaps := n.Snapshot()
	if len(snaps) != len(n.Owned()) {
		t.Fatalf("snapshot covers %d partitions, own %d", len(snaps), len(n.Owned()))
	}
	items := 0
	for _, s := range snaps {
		items += len(s.Items)
	}
	if items != total || n.Items() != total {
		t.Fatalf("snapshot holds %d items, Items() %d, want %d", items, n.Items(), total)
	}
	if got := n.Metrics().UpdatesApplied; got != uint64(total) {
		t.Fatalf("aggregated UpdatesApplied = %d, want %d", got, total)
	}
	n.AddWireStats(100, 200, 1, 2)
	m := n.Metrics()
	if m.WireBytesSent != 100 || m.WireBytesRecv != 200 || m.Dials != 1 || m.ConnsReused != 2 {
		t.Fatalf("wire stats not folded into metrics: %+v", m)
	}
	n.ResetMetrics()
	if got := n.Metrics(); got.UpdatesApplied != 0 || got.WireBytesSent != 0 {
		t.Fatalf("reset left counters: %+v", got)
	}
}

func TestPartRequestCoversOwnedAscending(t *testing.T) {
	n := NewPartitioned(2, 5, 16, 3)
	req := n.PartRequest()
	owned := n.Owned()
	if len(req) != len(owned) {
		t.Fatalf("PartRequest has %d entries, own %d partitions", len(req), len(owned))
	}
	for i, st := range req {
		if st.Pid != owned[i] {
			t.Fatalf("entry %d is partition %d, want %d (ascending owned order)", i, st.Pid, owned[i])
		}
		if st.DBVV.Sum() != 0 {
			t.Fatalf("fresh node has non-zero DBVV for partition %d", st.Pid)
		}
	}
}

func TestPartitionedRingMismatchPanics(t *testing.T) {
	for _, tc := range []struct {
		name      string
		a, b      *Partitioned
		wantPanic bool
	}{
		{"partition counts differ", NewPartitioned(0, 3, 8, 2), NewPartitioned(1, 3, 16, 2), true},
		// A one-partition ring places its partition on every server, so a
		// node grown to four servers still shares it with a three-server one.
		{"P=1 across a grow", NewPartitioned(0, 3, 1, 3), NewPartitioned(3, 4, 1, 4), false},
		{"P=4 across a grow", NewPartitioned(0, 3, 4, 2), NewPartitioned(3, 4, 4, 2), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if panicked := recover() != nil; panicked != tc.wantPanic {
					t.Fatalf("panicked = %v, want %v", panicked, tc.wantPanic)
				}
			}()
			PartAntiEntropy(tc.a, tc.b)
			PartConverged(tc.a, tc.b)
		})
	}
}
