package cluster

// Experiment E18: partitioned anti-entropy cost scales with shared data,
// not database size. A 16-partition, 4-way-placed cluster takes a write
// burst confined to a single keyspace partition; a pairwise session with a
// peer that does not replicate that partition must stay on the negotiation
// fast path — a handful of control bytes and no items — while the same
// workload under full replication ships the whole burst to every peer.
// Methodology and recorded numbers live in EXPERIMENTS.md (E18).

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/op"
	"repro/internal/ring"
)

const (
	e18Servers    = 8
	e18Partitions = 16
	e18Placement  = 4
	e18Burst      = 1500 // items per burst round
	e18Value      = 256  // bytes per item value
	e18Rounds     = 3
)

// e18Keys finds count distinct keys hashing into partition pid.
func e18Keys(tb testing.TB, rg *ring.Ring, pid, count int) []string {
	tb.Helper()
	keys := make([]string, 0, count)
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("key/%d/%06d", pid, i)
		if rg.PartitionOf(k) == pid {
			keys = append(keys, k)
		}
		if i > 4_000_000 {
			tb.Fatalf("cannot find %d keys for partition %d", count, pid)
		}
	}
	return keys
}

// e18Pair picks the experiment's roles off the (deterministic) ring: a
// source node, a burst partition it owns, and a recipient peer that does
// not own the burst partition but shares at least one other partition with
// the source.
func e18Pair(tb testing.TB, rg *ring.Ring) (src, dst, burstPid int) {
	tb.Helper()
	for s := 0; s < rg.Servers(); s++ {
		for _, pid := range rg.OwnedBy(s) {
			for d := 0; d < rg.Servers(); d++ {
				if d == s || rg.Owns(d, pid) {
					continue
				}
				if len(rg.Shared(s, d)) > 0 {
					return s, d, pid
				}
			}
		}
	}
	tb.Fatal("ring layout offers no (source, non-owner recipient) pair")
	return 0, 0, 0
}

func TestE18PartitionedVsFullReplication(t *testing.T) {
	part, err := StartPartCluster(e18Servers, e18Partitions, e18Placement, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(part)
	full, err := StartCluster(e18Servers, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(full)

	rg := part[0].Parted().Ring()
	srcID, dstID, burstPid := e18Pair(t, rg)
	pSrc, pDst := part[srcID], part[dstID]
	fSrc, fDst := full[srcID], full[dstID]

	// Preload every partition the source owns (the recipient's view of
	// "database size"), then converge both setups once.
	for _, pid := range rg.OwnedBy(srcID) {
		for _, k := range e18Keys(t, rg, pid, 8) {
			if err := pSrc.Update(k, op.NewSet([]byte("preload"))); err != nil {
				t.Fatal(err)
			}
			if err := fSrc.Update(k, op.NewSet([]byte("preload"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := pDst.PullFrom(pSrc.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := fDst.PullFrom(fSrc.Addr()); err != nil {
		t.Fatal(err)
	}

	// Burst rounds: each confines its writes to burstPid, which pDst does
	// not replicate. The partitioned session must settle by negotiation
	// alone; the full-replication session ships the burst every round.
	burstKeys := e18Keys(t, rg, burstPid, e18Burst)
	var partBytes, fullBytes uint64
	var partTime, fullTime time.Duration
	for round := 0; round < e18Rounds; round++ {
		val := bytes.Repeat([]byte{byte('a' + round)}, e18Value)
		for _, k := range burstKeys {
			if err := pSrc.Update(k, op.NewSet(val)); err != nil {
				t.Fatal(err)
			}
			if err := fSrc.Update(k, op.NewSet(val)); err != nil {
				t.Fatal(err)
			}
		}

		before := pDst.Metrics()
		start := time.Now()
		shipped, err := pDst.PullFrom(pSrc.Addr())
		partTime += time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if shipped {
			t.Fatalf("round %d: non-owner recipient received burst data", round)
		}
		d := pDst.Metrics().Diff(before)
		partBytes += d.WireBytesSent + d.WireBytesRecv
		if d.LogRecordsApplied != 0 {
			t.Fatalf("round %d: non-owner recipient applied %d log records", round, d.LogRecordsApplied)
		}

		before = fDst.Metrics()
		start = time.Now()
		shipped, err = fDst.PullFrom(fSrc.Addr())
		fullTime += time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !shipped {
			t.Fatalf("round %d: full replication did not ship the burst", round)
		}
		d = fDst.Metrics().Diff(before)
		fullBytes += d.WireBytesSent + d.WireBytesRecv
	}

	// Control bytes: everything the full-replication session moved beyond
	// the raw burst values is protocol control (vectors, tail records,
	// framing). The partitioned session moved no payload at all, so its
	// total is pure control.
	payload := uint64(e18Rounds * e18Burst * e18Value)
	if fullBytes <= payload {
		t.Fatalf("full replication moved %d bytes for %d payload bytes; accounting broken", fullBytes, payload)
	}
	fullControl := fullBytes - payload
	t.Logf("E18: partitioned session %d B total (all control), full replication %d B total / %d B control, %.1f× fewer control bytes",
		partBytes, fullBytes, fullControl, float64(fullControl)/float64(partBytes))
	t.Logf("E18: partitioned session %v, full replication %v, %.1f× faster", partTime, fullTime, float64(fullTime)/float64(partTime))
	// The timing above is logged, not asserted: wall-clock ratios move with
	// whatever else the machine is running. The counts carry the claim.
	if partBytes*4 > fullControl {
		t.Errorf("partitioned session moved %d control bytes, want ≤ 1/4 of full replication's %d", partBytes, fullControl)
	}

	// Exactly-k: a repeat (no-op) session between this pair costs the
	// source one DBVV comparison per shared partition, nothing else.
	k := len(rg.Shared(srcID, dstID))
	before := pSrc.Metrics()
	if _, err := pDst.PullFrom(pSrc.Addr()); err != nil {
		t.Fatal(err)
	}
	d := pSrc.Metrics().Diff(before)
	if d.DBVVComparisons != uint64(k) {
		t.Errorf("no-op session cost %d DBVV comparisons, want exactly k=%d", d.DBVVComparisons, k)
	}
	if d.ItemsExamined != 0 {
		t.Errorf("no-op session examined %d items", d.ItemsExamined)
	}
}

// The burst must still reach every owner of its partition: gossip over the
// full mesh converges the cluster, with non-owners never touching it.
func TestPartClusterGossipConverges(t *testing.T) {
	nodes, err := StartPartCluster(5, 8, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(nodes)
	rg := nodes[0].Parted().Ring()
	for _, n := range nodes {
		for _, pid := range n.Parted().Owned() {
			key := fmt.Sprintf("seed/%d/%d", n.Parted().ID(), pid)
			if rg.PartitionOf(key) != pid {
				continue // only write keys that actually land in an owned partition
			}
			if err := n.Update(key, op.NewSet([]byte("g"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for sweep := 0; sweep < 6; sweep++ {
		for i, n := range nodes {
			for j, peer := range nodes {
				if i == j {
					continue
				}
				if _, err := n.PullFrom(peer.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if ok, _ := Converged(nodes); ok {
			break
		}
	}
	if ok, why := Converged(nodes); !ok {
		t.Fatalf("not converged after gossip sweeps: %s", why)
	}
}

// A rejoining node bootstraps only its own share of the keyspace.
func TestPartNodeBootstrap(t *testing.T) {
	nodes, err := StartPartCluster(4, 16, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(nodes)
	rg := nodes[0].Parted().Ring()
	// Fill every partition via its first owner.
	for pid := 0; pid < rg.Partitions(); pid++ {
		owner := nodes[rg.Owners(pid)[0]]
		for _, k := range e18Keys(t, rg, pid, 4) {
			if err := owner.Update(k, op.NewSet([]byte("v"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Converge the mesh so every owner holds its partitions.
	for sweep := 0; sweep < 6; sweep++ {
		for i, n := range nodes {
			for j, peer := range nodes {
				if i != j {
					if _, err := n.PullFrom(peer.Addr()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if ok, why := Converged(nodes); !ok {
		t.Fatalf("mesh not converged: %s", why)
	}

	// "Rejoin" node 3: a fresh, empty node with the same identity pulls
	// from its peers and must end holding exactly its owned partitions.
	old := nodes[3]
	fresh, err := Start(Config{ID: 3, Servers: 4, Partitions: 16, Placement: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	var peers []string
	for _, n := range nodes[:3] {
		peers = append(peers, n.Addr())
	}
	fresh.SetPeers(peers)
	if _, err := fresh.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	for _, pid := range fresh.Parted().Owned() {
		a, b := fresh.Parted().Partition(pid), old.Parted().Partition(pid)
		if a.Items() != b.Items() {
			t.Errorf("partition %d: bootstrap fetched %d items, want %d", pid, a.Items(), b.Items())
		}
	}
	if got := fresh.Metrics().LogRecordsApplied; got == 0 {
		t.Error("bootstrap applied no log records")
	}
	if err := fresh.Parted().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// BenchmarkE18PartitionedSession times the E18 pairwise session in both
// worlds: a burst confined to one keyspace partition, pulled by a peer
// that does not replicate it (partitioned) vs. a peer that replicates
// everything (full replication). Run with
// `go test -run=NONE -bench=BenchmarkE18PartitionedSession -benchtime=5x -v ./internal/cluster`.
func BenchmarkE18PartitionedSession(b *testing.B) {
	b.Run("full-replication", func(b *testing.B) {
		nodes, err := StartCluster(e18Servers, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer CloseAll(nodes)
		// The reference ring only supplies the burst-partition geometry; the
		// nodes themselves replicate everything.
		rg := ring.New(e18Servers, e18Partitions, e18Placement)
		benchE18(b, rg, nodes[0], nodes[1])
	})
	b.Run("partitioned", func(b *testing.B) {
		nodes, err := StartPartCluster(e18Servers, e18Partitions, e18Placement, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer CloseAll(nodes)
		rg := nodes[0].Parted().Ring()
		srcID, dstID, _ := e18Pair(b, rg)
		benchE18(b, rg, nodes[srcID], nodes[dstID])
	})
}

// benchE18 runs b.N burst+pull rounds between src and dst and reports the
// recipient-measured wire bytes per session.
func benchE18(b *testing.B, rg *ring.Ring, src, dst *Node) {
	var burstPid int
	if src.Parted() != nil {
		var srcID, dstID int
		srcID, dstID, burstPid = e18Pair(b, rg)
		if srcID != src.Parted().ID() || dstID != dst.Parted().ID() {
			b.Fatalf("role mismatch: picked (%d,%d), given (%d,%d)", srcID, dstID, src.Parted().ID(), dst.Parted().ID())
		}
	} else {
		// Full replication uses the same burst partition's keys; geometry
		// comes from the reference ring.
		_, _, burstPid = e18Pair(b, rg)
	}
	keys := e18Keys(b, rg, burstPid, e18Burst)
	if _, err := dst.PullFrom(src.Addr()); err != nil {
		b.Fatal(err)
	}

	var wire uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		val := bytes.Repeat([]byte{byte('a' + i%26)}, e18Value)
		for _, k := range keys {
			if err := src.Update(k, op.NewSet(val)); err != nil {
				b.Fatal(err)
			}
		}
		before := dst.Metrics()
		b.StartTimer()
		if _, err := dst.PullFrom(src.Addr()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		d := dst.Metrics().Diff(before)
		wire += d.WireBytesSent + d.WireBytesRecv
		b.StartTimer()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(wire)/float64(b.N), "wire-bytes/op")
	}
}
