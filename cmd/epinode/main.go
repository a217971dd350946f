// Command epinode runs a small live cluster of replica servers over TCP on
// loopback, applies a workload, and watches it converge through background
// anti-entropy — the protocol running on real sockets rather than in a
// simulator.
//
// Usage:
//
//	epinode -nodes 5 -interval 50ms -updates 100
//	epinode -nodes 8 -partitions 16 -placement 4   # partial replication
//	epinode -logcap 8 -prune 20ms                  # bounded logs (DESIGN.md §4h)
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/op"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 3, "number of replica servers")
		interval   = flag.Duration("interval", 50*time.Millisecond, "anti-entropy period")
		updates    = flag.Int("updates", 50, "updates to apply")
		items      = flag.Int("items", 100, "item space size")
		valSize    = flag.Int("valuesize", 32, "value payload bytes (large workloads stream their catch-up)")
		timeout    = flag.Duration("timeout", 30*time.Second, "convergence deadline")
		dataDir    = flag.String("datadir", "", "make nodes durable under <datadir>/node-<i>")
		partitions = flag.Int("partitions", 1, "split the keyspace into this many token-ring partitions (>1 enables partial replication)")
		placement  = flag.Int("placement", 0, "replicas per partition (0 = every node; only with -partitions > 1)")
		logCap     = flag.Int("logcap", 0, "per-origin log record cap: pruning passes laggard acks and laggards catch up via reconciliation (0 = ack-gated only)")
		pruneEvery = flag.Duration("prune", 0, "background log-pruning period (0 = no background pass)")
		noSync     = flag.Bool("nosync", false, "disable WAL fsync on durable nodes (faster, loses the tail on a machine crash)")
		commitDly  = flag.Duration("commit-delay", 0, "group-commit leader linger: trade ack latency for larger batches (durable nodes only)")
	)
	flag.Parse()

	dopts := durable.Options{NoSync: *noSync, CommitDelay: *commitDly}
	ns, err := startNodes(*nodes, *interval, *pruneEvery, *dataDir, *partitions, *placement, *logCap, dopts)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.CloseAll(ns)

	for i, n := range ns {
		fmt.Printf("node %d listening on %s, owns partitions %v\n", i, n.Addr(), n.Parted().Owned())
	}

	g := workload.New(workload.Config{Items: *items, ValueSize: *valSize, Seed: 7})
	start := time.Now()
	for u := 0; u < *updates; u++ {
		idx := g.NextIndex()
		key := workload.Key(idx)
		// Only an owner may accept the write. Choosing the owner by item
		// index keeps one writer per item (no conflicts) and spreads the
		// writes over the owners — every node when fully replicated.
		rg := ns[0].Parted().Ring()
		owners := rg.Owners(rg.PartitionOf(key))
		node := owners[idx%len(owners)]
		if err := ns[node].Update(key, op.NewSet(g.Value())); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("applied %d updates across %d nodes\n", *updates, *nodes)

	deadline := time.Now().Add(*timeout)
	for time.Now().Before(deadline) {
		if ok, _ := cluster.Converged(ns); ok {
			fmt.Printf("converged in %v\n", time.Since(start).Round(time.Millisecond))
			printStats(ns)
			return
		}
		time.Sleep(*interval / 2)
	}
	_, why := cluster.Converged(ns)
	log.Fatalf("no convergence within %v: %s", *timeout, why)
}

// startNodes brings up a full-mesh cluster with the complete lifecycle
// config: optional durability under dataDir, optional keyspace
// partitioning, and optional log bounding (cap + background prune pass).
func startNodes(n int, interval, pruneEvery time.Duration, dataDir string, partitions, placement, logCap int, dopts durable.Options) ([]*cluster.Node, error) {
	nodes := make([]*cluster.Node, n)
	for i := 0; i < n; i++ {
		cfg := cluster.Config{
			ID: i, Servers: n, Interval: interval,
			Partitions: partitions, Placement: placement,
			LogCap: logCap, PruneInterval: pruneEvery,
		}
		if dataDir != "" {
			cfg.DataDir = fmt.Sprintf("%s/node-%d", dataDir, i)
			cfg.DurableOptions = dopts
		}
		node, err := cluster.Start(cfg)
		if err != nil {
			for _, prev := range nodes[:i] {
				if prev != nil {
					prev.Close()
				}
			}
			return nil, err
		}
		nodes[i] = node
	}
	for i, node := range nodes {
		var peers []string
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other.Addr())
			}
		}
		node.SetPeers(peers)
	}
	return nodes, nil
}

func printStats(ns []*cluster.Node) {
	for i, n := range ns {
		// Background anti-entropy loops are still running here: Metrics()
		// snapshots the replica's counters with per-field atomic loads (the
		// Replica.met field is //epi:guard atomic, verified by epilint's
		// guarded analyzer), so concurrent reads are safe; the snapshot is
		// not a single cut across fields, which monitoring tolerates.
		m := n.Metrics()
		ps := n.PoolStats()
		pr := n.Parted()
		items, logRecords := pr.Items(), 0
		for _, snap := range pr.Snapshot() {
			logRecords += snap.LogRecords
		}
		fmt.Printf("node %d: items=%d log-records=%d sessions=%d noops=%d streamed=%d chunks-out=%d chunks-in=%d est-bytes=%d wire-sent=%d wire-recv=%d dials=%d reused=%d\n",
			i, items, logRecords, m.Propagations, m.PropagationNoops,
			m.StreamSessions, m.ChunksSent, m.ChunksApplied, m.BytesSent,
			m.WireBytesSent, m.WireBytesRecv, ps.Dials, ps.Reused)
		failures, lastErr := n.PullFailures()
		fmt.Printf("node %d: pruned=%d reconcile-sessions=%d reconcile-trips=%d reconcile-bytes=%d pull-failures=%d last-pull-error=%v\n",
			i, m.PrunedRecords, m.ReconcileSessions, m.ReconcileRoundTrips, m.ReconcileBytes, failures, lastErr)
		if st, ok := n.WALStats(); ok {
			fmt.Printf("node %d: wal fsyncs=%d batches=%d batched-records=%d waiters=%d max-batch=%d hist=%s\n",
				i, st.Fsyncs, st.Batches, st.BatchedRecords, st.Waiters, st.MaxBatch, histString(st.BatchHist))
		}
		if err := pr.CheckInvariants(); err != nil {
			log.Fatalf("node %d invariants: %v", i, err)
		}
	}
	fmt.Println("all invariants hold")
}

// histString renders the committer's batch-size histogram as
// "1:12 2-3:4 4-7:1", skipping empty buckets (bucket k covers rounds of
// [2^k, 2^(k+1)) records; the last bucket is open-ended).
func histString(hist [wal.BatchBuckets]uint64) string {
	var parts []string
	for k, v := range hist {
		if v == 0 {
			continue
		}
		lo := uint64(1) << k
		switch {
		case k == len(hist)-1:
			parts = append(parts, fmt.Sprintf("%d+:%d", lo, v))
		case lo == (lo<<1)-1:
			parts = append(parts, fmt.Sprintf("%d:%d", lo, v))
		default:
			parts = append(parts, fmt.Sprintf("%d-%d:%d", lo, (lo<<1)-1, v))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}
