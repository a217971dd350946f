// Package cluster runs live replica nodes: each node is a core.Replica
// served over TCP (internal/transport) plus a background anti-entropy loop
// that periodically pulls from a randomly chosen peer — the deployment
// shape the paper assumes (§1: "update propagation can be done at a
// convenient time").
//
// Nodes are independent OS processes in a real deployment; here they share
// a process but communicate exclusively through TCP, so the same code runs
// distributed unchanged.
package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/op"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Config configures one node.
//
//epi:notshared config value copied into the node at Start
type Config struct {
	// ID is this server's identifier, 0 <= ID < Servers.
	ID int
	// Servers is the replication factor n.
	Servers int
	// Addr is the TCP listen address; "127.0.0.1:0" picks a free port.
	Addr string
	// Interval is the anti-entropy period. Zero disables the background
	// loop (sessions can still be triggered with PullOnce).
	Interval time.Duration
	// Seed makes peer selection deterministic; 0 uses the ID.
	Seed int64
	// DataDir, when non-empty, makes the node durable: protocol actions are
	// write-ahead logged under this directory and the node recovers its
	// state on restart.
	DataDir string
	// DurableOptions tunes the durable layer when DataDir is set.
	DurableOptions durable.Options
	// Transport tunes the node's pooled transport client. The zero value
	// uses default pool limits.
	Transport transport.Options
	// Partitions > 1 splits the keyspace into that many token-ring
	// partitions, each with its own DBVV and log vector, and the node
	// replicates only the partitions the ring places on it. Zero or one
	// keeps the unpartitioned node — the seed protocol byte-for-byte.
	Partitions int
	// Placement is the number of owners per keyspace partition when
	// Partitions > 1. Zero defaults to Servers (full placement: every node
	// replicates every partition, but sessions still negotiate and skip
	// per partition).
	Placement int
	// PruneInterval is the period of the background log-pruning pass
	// (core.Replica.Prune): records acknowledged by every peer are dropped
	// and the pruned watermark advances. Zero disables the background pass
	// (PruneOnce can still be called explicitly).
	PruneInterval time.Duration
	// LogCap bounds each per-origin log component to at most this many
	// records: a pruning pass advances the floor past laggard peers when a
	// component exceeds it, and those peers catch up via set
	// reconciliation. Zero leaves components bounded only by peer
	// acknowledgements.
	LogCap int
}

// Node is one live server: a replica, its TCP server and its anti-entropy
// scheduler.
type Node struct {
	cfg     Config               //epi:immutable
	replica *core.Replica        //epi:immutable nil on partitioned nodes
	parted  *core.Partitioned    //epi:immutable non-nil when Partitions > 1
	dur     *durable.Replica     //epi:immutable non-nil when DataDir is set, unpartitioned
	dpart   *durable.Partitioned //epi:immutable non-nil when DataDir is set with Partitions > 1
	server  *transport.Server    //epi:immutable
	client  *transport.Client    //epi:immutable pooled: sessions reuse warm peer connections

	mu    sync.Mutex
	peers []string //epi:guard mu

	stop chan struct{} //epi:immutable closed once by Stop; channels synchronize themselves
	done chan struct{} //epi:immutable closed once by the loop goroutine
	rng  *rand.Rand    //epi:guard mu peer selection happens under the peers lock
}

// Start creates the replica, begins serving, and (when configured with an
// interval) starts the anti-entropy loop.
func Start(cfg Config) (*Node, error) {
	if cfg.Servers <= 0 || cfg.ID < 0 || cfg.ID >= cfg.Servers {
		return nil, fmt.Errorf("cluster: invalid id %d of %d", cfg.ID, cfg.Servers)
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(cfg.ID + 1)
	}
	n := &Node{
		cfg:    cfg,
		client: transport.NewClient(cfg.Transport),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
	}
	switch {
	case cfg.Partitions > 1:
		placement := cfg.Placement
		if placement == 0 {
			placement = cfg.Servers
		}
		if cfg.DataDir != "" {
			// Durable partitioned node: one WAL + snapshot chain per owned
			// partition under DataDir/part-NNNN/, all sharing one group
			// committer so concurrent partitions amortize into shared fsyncs.
			dp, err := durable.OpenPartitioned(cfg.DataDir, cfg.ID, cfg.Servers, cfg.Partitions, placement, cfg.DurableOptions)
			if err != nil {
				return nil, err
			}
			dp.SetClient(n.client)
			n.dpart = dp
			n.parted = dp.Parted()
		} else {
			n.parted = core.NewPartitioned(cfg.ID, cfg.Servers, cfg.Partitions, placement)
		}
		// Each partition's pruning is gated by its own ring owners — the
		// only peers whose sessions can ever need its records.
		n.parted.ConfigurePruning(cfg.LogCap)
		srv, err := transport.ListenPart(n.parted, cfg.Addr)
		if err != nil {
			if n.dpart != nil {
				n.dpart.Close()
			}
			return nil, err
		}
		n.server = srv
		go n.loop()
		return n, nil
	case cfg.DataDir != "":
		d, err := durable.Open(cfg.DataDir, cfg.ID, cfg.Servers, cfg.DurableOptions)
		if err != nil {
			return nil, err
		}
		d.SetClient(n.client)
		n.dur = d
		n.replica = d.Core()
	default:
		n.replica = core.NewReplica(cfg.ID, cfg.Servers)
	}
	// Pruning is gated by every other server in the cluster: a record may
	// be dropped only once all of them have acknowledged it (or the log cap
	// forces it past a laggard, who then reconciles).
	peers := make([]int, 0, cfg.Servers-1)
	for j := 0; j < cfg.Servers; j++ {
		if j != cfg.ID {
			peers = append(peers, j)
		}
	}
	n.replica.ConfigurePruning(peers)
	n.replica.SetLogCap(cfg.LogCap)
	srv, err := transport.Listen(n.replica, cfg.Addr)
	if err != nil {
		return nil, err
	}
	n.server = srv
	go n.loop()
	return n, nil
}

// Replica exposes the node's replica for local operations. It is nil on a
// partitioned node, whose state lives in per-partition replicas — use
// Parted (or Partition) there.
func (n *Node) Replica() *core.Replica { return n.replica }

// Parted exposes the node's partitioned control plane; nil when the node is
// unpartitioned.
func (n *Node) Parted() *core.Partitioned { return n.parted }

// Metrics returns the node's protocol counters — the replica's, or the
// aggregate across partitions on a partitioned node. On a durable node the
// WAL* and GroupCommitWaiters fields are filled from the group committer's
// accounting at call time; the hot durable write path never charges a
// Counters value itself.
func (n *Node) Metrics() metrics.Counters {
	var m metrics.Counters
	if n.parted != nil {
		m = n.parted.Metrics()
	} else {
		m = n.replica.Metrics()
	}
	if st, ok := n.WALStats(); ok {
		m.WALFsyncs = st.Fsyncs
		m.WALBatchedRecords = st.BatchedRecords
		m.GroupCommitWaiters = st.Waiters
	}
	return m
}

// Addr returns the node's TCP address.
func (n *Node) Addr() string { return n.server.Addr() }

// SetPeers installs the addresses the anti-entropy loop pulls from.
func (n *Node) SetPeers(addrs []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = append([]string(nil), addrs...)
}

// Update applies a user update locally (write-ahead logged when the node
// is durable).
func (n *Node) Update(key string, o op.Op) error {
	if n.dpart != nil {
		return n.dpart.Update(key, o)
	}
	if n.parted != nil {
		return n.parted.Update(key, o)
	}
	if n.dur != nil {
		return n.dur.Update(key, o)
	}
	return n.replica.Update(key, o)
}

// Read returns the node's current value for key. On a partitioned node a
// key outside the node's owned partitions reads as absent.
func (n *Node) Read(key string) ([]byte, bool) {
	if n.parted != nil {
		return n.parted.Read(key)
	}
	return n.replica.Read(key)
}

// PullOnce performs one anti-entropy session against a random peer,
// returning the peer pulled from ("" when no peers are configured).
func (n *Node) PullOnce() (string, error) {
	n.mu.Lock()
	if len(n.peers) == 0 {
		n.mu.Unlock()
		return "", nil
	}
	peer := n.peers[n.rng.Intn(len(n.peers))]
	n.mu.Unlock()
	_, err := n.PullFrom(peer)
	return peer, err
}

// PullFrom performs one anti-entropy session against a specific address.
// Sessions go through the node's pooled client, so repeat pulls from the
// same peer ride one warm framed connection, and concurrent sessions to
// distinct peers proceed in parallel over their own connections.
func (n *Node) PullFrom(addr string) (bool, error) {
	if n.dpart != nil {
		shipped, err := n.dpart.PullFrom(addr)
		return shipped > 0, err
	}
	if n.parted != nil {
		shipped, err := n.client.PullPart(n.parted, addr)
		return shipped > 0, err
	}
	if n.dur != nil {
		return n.dur.PullFrom(addr)
	}
	return n.client.Pull(n.replica, addr)
}

// PullStreamFrom performs one streaming anti-entropy session against a
// specific address: the payload arrives in bounded chunks that apply as
// they arrive, so a connection drop mid-session leaves a consistent
// applied prefix behind and the next pull resumes from it for free (it
// re-ships nothing already applied). Durable nodes fall back to the
// ordinary pull, whose commit the write-ahead log captures atomically.
func (n *Node) PullStreamFrom(addr string) (bool, error) {
	if n.parted != nil {
		// Partitioned sessions already stream each oversized partition
		// through its own chunked session.
		return n.PullFrom(addr)
	}
	if n.dur != nil {
		return n.dur.PullFrom(addr)
	}
	return n.client.PullStream(n.replica, addr)
}

// SetChunkBytes overrides the node's server-side chunk payload budget for
// streamed sessions (0 restores the default). Exposed for tests and
// experiments that want many small chunks.
func (n *Node) SetChunkBytes(b uint64) { n.server.SetChunkBytes(b) }

// FetchOOB copies one item out-of-bound from a specific peer.
func (n *Node) FetchOOB(addr, key string) (bool, error) {
	if n.dpart != nil {
		return n.dpart.FetchOOB(addr, key)
	}
	if n.parted != nil {
		part := n.parted.Partition(n.parted.PartitionOf(key))
		if part == nil {
			return false, fmt.Errorf("cluster: %w", core.ErrNotOwner)
		}
		return n.client.FetchOOB(part, addr, key)
	}
	if n.dur != nil {
		return n.dur.FetchOOB(addr, key)
	}
	return n.client.FetchOOB(n.replica, addr, key)
}

// PoolStats returns the node's transport connection-pool counters.
func (n *Node) PoolStats() transport.PoolStats { return n.client.PoolStats() }

// WALStats returns the durable layer's group-commit accounting (fsyncs,
// batches, batch-size histogram); ok is false on a non-durable node. On a
// durable partitioned node the counters cover the shared committer, i.e.
// the whole node across partitions.
func (n *Node) WALStats() (st wal.CommitterStats, ok bool) {
	if n.dpart != nil {
		return n.dpart.WALStats(), true
	}
	if n.dur != nil {
		return n.dur.WALStats(), true
	}
	return wal.CommitterStats{}, false
}

// Close stops the anti-entropy loop, the pooled client and the server,
// snapshotting durable state.
func (n *Node) Close() error {
	close(n.stop)
	<-n.done
	n.client.Close()
	err := n.server.Close()
	if n.dur != nil {
		if derr := n.dur.Close(); derr != nil && err == nil {
			err = derr
		}
	}
	if n.dpart != nil {
		if derr := n.dpart.Close(); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// PruneOnce runs one log-pruning pass (every owned partition on a
// partitioned node), returning the number of records dropped. Durable nodes
// write-ahead log the pass so the watermark survives restarts.
func (n *Node) PruneOnce() int {
	if n.dpart != nil {
		// A WAL append failure leaves that partition's pass unrun; the next
		// tick retries.
		dropped, _ := n.dpart.Prune()
		return dropped
	}
	if n.parted != nil {
		return n.parted.Prune()
	}
	if n.dur != nil {
		// A WAL append failure leaves the pass unrun; the next tick retries.
		dropped, _ := n.dur.Prune()
		return dropped
	}
	return n.replica.Prune()
}

func (n *Node) loop() {
	defer close(n.done)
	var pull, prune <-chan time.Time
	if n.cfg.Interval > 0 {
		t := time.NewTicker(n.cfg.Interval)
		defer t.Stop()
		pull = t.C
	}
	if n.cfg.PruneInterval > 0 {
		t := time.NewTicker(n.cfg.PruneInterval)
		defer t.Stop()
		prune = t.C
	}
	for {
		select {
		case <-n.stop:
			return
		case <-pull:
			// Peer failures are expected in an epidemic system; the next
			// tick simply tries another peer.
			_, _ = n.PullOnce()
		case <-prune:
			n.PruneOnce()
		}
	}
}

// StartCluster starts n nodes on loopback with full-mesh peering. Intervals
// of zero leave scheduling to the caller.
func StartCluster(n int, interval time.Duration) ([]*Node, error) {
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := Start(Config{ID: i, Servers: n, Interval: interval})
		if err != nil {
			for _, prev := range nodes[:i] {
				prev.Close()
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

// Bootstrap brings a (re)joining partitioned node up to date by pulling
// from every configured peer once. Because a partitioned session offers
// only the partitions this node replicates, the join traffic is bounded by
// the node's own share of the keyspace — peers never ship partitions the
// ring does not place here. It returns the number of partitions that
// received data.
func (n *Node) Bootstrap() (int, error) {
	if n.parted == nil {
		return 0, fmt.Errorf("cluster: Bootstrap requires a partitioned node")
	}
	n.mu.Lock()
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()
	total := 0
	for _, addr := range peers {
		var shipped int
		var err error
		if n.dpart != nil {
			shipped, err = n.dpart.PullFrom(addr)
		} else {
			shipped, err = n.client.PullPart(n.parted, addr)
		}
		total += shipped
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// StartPartCluster starts n partitioned nodes on loopback with full-mesh
// peering: the keyspace splits into the given number of partitions, each
// placed on `placement` nodes (0 = every node).
func StartPartCluster(n, partitions, placement int, interval time.Duration) ([]*Node, error) {
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := Start(Config{ID: i, Servers: n, Interval: interval, Partitions: partitions, Placement: placement})
		if err != nil {
			for _, prev := range nodes[:i] {
				prev.Close()
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

// CloseAll closes every node, returning the first error.
func CloseAll(nodes []*Node) error {
	var first error
	for _, n := range nodes {
		if err := n.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Converged reports whether all nodes agree: identical replicas on an
// unpartitioned cluster, identical per-partition replicas across each
// partition's owners on a partitioned one.
func Converged(nodes []*Node) (bool, string) {
	if len(nodes) > 0 && nodes[0].parted != nil {
		parts := make([]*core.Partitioned, len(nodes))
		for i, n := range nodes {
			if n.parted == nil {
				return false, fmt.Sprintf("node %d is unpartitioned in a partitioned cluster", n.cfg.ID)
			}
			parts[i] = n.parted
		}
		return core.PartConverged(parts...)
	}
	replicas := make([]*core.Replica, len(nodes))
	for i, n := range nodes {
		replicas[i] = n.Replica()
	}
	return core.Converged(replicas...)
}
