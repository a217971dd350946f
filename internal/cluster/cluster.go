// Package cluster runs live replica nodes: each node is a core.Partitioned
// served over TCP (internal/transport) plus a background anti-entropy loop
// that periodically pulls from a randomly chosen peer — the deployment
// shape the paper assumes (§1: "update propagation can be done at a
// convenient time"). Every node has this one shape: a fully replicated
// node is the one-partition case, whose single partition carries the
// paper's one DBVV for the whole database.
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
	// Partitions splits the keyspace into that many token-ring partitions,
	// each with its own DBVV and log vector, and the node replicates only
	// the partitions the ring places on it. Zero or one is a single
	// partition on every server: full replication, the paper's one DBVV
	// per replica.
	Partitions int
	// Placement is the number of owners per keyspace partition when
	// Partitions > 1. Zero defaults to Servers (full placement: every node
	// replicates every partition, but sessions still negotiate and skip
	// per partition). It is ignored at one partition, which every server
	// owns.
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

// Node is one live server: its partitioned replica, its TCP server and its
// anti-entropy scheduler.
type Node struct {
	cfg    Config               //epi:immutable
	parted *core.Partitioned    //epi:immutable
	dpart  *durable.Partitioned //epi:immutable non-nil when DataDir is set
	server *transport.Server    //epi:immutable
	client *transport.Client    //epi:immutable pooled: sessions reuse warm peer connections
	// sinks[pid] is what a pull commits partition pid into (nil where the
	// node does not replicate it): the durable replicas on a durable node,
	// in-memory adapters otherwise.
	sinks []core.Sink //epi:immutable

	mu    sync.Mutex
	peers []string //epi:guard mu
	// pullErr is the last error of a background pull; pullFailures counts
	// them.
	pullErr      error  //epi:guard mu
	pullFailures uint64 //epi:guard mu

	stop chan struct{} //epi:immutable closed once by Stop; channels synchronize themselves
	done chan struct{} //epi:immutable closed once by the loop goroutine
	rng  *rand.Rand    //epi:guard mu peer selection happens under the peers lock
}

// Start creates the node's replicas, begins serving, and (when configured
// with an interval) starts the anti-entropy loop.
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
	partitions, placement := max(1, cfg.Partitions), cfg.Placement
	if placement == 0 || partitions == 1 {
		placement = cfg.Servers
	}
	if cfg.DataDir != "" {
		// One WAL + checkpoint chain per owned partition under
		// DataDir/part-NNNN/, all sharing one group committer so concurrent
		// partitions amortize into shared fsyncs.
		dp, err := durable.OpenPartitioned(cfg.DataDir, cfg.ID, cfg.Servers, partitions, placement, cfg.DurableOptions)
		if err != nil {
			return nil, err
		}
		n.dpart = dp
		n.parted = dp.Parted()
	} else {
		n.parted = core.NewPartitioned(cfg.ID, cfg.Servers, partitions, placement)
	}
	n.sinks = make([]core.Sink, partitions)
	for _, pid := range n.parted.Owned() {
		if n.dpart != nil {
			n.sinks[pid] = n.dpart.Partition(pid)
		} else {
			n.sinks[pid] = core.InMemory(n.parted.Partition(pid))
		}
	}
	// Each partition's pruning is gated by its own ring owners — the only
	// peers whose sessions can ever need its records; at one partition,
	// every other server.
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
}

// Replica exposes the replica of a fully replicated node (one partition)
// for local operations. It is nil on a node with more partitions, whose
// state lives in per-partition replicas — use Parted there.
func (n *Node) Replica() *core.Replica {
	if n.parted.Ring().Partitions() != 1 {
		return nil
	}
	return n.parted.Partition(0)
}

// Parted exposes the node's partitioned control plane.
func (n *Node) Parted() *core.Partitioned { return n.parted }

// Metrics returns the node's protocol counters: the aggregate across its
// partitions plus the node-level wire accounting. On a durable node the
// WAL* and GroupCommitWaiters fields are filled from the group committer's
// accounting at call time; the hot durable write path never charges a
// Counters value itself.
func (n *Node) Metrics() metrics.Counters {
	m := n.parted.Metrics()
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
	return n.parted.Update(key, o)
}

// Read returns the node's current value for key. A key outside the node's
// owned partitions reads as absent.
func (n *Node) Read(key string) ([]byte, bool) { return n.parted.Read(key) }

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

// PullFrom performs one anti-entropy session against a specific address:
// one exchange negotiates every partition the node replicates, and a
// partition whose payload exceeds the monolithic cap drains through its own
// chunked session. Sessions go through the node's pooled client, so repeat
// pulls from the same peer ride one warm framed connection, and concurrent
// sessions to distinct peers proceed in parallel over their own
// connections.
func (n *Node) PullFrom(addr string) (bool, error) {
	shipped, err := n.client.PullPart(n.parted, n.sinks, addr)
	return shipped > 0, err
}

// SetChunkBytes overrides the node's server-side chunk payload budget for
// streamed sessions (0 restores the default). Exposed for tests and
// experiments that want many small chunks.
func (n *Node) SetChunkBytes(b uint64) { n.server.SetChunkBytes(b) }

// FetchOOB copies one item out-of-bound from a specific peer.
func (n *Node) FetchOOB(addr, key string) (bool, error) {
	sink := n.sinks[n.parted.PartitionOf(key)]
	if sink == nil {
		return false, fmt.Errorf("cluster: %w", core.ErrNotOwner)
	}
	return n.client.FetchOOB(sink, addr, key)
}

// PullFailures returns how many of the anti-entropy loop's pulls failed,
// and the last failure's error (nil when none has).
func (n *Node) PullFailures() (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pullFailures, n.pullErr
}

// PoolStats returns the node's transport connection-pool counters.
func (n *Node) PoolStats() transport.PoolStats { return n.client.PoolStats() }

// WALStats returns the durable layer's group-commit accounting (fsyncs,
// batches, batch-size histogram); ok is false on a non-durable node. The
// counters cover the shared committer, i.e. the whole node across
// partitions.
func (n *Node) WALStats() (st wal.CommitterStats, ok bool) {
	if n.dpart == nil {
		return wal.CommitterStats{}, false
	}
	return n.dpart.WALStats(), true
}

// Close stops the anti-entropy loop, the pooled client and the server,
// checkpointing durable state.
func (n *Node) Close() error {
	close(n.stop)
	<-n.done
	n.client.Close()
	err := n.server.Close()
	if n.dpart != nil {
		if derr := n.dpart.Close(); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// PruneOnce runs one log-pruning pass over every owned partition,
// returning the number of records dropped. Durable nodes write-ahead log
// the pass so the watermark survives restarts.
func (n *Node) PruneOnce() int {
	if n.dpart != nil {
		// A WAL append failure leaves that partition's pass unrun; the next
		// tick retries.
		dropped, _ := n.dpart.Prune()
		return dropped
	}
	return n.parted.Prune()
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
			// tick simply tries another peer. They are counted, and the
			// last one kept, so a node that cannot pull is visible.
			if _, err := n.PullOnce(); err != nil {
				n.mu.Lock()
				n.pullFailures++
				n.pullErr = err
				n.mu.Unlock()
			}
		case <-prune:
			n.PruneOnce()
		}
	}
}

// StartCluster starts n fully replicated nodes on loopback with full-mesh
// peering. Intervals of zero leave scheduling to the caller.
func StartCluster(n int, interval time.Duration) ([]*Node, error) {
	return StartPartCluster(n, 1, 0, interval)
}

// Bootstrap brings a (re)joining node up to date by pulling from every
// configured peer once. Because a session offers only the partitions this
// node replicates, the join traffic is bounded by the node's own share of
// the keyspace — peers never ship partitions the ring does not place here.
// It returns the number of partitions that received data.
func (n *Node) Bootstrap() (int, error) {
	n.mu.Lock()
	peers := append([]string(nil), n.peers...)
	n.mu.Unlock()
	total := 0
	for _, addr := range peers {
		shipped, err := n.client.PullPart(n.parted, n.sinks, addr)
		total += shipped
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// StartPartCluster starts n nodes on loopback with full-mesh peering: the
// keyspace splits into the given number of partitions, each placed on
// `placement` nodes (0 = every node).
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

// Converged reports whether all nodes agree: identical per-partition
// replicas across each partition's owners.
func Converged(nodes []*Node) (bool, string) {
	parts := make([]*core.Partitioned, len(nodes))
	for i, n := range nodes {
		parts[i] = n.parted
	}
	return core.PartConverged(parts...)
}
