package core

// Keyspace partitioning: consistent-hash token ranges with per-partition
// DBVVs, so anti-entropy cost scales with the data two nodes share rather
// than with the whole database.
//
// A Partitioned node is a composition: one independent Replica — DBVV, log
// vector, auxiliary log, sharded store — per keyspace partition this node
// replicates, with a ring (internal/ring) mapping keys to partitions and
// partitions to owner nodes. Every protocol property then holds per
// partition by construction: the O(1) identical-replica check becomes one
// DBVV comparison per *shared* partition, a clean partition is skipped
// without touching a single item, and a dirty partition runs the ordinary
// monolithic or streaming session over just its own items. With one
// partition owned by everyone, the node degenerates to exactly the
// unpartitioned protocol.
//
// Lock order extends DESIGN.md §4c by one outer level: within a partition
// the order is unchanged (shard locks ascending, then the control mutex);
// across partitions of one node, any multi-partition sweep acquires
// partition locks in ascending pid order and no partition's locks are ever
// taken while a *different node's* locks are held. Anti-entropy between two
// partitioned nodes visits shared partitions one at a time and each
// per-partition session takes the two replicas' locks one node at a time,
// so every pairing schedule stays deadlock-free.

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/op"
	"repro/internal/ring"
	"repro/internal/vv"
)

// ErrNotOwner reports a key routed to a partition this node does not
// replicate. The wrapped error text names the partition and its owners so a
// client can redirect.
var ErrNotOwner = errors.New("core: node does not replicate the key's partition")

// Partitioned is one node's replicas of the keyspace partitions it owns.
// Each owned partition is a full, independent Replica; non-owned slots are
// nil. All methods are safe for concurrent use.
type Partitioned struct {
	id   int        //epi:immutable
	ring *ring.Ring //epi:immutable
	// parts is indexed by partition id; nil marks a partition this node
	// does not replicate. The slice and its pointers are immutable after
	// construction — all mutability lives inside each Replica.
	parts []*Replica //epi:immutable

	// met holds node-level accounting that has no single home partition:
	// measured transport traffic (AddWireStats). Folded into Metrics.
	met metrics.Atomic //epi:guard atomic
}

// NewPartitioned returns the initial state of node id in a cluster of
// `servers` nodes whose keyspace is split into `partitions` token ranges,
// each replicated on `placement` nodes (clamped to the cluster size). Every
// owned partition starts as an empty Replica configured with opts; each
// partition's version vectors span all `servers` ids, so placement changes
// never renumber components. Panics on non-positive servers or partitions
// or an out-of-range id, mirroring NewReplica.
func NewPartitioned(id, servers, partitions, placement int, opts ...Option) *Partitioned {
	if id < 0 || id >= servers {
		panic(fmt.Sprintf("core: invalid node id %d of %d", id, servers))
	}
	rg := ring.New(servers, partitions, placement)
	pr := &Partitioned{
		id:    id,
		ring:  rg,
		parts: make([]*Replica, partitions),
	}
	for _, pid := range rg.OwnedBy(id) {
		pr.parts[pid] = NewReplica(id, servers, opts...)
	}
	return pr
}

// RestorePartitioned rebuilds node id's partitioned state from recovered
// per-partition replicas (a durable layer's crash recovery). The ring is
// reconstructed from the cluster shape exactly as NewPartitioned builds it;
// every recovered entry must be a partition the ring places on this node and
// must span the same id/servers, and owned partitions without a recovered
// replica start empty with opts. The recovered map is read once and not
// retained.
func RestorePartitioned(id, servers, partitions, placement int, recovered map[int]*Replica, opts ...Option) (*Partitioned, error) {
	if servers <= 0 || id < 0 || id >= servers {
		return nil, fmt.Errorf("core: invalid node id %d of %d", id, servers)
	}
	rg := ring.New(servers, partitions, placement)
	pr := &Partitioned{
		id:    id,
		ring:  rg,
		parts: make([]*Replica, partitions),
	}
	installed := 0
	for _, pid := range rg.OwnedBy(id) {
		r, ok := recovered[pid]
		if !ok {
			pr.parts[pid] = NewReplica(id, servers, opts...)
			continue
		}
		if r == nil {
			return nil, fmt.Errorf("core: recovered partition %d is nil", pid)
		}
		if r.ID() != id || r.Servers() != servers {
			return nil, fmt.Errorf("core: recovered partition %d holds replica %d/%d, want %d/%d",
				pid, r.ID(), r.Servers(), id, servers)
		}
		pr.parts[pid] = r
		installed++
	}
	if installed != len(recovered) {
		for pid := range recovered {
			if !rg.Owns(id, pid) {
				return nil, fmt.Errorf("core: recovered partition %d is not placed on node %d by the ring", pid, id)
			}
		}
	}
	return pr, nil
}

// ID returns the node identifier.
func (pr *Partitioned) ID() int { return pr.id }

// Ring returns the node's (immutable) keyspace ring.
func (pr *Partitioned) Ring() *ring.Ring { return pr.ring }

// Owned returns the partition ids this node replicates, ascending. The
// slice is shared; callers must not mutate it.
func (pr *Partitioned) Owned() []int { return pr.ring.OwnedBy(pr.id) }

// Partition returns the replica for partition pid, or nil when this node
// does not replicate it.
func (pr *Partitioned) Partition(pid int) *Replica {
	if pid < 0 || pid >= len(pr.parts) {
		return nil
	}
	return pr.parts[pid]
}

// PartitionOf returns the partition id key belongs to.
func (pr *Partitioned) PartitionOf(key string) int { return pr.ring.PartitionOf(key) }

// OwnsKey reports whether this node replicates key's partition.
func (pr *Partitioned) OwnsKey(key string) bool {
	return pr.parts[pr.ring.PartitionOf(key)] != nil
}

// Update applies a user update to key's partition replica, or rejects it
// with ErrNotOwner when this node does not replicate that partition —
// partial replication makes non-owned writes a routing error, not a silent
// relay.
func (pr *Partitioned) Update(key string, o op.Op) error {
	pid := pr.ring.PartitionOf(key)
	part := pr.parts[pid]
	if part == nil {
		return fmt.Errorf("%w: key %q is in partition %d, owned by nodes %v",
			ErrNotOwner, key, pid, pr.ring.Owners(pid))
	}
	return part.Update(key, o)
}

// Read returns the value for key and whether it exists here. A key in a
// partition this node does not replicate reads as absent (use OwnsKey to
// distinguish absence from non-ownership).
func (pr *Partitioned) Read(key string) ([]byte, bool) {
	part := pr.parts[pr.ring.PartitionOf(key)]
	if part == nil {
		return nil, false
	}
	return part.Read(key)
}

// ReadIVV returns the version vector matching Read's value.
func (pr *Partitioned) ReadIVV(key string) (vv.VV, bool) {
	part := pr.parts[pr.ring.PartitionOf(key)]
	if part == nil {
		return nil, false
	}
	return part.ReadIVV(key)
}

// PartState is one entry of a partitioned session's negotiation: the
// recipient's DBVV for one partition it replicates.
//
//epi:notshared value snapshot of one partition returned to one caller
type PartState struct {
	Pid  int
	DBVV vv.VV
}

// PartRequest begins a partitioned propagation session at the recipient: it
// returns the (pid, DBVV) pair for every partition this node replicates,
// ascending by pid. The recipient does not know which of these the source
// replicates, so it offers all of them; the source intersects with its own
// owned set and answers each shared entry independently (current / payload
// / stream), leaving the rest unowned. Charges each partition's request
// accounting exactly as an unpartitioned session would.
func (pr *Partitioned) PartRequest() []PartState {
	out := make([]PartState, 0, len(pr.Owned()))
	for i := range pr.parts {
		if pr.parts[i] == nil {
			continue
		}
		out = append(out, PartState{Pid: i, DBVV: pr.parts[i].PropagationRequest()})
	}
	return out
}

// rlockParts takes a node-wide consistent read view: every owned
// partition's all-shard read sweep plus control mutex, in ascending pid
// order (the §4c lock-order extension). Pair with runlockParts.
func (pr *Partitioned) rlockParts() {
	for i := range pr.parts {
		if pr.parts[i] == nil {
			continue
		}
		pr.parts[i].rlockAll()
	}
}

func (pr *Partitioned) runlockParts() {
	for i := range pr.parts {
		if pr.parts[i] == nil {
			continue
		}
		pr.parts[i].runlockAll()
	}
}

// Snapshot captures every owned partition's state, ascending by pid, under
// one node-wide read sweep — the per-partition cuts are mutually
// consistent, so cross-partition totals (item counts, update sums) are
// exact even while updates race. The protocol itself never needs this
// (partitions are independent instances); tests and tools do.
func (pr *Partitioned) Snapshot() []Snapshot {
	pr.rlockParts()
	defer pr.runlockParts()
	out := make([]Snapshot, 0, len(pr.Owned()))
	for i := range pr.parts {
		if pr.parts[i] == nil {
			continue
		}
		out = append(out, pr.parts[i].snapshotLocked())
	}
	return out
}

// Metrics returns the node's overhead counters: the sum over all owned
// partitions plus node-level wire accounting. Gauges merge by maximum.
func (pr *Partitioned) Metrics() metrics.Counters {
	agg := pr.met.Snapshot()
	for i := range pr.parts {
		if pr.parts[i] == nil {
			continue
		}
		c := pr.parts[i].Metrics()
		agg.Add(&c)
	}
	return agg
}

// AddWireStats charges measured transport traffic to the node. Partitioned
// exchanges multiplex every partition over one connection, so socket-level
// byte counts have no single home partition; they accumulate node-level and
// appear in Metrics alongside the per-partition protocol counters.
func (pr *Partitioned) AddWireStats(sent, recv, dials, reused uint64) {
	pr.met.WireBytesSent.Add(sent)
	pr.met.WireBytesRecv.Add(recv)
	pr.met.Dials.Add(dials)
	pr.met.ConnsReused.Add(reused)
}

// ResetMetrics zeroes the node's counters, partition and node level.
func (pr *Partitioned) ResetMetrics() {
	pr.met.Reset()
	for i := range pr.parts {
		if pr.parts[i] == nil {
			continue
		}
		pr.parts[i].ResetMetrics()
	}
}

// Items returns the total number of data items across owned partitions.
func (pr *Partitioned) Items() int {
	n := 0
	for i := range pr.parts {
		if pr.parts[i] == nil {
			continue
		}
		n += pr.parts[i].Items()
	}
	return n
}

// Conflicts returns the conflicts recorded across owned partitions,
// ascending by pid.
func (pr *Partitioned) Conflicts() []Conflict {
	var out []Conflict
	for i := range pr.parts {
		if pr.parts[i] == nil {
			continue
		}
		out = append(out, pr.parts[i].Conflicts()...)
	}
	return out
}

// CheckInvariants verifies every owned partition's protocol invariants plus
// the routing invariant partitioning adds: every item stored in partition
// pid's replica hashes to pid. A violation means a write or an adopted
// propagation bypassed ring routing.
func (pr *Partitioned) CheckInvariants() error {
	for i := range pr.parts {
		if pr.parts[i] == nil {
			continue
		}
		if err := pr.parts[i].CheckInvariants(); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		for _, it := range pr.parts[i].Snapshot().Items {
			if got := pr.ring.PartitionOf(it.Key); got != i {
				return fmt.Errorf("core: node %d partition %d holds %q, which hashes to partition %d",
					pr.id, i, it.Key, got)
			}
		}
	}
	return nil
}

// sameRing panics unless two nodes were built against compatible cluster
// shapes — a mixed-configuration session would silently misroute
// partitions. The partition counts must agree, and above one partition so
// must the servers and placement. A one-partition ring places its partition
// on every server whatever their number, so nodes on either side of a Grow
// stay compatible.
func sameRing(a, b *Partitioned) {
	if a.ring.Partitions() != b.ring.Partitions() ||
		a.ring.Partitions() > 1 && (a.ring.Servers() != b.ring.Servers() ||
			a.ring.Placement() != b.ring.Placement()) {
		panic(fmt.Sprintf("core: ring mismatch between nodes %d (%d/%d/%d) and %d (%d/%d/%d)",
			a.id, a.ring.Servers(), a.ring.Partitions(), a.ring.Placement(),
			b.id, b.ring.Servers(), b.ring.Partitions(), b.ring.Placement()))
	}
}

// PartConverged reports whether, for every partition, all of its owner
// replicas among the given nodes are pairwise equivalent. Nodes must share
// a ring configuration; on failure the description names the partition.
func PartConverged(nodes ...*Partitioned) (bool, string) {
	if len(nodes) < 2 {
		return true, ""
	}
	for _, n := range nodes[1:] {
		sameRing(nodes[0], n)
	}
	for pid := 0; pid < nodes[0].ring.Partitions(); pid++ {
		var owners []*Replica
		for _, n := range nodes {
			if n.parts[pid] != nil {
				owners = append(owners, n.parts[pid])
			}
		}
		if ok, why := Converged(owners...); !ok {
			return false, fmt.Sprintf("partition %d: %s", pid, why)
		}
	}
	return true, ""
}
