// Package ring implements the consistent-hash token ring that splits the
// keyspace into partitions and places each partition on a subset of the
// servers (N-way placement).
//
// Keyspace partitions are the unit of partial replication: each partition
// carries its own DBVV and log vector (internal/core), so an anti-entropy
// session between two nodes negotiates the partitions both replicate and
// runs the paper's O(1) identical-replica check per shared partition. The
// ring answers the two questions that make that possible:
//
//   - PartitionOf(key): which keyspace partition does a key live in? This
//     depends only on the key and the partition count, never on the server
//     set, so every node (and every restart) maps keys identically.
//   - Owners(pid): which servers replicate a partition? Each server
//     projects a fixed set of virtual-node tokens onto the ring (a pure
//     function of its id), and a partition is owned by the first N
//     distinct servers clockwise from the partition's range start. Adding
//     a server moves only the partitions whose successor walk now meets
//     the new server's tokens — ownership churn is O(P·N/n), not a full
//     reshuffle.
//
// Everything is deterministic: the same (servers, partitions, placement)
// triple builds byte-identical rings on every node, so placement needs no
// coordination or gossip. Hashing is FNV-1a shared with the store's shard
// striping; the ring passes it through a splitmix64 finalizer before
// taking the high bits for the partition range (see Mix64), while the
// shard index uses the raw hash's low bits — the two stripings stay
// independent.
package ring

import "sort"

// FNV-1a parameters, identical to hash/fnv — inlined so the hot key-to-
// partition mapping needs no hasher allocation.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash64 returns the FNV-1a hash of key. internal/store uses its low bits
// for the shard index; the ring finalizes it with Mix64 and uses the high
// bits for the partition, so a partition's items still spread across all
// shards.
func Hash64(key string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// vnodesPerServer is the number of tokens each server projects onto the
// ring. More tokens smooth placement (each server's share of the ring
// concentrates around 1/n) at a linear construction cost; 64 keeps the
// 800-server table cases in the tests well-balanced.
const vnodesPerServer = 64

// token is one virtual node on the ring.
type token struct {
	hash   uint64
	server int
}

// Ring is an immutable placement table: the token ring of a fixed server
// set, partition count and placement factor. Build one with New and share
// it freely; all methods are read-only.
type Ring struct {
	servers    int
	partitions int
	placement  int
	width      uint64  // partition range width: ~2^64 / partitions
	tokens     []token // sorted by (hash, server)
	owners     [][]int // per-partition owner servers, successor order
	ownedBy    [][]int // per-server owned partition ids, ascending
}

// New builds the ring for n servers, p partitions and N-way placement.
// Placement is clamped to the server count (a 3-node cluster with
// placement 4 fully replicates). New panics on a non-positive server or
// partition count — a configuration error, not a runtime condition.
func New(servers, partitions, placement int) *Ring {
	if servers <= 0 {
		panic("ring: server count must be positive")
	}
	if partitions <= 0 {
		panic("ring: partition count must be positive")
	}
	if placement <= 0 {
		placement = 1
	}
	if placement > servers {
		placement = servers
	}
	r := &Ring{
		servers:    servers,
		partitions: partitions,
		placement:  placement,
		width:      ^uint64(0)/uint64(partitions) + 1,
		tokens:     make([]token, 0, servers*vnodesPerServer),
	}
	for s := 0; s < servers; s++ {
		for v := 0; v < vnodesPerServer; v++ {
			r.tokens = append(r.tokens, token{hash: serverToken(s, v), server: s})
		}
	}
	sort.Slice(r.tokens, func(i, j int) bool {
		if r.tokens[i].hash != r.tokens[j].hash {
			return r.tokens[i].hash < r.tokens[j].hash
		}
		return r.tokens[i].server < r.tokens[j].server
	})
	r.owners = make([][]int, partitions)
	r.ownedBy = make([][]int, servers)
	for pid := 0; pid < partitions; pid++ {
		r.owners[pid] = r.successors(uint64(pid) * r.width)
		for _, s := range r.owners[pid] {
			r.ownedBy[s] = append(r.ownedBy[s], pid)
		}
	}
	return r
}

// Mix64 is the splitmix64 finalizer: full-avalanche diffusion of every
// input bit into every output bit. FNV-1a needs it before its high bits
// are usable — the multiply-only update propagates a byte's influence
// upward by only ~40 bits per step, so the top bits of short keys that
// differ near the end (item/0001 vs item/0002) are identical and a
// high-bits partition split would collapse them into one partition.
// internal/core finalizes its reconcile item digests with it too.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// serverToken derives virtual node v of server s — a pure function of
// (s, v), so a server's tokens never move when other servers join or
// leave. The finalizer matters here too: the inputs are tiny structured
// integers, badly mixed on their own, and the ring position sorts on
// the full hash.
func serverToken(s, v int) uint64 {
	x := uint64(uint32(s))<<32 | uint64(uint32(v))
	return Mix64(x + 0x9e3779b97f4a7c15)
}

// successors walks the ring clockwise from start collecting the first
// `placement` distinct servers.
func (r *Ring) successors(start uint64) []int {
	owners := make([]int, 0, r.placement)
	seen := make(map[int]bool, r.placement)
	i := sort.Search(len(r.tokens), func(i int) bool { return r.tokens[i].hash >= start })
	for scanned := 0; scanned < len(r.tokens) && len(owners) < r.placement; scanned++ {
		t := r.tokens[(i+scanned)%len(r.tokens)]
		if !seen[t.server] {
			seen[t.server] = true
			owners = append(owners, t.server)
		}
	}
	return owners
}

// Servers returns the server count the ring was built for.
func (r *Ring) Servers() int { return r.servers }

// Partitions returns the keyspace partition count.
func (r *Ring) Partitions() int { return r.partitions }

// Placement returns the effective placement factor (clamped to the server
// count).
func (r *Ring) Placement() int { return r.placement }

// PartitionOf returns the keyspace partition of key: the token range its
// hash falls in. The mapping depends only on the key and the partition
// count, so it is identical on every node and across restarts.
func (r *Ring) PartitionOf(key string) int {
	if r.partitions == 1 {
		// A single partition covers the whole ring; the width computation
		// 2^64/1 overflows uint64 (it stores as 0), so short-circuit.
		return 0
	}
	return int(Mix64(Hash64(key)) / r.width)
}

// Owners returns the servers replicating partition pid, in successor
// (walk) order. The returned slice is shared; callers must not mutate it.
func (r *Ring) Owners(pid int) []int { return r.owners[pid] }

// Owns reports whether server s replicates partition pid.
func (r *Ring) Owns(s, pid int) bool {
	if pid < 0 || pid >= r.partitions {
		return false
	}
	for _, o := range r.owners[pid] {
		if o == s {
			return true
		}
	}
	return false
}

// OwnedBy returns the partitions server s replicates, in ascending id
// order — the order every multi-partition lock sweep and session walk
// uses. The returned slice is shared; callers must not mutate it.
func (r *Ring) OwnedBy(s int) []int { return r.ownedBy[s] }

// Shared returns the partitions both a and b replicate, ascending: the
// partition set an anti-entropy session between them negotiates. Peers
// sharing nothing get an empty set and a session that touches no data.
func (r *Ring) Shared(a, b int) []int {
	pa, pb := r.ownedBy[a], r.ownedBy[b]
	shared := make([]int, 0, min(len(pa), len(pb)))
	for i, j := 0, 0; i < len(pa) && j < len(pb); {
		switch {
		case pa[i] < pb[j]:
			i++
		case pa[i] > pb[j]:
			j++
		default:
			shared = append(shared, pa[i])
			i++
			j++
		}
	}
	return shared
}
