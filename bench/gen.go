package main

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/ring"
	"repro/internal/workload"
)

const (
	valueSize = 128
	poolSize  = 1024
)

// inputs is everything a workload feeds the system, generated from the seed
// before any node starts: the same seed gives the same keys in the same
// order with the same values.
//
// Writers never share a key: item i belongs to lane i mod lanes for the
// whole run. The protocol detects write-write conflicts but does not
// resolve them, so two origins updating one item concurrently never
// converge; disjoint key sets are the paper's token regime and the only
// one in which "visible at every owner" is reached.
type inputs struct {
	spec  workloadSpec
	keys  []string  // keys[i] names item i
	pool  [][]byte  // value fillers; a write stamps its own first 8 bytes
	seqs  [][]int32 // per lane: the item indices it writes, in order
	reads []int32   // item indices the reader lane reads, in order
	ring  *ring.Ring
}

// generate builds the inputs of one workload.
func generate(spec workloadSpec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: spec, keys: make([]string, spec.items)}
	for i := range in.keys {
		in.keys[i] = workload.Key(i)
	}
	in.pool = make([][]byte, poolSize)
	for i := range in.pool {
		in.pool[i] = make([]byte, valueSize)
		rng.Read(in.pool[i])
	}
	if spec.shape.partitions > 1 {
		in.ring = ring.New(spec.shape.nodes, spec.shape.partitions, spec.shape.placement)
	}
	in.seqs = make([][]int32, spec.lanes)
	for lane := range in.seqs {
		// The items this lane may write: its residue class, and on a
		// partitioned cluster only those its node owns (a node refuses
		// writes to partitions the ring does not place on it).
		var mine []int32
		for i := lane; i < spec.items; i += spec.lanes {
			if in.ring == nil || in.ring.Owns(lane, in.ring.PartitionOf(in.keys[i])) {
				mine = append(mine, int32(i))
			}
		}
		if spec.burst > 0 {
			in.seqs[lane] = distinctWindows(rng, mine, spec.burst)
		} else {
			in.seqs[lane] = zipfSeq(rng, mine, 1<<17)
		}
	}
	in.reads = make([]int32, 1<<16)
	for i := range in.reads {
		in.reads[i] = int32(rng.Intn(spec.items))
	}
	return in
}

// zipfSeq draws n item indices from pool with zipf(1.1) popularity, the
// pool's first entry the most popular.
func zipfSeq(rng *rand.Rand, pool []int32, n int) []int32 {
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out
}

// distinctWindows returns a sequence in which every aligned window of
// `burst` entries holds distinct items drawn uniformly: a few shuffles of
// the pool laid end to end, each cut to a whole number of windows. The
// catch-up workloads cycle through it, one window per round.
func distinctWindows(rng *rand.Rand, pool []int32, burst int) []int32 {
	const shuffles = 10
	perShuffle := len(pool) / burst * burst
	out := make([]int32, 0, shuffles*perShuffle)
	perm := append([]int32(nil), pool...)
	for s := 0; s < shuffles; s++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		out = append(out, perm[:perShuffle]...)
	}
	return out
}

// Value stamps. A write's value is one pool filler with its first 8 bytes
// replaced by a stamp that is unique per write, so the last value of every
// key can be rebuilt for verification from the stamp alone.
const preloadStamp = uint64(1) << 62

func laneStamp(lane, n int) uint64 { return uint64(lane+1)<<48 | uint64(n) }

// fillValue writes the value for stamp into buf (len valueSize).
func (in *inputs) fillValue(buf []byte, stamp uint64) {
	copy(buf, in.pool[stamp%poolSize])
	binary.LittleEndian.PutUint64(buf, stamp)
}
