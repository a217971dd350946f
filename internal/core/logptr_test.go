package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/op"
	"repro/internal/vv"
)

// TestLogPointersRandomized drives small replica groups through random
// schedules of every path that makes, supersedes or drops a log record —
// updates, monolithic and streamed applies, out-of-bound copies with their
// intra-node replay, pruning under a log cap, a snapshot restore and
// server-set growth — and checks after every step, on every replica, that
// the P_j(x) pointers on the items and the records in the components
// agree both ways (CheckInvariants). An item is updated by any replica
// whose current copy is the newest one anywhere, so writers hand items
// over without conflicts, and a writer holding an auxiliary copy makes an
// update that intra-node propagation later replays. Each path must have
// acted at least once over the 60 seeds, no conflict may arise, and every
// group converges once the schedule ends.
func TestLogPointersRandomized(t *testing.T) {
	const seeds, steps, items, maxServers = 60, 160, 12, 5
	acted := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var opts []Option
		if seed%3 == 0 {
			opts = append(opts, WithDeltaPropagationDepth(2))
		}
		reps := make([]*Replica, 3)
		for i := range reps {
			reps[i] = NewReplica(i, len(reps), opts...)
			reps[i].ConfigurePruning([]int{0, 1, 2})
		}
		itemKey := func(i int) string { return fmt.Sprintf("x%02d", i) }
		pair := func() (*Replica, *Replica) {
			a := rng.Intn(len(reps))
			b := (a + 1 + rng.Intn(len(reps)-1)) % len(reps)
			return reps[a], reps[b]
		}
		for step := 0; step < steps; step++ {
			var path string
			replayed := auxOpsReplayed(reps)
			switch c := rng.Intn(20); {
			case c < 7:
				path = "update"
				k := itemKey(rng.Intn(items))
				ws := newestCopies(reps, k)
				if err := ws[rng.Intn(len(ws))].Update(k, op.NewAppend([]byte{byte(step)})); err != nil {
					t.Fatal(err)
				}
				acted[path]++
			case c < 10:
				path = "monolithic apply"
				dst, src := pair()
				if AntiEntropy(dst, src) {
					acted[path]++
				}
			case c < 12:
				path = "streamed apply"
				dst, src := pair()
				before := dst.Metrics().ChunksApplied
				streamAntiEntropy(dst, src, 48)
				if dst.Metrics().ChunksApplied > before {
					acted[path]++
				}
			case c < 14:
				path = "out-of-bound copy"
				dst, src := pair()
				if dst.CopyOutOfBound(itemKey(rng.Intn(items)), src) {
					acted[path]++
				}
				dst.RunIntraNodePropagation()
			case c < 17:
				path = "prune"
				r := reps[rng.Intn(len(reps))]
				r.SetLogCap(1 + rng.Intn(3))
				if r.Prune() > 0 {
					acted[path]++
				}
			case c < 19:
				path = "snapshot restore"
				i := rng.Intn(len(reps))
				reps[i] = roundTripStateFuzz(t, reps[i])
				acted[path]++
			default:
				path = "growth"
				if len(reps) == maxServers {
					continue
				}
				n := len(reps) + 1
				reps[rng.Intn(len(reps))].Grow(n)
				reps = append(reps, NewReplica(n-1, n, opts...))
				acted[path]++
			}
			if path != "snapshot restore" && auxOpsReplayed(reps) > replayed {
				acted["intra-node replay"]++
			}
			for _, r := range reps {
				if err := r.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d (%s): %v", seed, step, path, err)
				}
				if c := r.Conflicts(); len(c) > 0 {
					t.Fatalf("seed %d step %d (%s): conflict %v", seed, step, path, c[0])
				}
			}
		}
		for round := 0; round < 3*len(reps); round++ {
			for i := range reps {
				AntiEntropy(reps[i], reps[(i+1)%len(reps)])
				reps[i].RunIntraNodePropagation()
			}
		}
		if ok, why := Converged(reps...); !ok {
			t.Fatalf("seed %d: no convergence: %s", seed, why)
		}
	}
	for _, path := range []string{"update", "monolithic apply", "streamed apply", "out-of-bound copy", "intra-node replay", "prune", "snapshot restore", "growth"} {
		if acted[path] == 0 {
			t.Errorf("no step took the %s path", path)
		}
	}
	t.Logf("steps that acted: %v", acted)
}

// newestCopies returns the replicas whose current copy of key (auxiliary
// copy included) is at least as new as every other replica's: the ones
// that may update key without making a conflict.
func newestCopies(reps []*Replica, key string) []*Replica {
	ivvs := make([]vv.VV, len(reps))
	var newest vv.VV
	for i, r := range reps {
		ivvs[i], _ = r.ReadIVV(key)
		if ivvs[i].DominatesOrEqual(newest) {
			newest = ivvs[i]
		}
	}
	var out []*Replica
	for i, r := range reps {
		if ivvs[i].DominatesOrEqual(newest) {
			out = append(out, r)
		}
	}
	return out
}

// auxOpsReplayed sums the auxiliary updates the replicas have replayed.
func auxOpsReplayed(reps []*Replica) uint64 {
	var n uint64
	for _, r := range reps {
		n += r.Metrics().AuxOpsReplayed
	}
	return n
}
