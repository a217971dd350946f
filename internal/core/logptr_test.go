package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logvec"
	"repro/internal/op"
	"repro/internal/vv"
)

// TestLogPointersRandomized drives small replica groups through random
// schedules of every path that makes, supersedes or drops a log record —
// updates, monolithic and streamed applies, out-of-bound copies with their
// intra-node replay, pruning under a log cap, a restore from a base
// checkpoint and its deltas, and server-set growth — and checks after
// every step, on every replica, that the P_j(x) pointers on the items and
// the records in the components agree both ways (CheckInvariants). Each
// restore must also rebuild exactly the state the replica had. An item is updated by any replica
// whose current copy is the newest one anywhere, so writers hand items
// over without conflicts, and a writer holding an auxiliary copy makes an
// update that intra-node propagation later replays. Each path must have
// acted at least once over the 60 seeds, no conflict may arise, and every
// group converges once the schedule ends.
func TestLogPointersRandomized(t *testing.T) {
	acted := logPointerHistories(t, func(dst, _ *Replica) Sink { return InMemory(dst) })
	for _, path := range []string{"update", "monolithic apply", "streamed apply", "out-of-bound copy", "intra-node replay", "prune", "snapshot restore", "growth"} {
		if acted[path] == 0 {
			t.Errorf("no step took the %s path", path)
		}
	}
	t.Logf("steps that acted: %v", acted)
}

// TestTailRecordsResolveInTheirMessage drives TestLogPointersRandomized's
// histories, growth and intra-node replays included, and checks every
// message a session applies on the inline, chunk, delta-mode and NeedFull
// fetch paths: each tail record points at an item the same message
// carries, and that item is the one the source's record (origin, seq)
// belongs to; seqs ascend within a tail; every carried item has a record;
// and a fetch replaces only delta items of the message it completes.
func TestTailRecordsResolveInTheirMessage(t *testing.T) {
	seen := map[string]int{}
	logPointerHistories(t, func(dst, src *Replica) Sink {
		return resolvingSink{Sink: InMemory(dst), t: t, src: src, seen: seen}
	})
	for _, path := range []string{"inline", "chunk", "delta", "fetch"} {
		if seen[path] == 0 {
			t.Errorf("no applied message took the %s path", path)
		}
	}
	t.Logf("messages checked: %v", seen)
}

// resolvingSink checks each propagation against its source before applying
// it (TestTailRecordsResolveInTheirMessage).
type resolvingSink struct {
	Sink
	t    *testing.T
	src  *Replica
	seen map[string]int
}

func (s resolvingSink) ApplyPropagationWithItems(p *Propagation, items []ItemPayload) error {
	s.check("inline", p, items)
	return s.Sink.ApplyPropagationWithItems(p, items)
}

func (s resolvingSink) ApplyChunk(p *Propagation) error {
	s.check("chunk", p, nil)
	return s.Sink.ApplyChunk(p)
}

func (s resolvingSink) check(path string, p *Propagation, fetched []ItemPayload) {
	t := s.t
	t.Helper()
	keyAt := s.src.recordKeys()
	referenced := make([]bool, len(p.Items))
	for k, tail := range p.Tails {
		var prev uint64
		for j, rec := range tail {
			if rec.Item < 0 || int(rec.Item) >= len(p.Items) {
				t.Fatalf("%s: origin %d record %d points at item %d of %d", path, k, j, rec.Item, len(p.Items))
			}
			if rec.Seq <= prev {
				t.Fatalf("%s: origin %d record %d: seq %d after %d", path, k, j, rec.Seq, prev)
			}
			prev = rec.Seq
			if got, want := p.Items[rec.Item].Key, keyAt[k][rec.Seq]; got != want {
				t.Fatalf("%s: origin %d record (seq %d) resolves to item %q, the source's record is for %q", path, k, rec.Seq, got, want)
			}
			referenced[rec.Item] = true
		}
	}
	deltas := map[string]bool{}
	for i, it := range p.Items {
		if !referenced[i] {
			t.Fatalf("%s: item %d (%q) is carried without a record", path, i, it.Key)
		}
		if it.IsDelta {
			deltas[it.Key] = true
		}
	}
	for _, it := range fetched {
		if !deltas[it.Key] {
			t.Fatalf("%s: fetched %q, which the message carries in full or not at all", path, it.Key)
		}
	}
	s.seen[path]++
	if len(deltas) > 0 {
		s.seen["delta"]++
	}
	if len(fetched) > 0 {
		s.seen["fetch"]++
	}
}

// recordKeys maps each origin's live record seqs to their items' keys.
func (r *Replica) recordKeys() []map[uint64]string {
	r.rlockAll()
	defer r.runlockAll()
	out := make([]map[uint64]string, r.n)
	for k := range out {
		out[k] = map[uint64]string{}
		r.logs.Component(k).TailAfter(0, func(rec *logvec.Record) {
			out[k][rec.Seq] = rec.Item.Key
		})
	}
	return out
}

// logPointerHistories runs TestLogPointersRandomized's schedules, with
// every session applied through sink(recipient, source), and returns how
// many steps took each path.
func logPointerHistories(t *testing.T, sink func(dst, src *Replica) Sink) map[string]int {
	t.Helper()
	const seeds, steps, items, maxServers = 60, 160, 12, 5
	acted := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var opts []Option
		if seed%3 == 0 {
			opts = append(opts, WithDeltaPropagationDepth(2))
		}
		reps := make([]*Replica, 3)
		chains := make([]checkpointChain, len(reps))
		for i := range reps {
			reps[i] = NewReplica(i, len(reps), opts...)
			reps[i].ConfigurePruning([]int{0, 1, 2})
			chains[i] = newChain(reps[i])
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
				if shipped, _ := PullReplica(sink(dst, src), src); shipped {
					acted[path]++
				}
			case c < 12:
				path = "streamed apply"
				dst, src := pair()
				before := dst.Metrics().ChunksApplied
				Drain(sink(dst, src), 0, streamPeer{LocalPeer: localReplica(src), chunkBytes: 48})
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
				chains[i] = append(chains[i], reps[i].CaptureCheckpoint(false))
				if rng.Intn(2) == 0 {
					reps[i], chains[i] = restoreChain(t, reps[i], chains[i])
				}
				acted[path]++
			default:
				path = "growth"
				if len(reps) == maxServers {
					continue
				}
				n := len(reps) + 1
				reps[rng.Intn(len(reps))].Grow(n)
				reps = append(reps, NewReplica(n-1, n, opts...))
				chains = append(chains, newChain(reps[n-1]))
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
				src := reps[(i+1)%len(reps)]
				PullReplica(sink(reps[i], src), src)
				reps[i].RunIntraNodePropagation()
			}
		}
		if ok, why := Converged(reps...); !ok {
			t.Fatalf("seed %d: no convergence: %s", seed, why)
		}
	}
	return acted
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
