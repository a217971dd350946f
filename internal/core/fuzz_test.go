package core

import (
	"testing"

	"repro/internal/op"
	"repro/internal/workload"
)

// FuzzProtocolInterleaving drives a small replica group through an
// arbitrary byte-directed schedule of updates, anti-entropy sessions,
// out-of-bound copies and intra-node sweeps. Whatever the interleaving,
// every step must preserve the protocol invariants, and the single-writer
// item discipline must keep the run conflict-free.
func FuzzProtocolInterleaving(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{0, 0, 0, 40, 41, 42, 80, 81, 82})
	f.Fuzz(func(t *testing.T, script []byte) {
		const n, items = 3, 6
		reps := make([]*Replica, n)
		for i := range reps {
			opts := []Option{}
			if len(script) > 0 && script[0]%2 == 1 {
				opts = append(opts, WithDeltaPropagation())
			}
			reps[i] = NewReplica(i, n, opts...)
		}
		for pos, b := range script {
			switch b % 5 {
			case 0: // update (single writer per item)
				item := int(b/5) % items
				owner := item % n
				if err := reps[owner].Update(workload.Key(item), op.NewAppend([]byte{b})); err != nil {
					t.Fatal(err)
				}
			case 1, 2: // anti-entropy
				r := int(b/5) % n
				s := (r + 1 + int(b/16)%(n-1)) % n
				AntiEntropy(reps[r], reps[s])
			case 3: // out-of-bound copy
				r := int(b/5) % n
				s := (r + 1) % n
				reps[r].CopyOutOfBound(workload.Key(int(b/16)%items), reps[s])
			case 4: // background intra-node sweep
				reps[int(b/5)%n].RunIntraNodePropagation()
			}
			for _, r := range reps {
				if err := r.CheckInvariants(); err != nil {
					t.Fatalf("step %d (byte %d): %v", pos, b, err)
				}
				if len(r.Conflicts()) != 0 {
					t.Fatalf("step %d: false conflict under single-writer items: %v",
						pos, r.Conflicts())
				}
			}
		}
		// Drain and require convergence.
		for round := 0; round < 4*n; round++ {
			for i := range reps {
				AntiEntropy(reps[i], reps[(i+1)%n])
			}
		}
		if ok, why := Converged(reps...); !ok {
			t.Fatalf("no convergence after drain: %s", why)
		}
	})
}

// FuzzSnapshotRoundTrip checkpoints a replica driven by an arbitrary script
// and requires restore to produce an equivalent, invariant-clean replica.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		a, b := NewReplica(0, 2), NewReplica(1, 2)
		for _, c := range script {
			switch c % 4 {
			case 0:
				a.Update(workload.Key(int(c)%5), op.NewAppend([]byte{c}))
			case 1:
				AntiEntropy(b, a)
			case 2:
				b.CopyOutOfBound(workload.Key(int(c)%5), a)
			case 3:
				b.Update(workload.Key(5+int(c)%3), op.NewSet([]byte{c}))
			}
		}
		for _, r := range []*Replica{a, b} {
			restored := roundTripState(t, r)
			if ok, why := r.Snapshot().Equivalent(restored.Snapshot()); !ok {
				t.Fatalf("restore not equivalent: %s", why)
			}
			if err := restored.CheckInvariants(); err != nil {
				t.Fatalf("restored replica invalid: %v", err)
			}
		}
	})
}
