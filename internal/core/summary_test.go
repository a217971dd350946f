package core

import (
	"math/rand"
	"testing"
)

func TestDigestIndexMatchesMap(t *testing.T) {
	// Random adds and removes against a reference map. Digests draw their
	// low half from a small range, so runs form, collide and wrap around
	// the table, and removals must shift them back; a few share a whole
	// digest, which lookup must refuse to resolve.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var x digestIndex
		x.reset(0)
		var fps []uint64
		live := map[int32]bool{}
		holders := map[uint64]int{}
		digest := func() uint64 {
			if len(fps) > 0 && rng.Intn(20) == 0 {
				return fps[rng.Intn(len(fps))]
			}
			return rng.Uint64()<<32 | uint64(rng.Intn(48))
		}
		drop := func(i int32) {
			x.remove(fps[i], i)
			holders[fps[i]]--
			delete(live, i)
		}
		put := func(i int32) {
			fps[i] = digest()
			x.add(fps[i], i)
			holders[fps[i]]++
			live[i] = true
		}
		for step := 0; step < 1000; step++ {
			if i := int32(rng.Intn(len(fps) + 1)); i < int32(len(fps)) && rng.Intn(2) == 0 {
				if live[i] {
					drop(i)
				}
				put(i)
			} else if i < int32(len(fps)) && live[i] {
				drop(i)
			} else {
				fps = append(fps, 0)
				put(int32(len(fps) - 1))
			}
			if x.n != len(live) || 2*x.n > len(x.cells) {
				t.Fatalf("seed %d step %d: %d cells of %d used, %d live", seed, step, x.n, len(x.cells), len(live))
			}
			for i, g := range fps {
				got, ok := x.lookup(g, fps)
				switch {
				case holders[g] == 1 && live[int32(i)] && (!ok || got != int32(i)):
					t.Fatalf("seed %d step %d: lookup of entry %d's digest = %d, %v", seed, step, i, got, ok)
				case holders[g] != 1 && ok:
					t.Fatalf("seed %d step %d: lookup of a digest %d entries hold resolved to %d", seed, step, holders[g], got)
				}
			}
		}
	}
}
