package core

import (
	"math/rand"
	"slices"
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

func TestStrataEstimate(t *testing.T) {
	// The strata estimator sizes the sketch when the stamps' bound is too
	// loose. Over 40 trials per size, each side holding a common base plus
	// its share of the difference, every estimate must fall within a
	// factor of three of the true difference and the median within a
	// quarter of it.
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{10, 100, 1000, 20_000} {
		ratios := make([]float64, 0, 40)
		for trial := 0; trial < 40; trial++ {
			var ours, theirs digestSummary
			for i := 0; i < 1000; i++ {
				g := rng.Uint64()
				ours.fps = append(ours.fps, g)
				theirs.fps = append(theirs.fps, g)
			}
			for i := 0; i < d; i++ {
				if i%2 == 0 {
					ours.fps = append(ours.fps, rng.Uint64())
				} else {
					theirs.fps = append(theirs.fps, rng.Uint64())
				}
			}
			cells := ours.strata()
			subtract(cells, theirs.strata())
			ratios = append(ratios, float64(estimate(cells))/float64(d))
		}
		slices.Sort(ratios)
		t.Logf("d = %d: estimate/d from %.2f to %.2f, median %.2f", d, ratios[0], ratios[len(ratios)-1], ratios[len(ratios)/2])
		if ratios[0] < 1.0/3 || ratios[len(ratios)-1] > 3 {
			t.Errorf("d = %d: estimates from %.2f to %.2f times the difference", d, ratios[0], ratios[len(ratios)-1])
		}
		if m := ratios[len(ratios)/2]; m < 0.75 || m > 1.25 {
			t.Errorf("d = %d: median estimate %.2f times the difference", d, m)
		}
	}
}
