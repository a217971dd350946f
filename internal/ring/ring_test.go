package ring

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// Hash64 must agree with the standard library's FNV-1a: the store's shard
// striping and the partition mapping share this exact function.
func TestHash64MatchesStdlib(t *testing.T) {
	for _, key := range []string{"", "a", "user/42", "key-0001", "\x00\xff"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, want := Hash64(key), h.Sum64(); got != want {
			t.Fatalf("Hash64(%q) = %#x, want %#x", key, got, want)
		}
	}
}

// Sequential keys must spread across partitions. This is the regression
// test for a real failure: raw FNV-1a's high bits barely depend on a
// key's last few characters (each multiply lifts a byte's influence only
// ~40 bits), so without the Mix64 finalizer every key of a "key%06d"
// workload landed in one partition.
func TestPartitionOfDistributesSequentialKeys(t *testing.T) {
	for _, pattern := range []string{"key%06d", "item/%d", "user:%d:profile"} {
		for _, partitions := range []int{4, 16, 64} {
			rg := New(8, partitions, 3)
			const keys = 1000
			counts := make([]int, partitions)
			for i := 0; i < keys; i++ {
				counts[rg.PartitionOf(fmt.Sprintf(pattern, i))]++
			}
			mean := keys / partitions
			for pid, c := range counts {
				if c == 0 {
					t.Errorf("%s/%d partitions: partition %d got no keys", pattern, partitions, pid)
				}
				if c > 4*mean {
					t.Errorf("%s/%d partitions: partition %d got %d of %d keys (mean %d) — high bits badly mixed", pattern, partitions, pid, c, keys, mean)
				}
			}
		}
	}
}

// The key → partition mapping must be a pure function of (key, partition
// count): identical on every node, for every server set, on every restart.
func TestPartitionOfDeterministic(t *testing.T) {
	cases := []struct {
		servers1, servers2 int
		partitions         int
		placement          int
	}{
		{5, 9, 16, 3},
		{8, 800, 16, 4},
		{3, 50, 128, 2},
		{5, 6, 1, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("p%d", tc.partitions), func(t *testing.T) {
			a := New(tc.servers1, tc.partitions, tc.placement)
			b := New(tc.servers2, tc.partitions, tc.placement)
			restart := New(tc.servers1, tc.partitions, tc.placement)
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("key-%05d", i)
				pid := a.PartitionOf(key)
				if pid < 0 || pid >= tc.partitions {
					t.Fatalf("PartitionOf(%q) = %d out of range [0,%d)", key, pid, tc.partitions)
				}
				if got := b.PartitionOf(key); got != pid {
					t.Fatalf("PartitionOf(%q) differs across server sets: %d vs %d", key, pid, got)
				}
				if got := restart.PartitionOf(key); got != pid {
					t.Fatalf("PartitionOf(%q) differs across restarts: %d vs %d", key, pid, got)
				}
			}
		})
	}
}

// Rings built from the same configuration must be identical in full —
// placement is coordination-free only because every node computes the
// same table.
func TestRingDeterministic(t *testing.T) {
	a, b := New(17, 64, 3), New(17, 64, 3)
	for pid := 0; pid < 64; pid++ {
		if !reflect.DeepEqual(a.Owners(pid), b.Owners(pid)) {
			t.Fatalf("owners of partition %d differ across builds: %v vs %v", pid, a.Owners(pid), b.Owners(pid))
		}
	}
	for s := 0; s < 17; s++ {
		if !reflect.DeepEqual(a.OwnedBy(s), b.OwnedBy(s)) {
			t.Fatalf("owned set of server %d differs across builds: %v vs %v", s, a.OwnedBy(s), b.OwnedBy(s))
		}
	}
}

// Placement returns exactly N distinct in-range owners (clamped to the
// server count), and the Owners/OwnedBy/Owns/Shared views agree.
func TestPlacement(t *testing.T) {
	cases := []struct {
		servers, partitions, placement int
	}{
		{5, 16, 3},
		{8, 16, 4},
		{16, 16, 4},
		{50, 128, 3},
		{200, 128, 5},
		{800, 128, 3},
		{3, 16, 4}, // placement clamps to 3
		{1, 8, 1},
		{6, 1, 2}, // single partition
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_p%d_N%d", tc.servers, tc.partitions, tc.placement), func(t *testing.T) {
			r := New(tc.servers, tc.partitions, tc.placement)
			want := tc.placement
			if want > tc.servers {
				want = tc.servers
			}
			if r.Placement() != want {
				t.Fatalf("Placement() = %d, want %d", r.Placement(), want)
			}
			for pid := 0; pid < tc.partitions; pid++ {
				owners := r.Owners(pid)
				if len(owners) != want {
					t.Fatalf("partition %d has %d owners %v, want %d", pid, len(owners), owners, want)
				}
				seen := map[int]bool{}
				for _, s := range owners {
					if s < 0 || s >= tc.servers {
						t.Fatalf("partition %d owner %d out of range", pid, s)
					}
					if seen[s] {
						t.Fatalf("partition %d repeats owner %d: %v", pid, s, owners)
					}
					seen[s] = true
					if !r.Owns(s, pid) {
						t.Fatalf("Owns(%d, %d) = false but listed in %v", s, pid, owners)
					}
				}
			}
			// OwnedBy is ascending and consistent with Owners.
			total := 0
			for s := 0; s < tc.servers; s++ {
				owned := r.OwnedBy(s)
				total += len(owned)
				for i, pid := range owned {
					if i > 0 && owned[i-1] >= pid {
						t.Fatalf("OwnedBy(%d) not ascending: %v", s, owned)
					}
					if !r.Owns(s, pid) {
						t.Fatalf("OwnedBy(%d) lists %d but Owns is false", s, pid)
					}
				}
			}
			if total != tc.partitions*want {
				t.Fatalf("sum of owned sets = %d, want %d", total, tc.partitions*want)
			}
			// Shared is the exact intersection.
			for a := 0; a < min(tc.servers, 8); a++ {
				for b := 0; b < min(tc.servers, 8); b++ {
					shared := r.Shared(a, b)
					wantShared := intersect(r.OwnedBy(a), r.OwnedBy(b))
					if !reflect.DeepEqual(shared, wantShared) {
						t.Fatalf("Shared(%d,%d) = %v, want %v", a, b, shared, wantShared)
					}
				}
			}
		})
	}
}

func intersect(a, b []int) []int {
	inB := map[int]bool{}
	for _, x := range b {
		inB[x] = true
	}
	out := []int{}
	for _, x := range a {
		if inB[x] {
			out = append(out, x)
		}
	}
	return out
}

// Ownership must be stable under node join: growing the server set from 5
// toward 800 moves only the partitions whose successor walk meets the new
// server's tokens — the per-join churn stays near placement·P/n and keys
// never change partition.
func TestJoinStability(t *testing.T) {
	const partitions, placement = 128, 3
	sizes := []int{5, 6, 8, 16, 50, 200, 800}
	prev := New(sizes[0], partitions, placement)
	for _, n := range sizes[1:] {
		next := New(n, partitions, placement)
		// Single-step churn bound checked on consecutive sizes only.
		if n == prev.Servers()+1 {
			churn := 0
			for pid := 0; pid < partitions; pid++ {
				churn += len(prev.Owners(pid)) + len(next.Owners(pid)) - 2*len(intersect(prev.Owners(pid), next.Owners(pid)))
			}
			// Expected churn is ~2·placement·P/n assignments (each moved
			// assignment counts once leaving, once arriving); allow 3x for
			// vnode variance.
			limit := 3 * 2 * placement * partitions / n
			if churn > limit {
				t.Fatalf("join %d→%d moved %d ownership assignments, limit %d", prev.Servers(), n, churn, limit)
			}
		}
		prev = next
	}
	// Keys never move partitions as servers join: the mapping ignores the
	// server set entirely.
	small, large := New(5, partitions, placement), New(800, partitions, placement)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("item/%d", i)
		if small.PartitionOf(key) != large.PartitionOf(key) {
			t.Fatalf("key %q changed partition between 5 and 800 servers", key)
		}
	}
}

// Placement balance: with 64 vnodes per server no server's owned-partition
// count strays wildly from the mean (a sanity bound, not a tight one).
func TestPlacementBalance(t *testing.T) {
	const servers, partitions, placement = 16, 256, 3
	r := New(servers, partitions, placement)
	mean := float64(partitions*placement) / float64(servers)
	for s := 0; s < servers; s++ {
		load := float64(len(r.OwnedBy(s)))
		if load < mean/3 || load > mean*3 {
			t.Fatalf("server %d owns %.0f partitions, mean %.1f — ring badly unbalanced", s, load, mean)
		}
	}
}
