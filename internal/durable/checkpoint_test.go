package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

// TestCheckpointWorkIndependentOfN preloads replicas to N = 1 000 and
// N = 100 000 items, runs the same 4 096 single-item updates on each, and
// requires the checkpoints those updates trigger to image exactly the same
// number of items: a checkpoint's work follows the items that changed,
// not the items held.
func TestCheckpointWorkIndependentOfN(t *testing.T) {
	const updates, keys = 4096, 1000
	captured := map[int]int{}
	for _, n := range []int{1_000, 100_000} {
		src := core.NewReplica(0, 2)
		val := []byte("preload")
		for i := 0; i < n; i++ {
			src.Update(fmt.Sprintf("item-%06d", i), op.NewSet(val))
		}
		d := mustOpen(t, t.TempDir(), 1, 2, Options{NoSync: true})
		if _, err := d.AntiEntropyFrom(src); err != nil {
			t.Fatal(err)
		}
		if err := d.Snapshot(); err != nil {
			t.Fatal(err)
		}
		before := d.CheckpointStats()
		for i := 0; i < updates; i++ {
			if err := d.Update(fmt.Sprintf("item-%06d", i%keys), op.NewSet([]byte{byte(i)})); err != nil {
				t.Fatal(err)
			}
		}
		after := d.CheckpointStats()
		if got := after.Checkpoints - before.Checkpoints; got != updates/1024 {
			t.Fatalf("N = %d: %d checkpoints over %d updates, want %d", n, got, updates, updates/1024)
		}
		captured[n] = after.ItemsCaptured - before.ItemsCaptured
		t.Logf("N = %d: %d items imaged by %d checkpoints", n, captured[n], updates/1024)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if captured[1_000] != captured[100_000] {
		t.Errorf("items imaged: %d at N = 1 000, %d at N = 100 000; want equal", captured[1_000], captured[100_000])
	}
}

// TestCheckpointCrashPoints runs random histories through a durable
// replica with SnapshotEvery 5, so that deltas and compactions happen all
// the time, and stops checkpoints at each crash point: a delta written but
// not renamed, renamed before the WAL discard, a compacted base written
// but not renamed, renamed before the superseded files are removed. After
// each crash the replica reopened from the directory must hold exactly the
// state the live replica had after its last acknowledged action.
func TestCheckpointCrashPoints(t *testing.T) {
	for _, point := range []struct {
		name string
		at   crashPoint
	}{
		{"delta-written", deltaWritten},
		{"delta-renamed", deltaRenamed},
		{"base-written", baseWritten},
		{"base-renamed", baseRenamed},
	} {
		t.Run(point.name, func(t *testing.T) {
			crashes := 0
			for seed := int64(1); seed <= 6; seed++ {
				crashes += checkpointHistory(t, seed, point.at)
			}
			if crashes == 0 {
				t.Fatal("no checkpoint stopped at the crash point")
			}
			t.Logf("%d crashes", crashes)
		})
	}
}

// checkpointHistory is one schedule of TestCheckpointCrashPoints in the
// mix of core's logPointerHistories: server 0 is durable, the others are
// volatile, and steps are updates by a holder of the newest copy,
// monolithic and streamed applies, out-of-bound copies with intra-node
// replay, pruning under a log cap, explicit checkpoints, clean restarts
// and server-set growth. Every third time a checkpoint reaches the crash
// point it stops there, failing, and the step's end crashes the replica or
// carries on. It returns the number of crashes.
func checkpointHistory(t *testing.T, seed int64, at crashPoint) int {
	t.Helper()
	const steps, items, maxServers = 160, 12, 5
	rng := rand.New(rand.NewSource(seed))
	var copts []core.Option
	if seed%3 == 0 {
		copts = append(copts, core.WithDeltaPropagationDepth(2))
	}
	dir := t.TempDir()
	var reached atomic.Int64
	var crashed atomic.Bool
	opts := Options{NoSync: true, SnapshotEvery: 5, CoreOptions: copts, crash: func(p crashPoint) bool {
		if p != at || reached.Add(1)%3 != 0 {
			return false
		}
		crashed.Store(true)
		return true
	}}
	open := func() *Replica { return mustOpen(t, dir, 0, 3, opts) }
	d := open()
	d.Core().ConfigurePruning([]int{0, 1, 2})
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	vol := []*core.Replica{nil, core.NewReplica(1, 3, copts...), core.NewReplica(2, 3, copts...)}
	for _, r := range vol[1:] {
		r.ConfigurePruning([]int{0, 1, 2})
	}
	replica := func(i int) *core.Replica {
		if i == 0 {
			return d.Core()
		}
		return vol[i]
	}
	pair := func() (int, int) {
		a := rng.Intn(len(vol))
		return a, (a + 1 + rng.Intn(len(vol)-1)) % len(vol)
	}
	itemKey := func(i int) string { return fmt.Sprintf("x%02d", i) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	crashes := 0
	for step := 0; step < steps; step++ {
		switch c := rng.Intn(20); {
		case c < 7: // update by a holder of the newest copy
			k := itemKey(rng.Intn(items))
			ws := newestHolders(len(vol), replica, k)
			w := ws[rng.Intn(len(ws))]
			o := op.NewAppend([]byte{byte(step)})
			if w == 0 {
				must(d.Update(k, o))
			} else {
				must(vol[w].Update(k, o))
			}
		case c < 10: // monolithic apply
			dst, src := pair()
			if dst == 0 {
				_, err := d.AntiEntropyFrom(vol[src])
				must(err)
			} else {
				_, err := core.PullReplica(core.InMemory(vol[dst]), replica(src))
				must(err)
			}
		case c < 12: // streamed apply, unless the source pruned past the recipient
			dst, src := pair()
			if replica(src).NeedsReconcile(replica(dst).DBVV()) {
				continue
			}
			for s := replica(src).StartChunkSession(replica(dst).DBVV(), 48); s != nil; {
				p := s.Next()
				if p == nil {
					break
				}
				if dst == 0 {
					must(d.ApplyChunk(p))
				} else {
					vol[dst].ApplyChunk(p)
				}
				s.Recycle(p)
			}
		case c < 14: // out-of-bound copy; intra-node replay on the volatile side
			dst, src := pair()
			k := itemKey(rng.Intn(items))
			if dst == 0 {
				_, err := d.ApplyOOB(replica(src).ServeOOB(k), src)
				must(err)
			} else {
				vol[dst].CopyOutOfBound(k, replica(src))
				vol[dst].RunIntraNodePropagation()
			}
		case c < 17: // pruning under a log cap
			i, cap := rng.Intn(len(vol)), 1+rng.Intn(3)
			replica(i).SetLogCap(cap)
			if i == 0 {
				_, err := d.Prune()
				must(err)
			} else {
				vol[i].Prune()
			}
		case c < 19: // explicit checkpoint, or a clean restart
			if rng.Intn(2) == 0 {
				if err := d.Snapshot(); err != nil && !errors.Is(err, errCrashed) {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				break
			}
			if err := d.Close(); err != nil && !errors.Is(err, errCrashed) {
				t.Fatalf("seed %d step %d: close: %v", seed, step, err)
			}
			want := d.Core().CaptureCheckpoint(true)
			d = open()
			sameReplica(t, fmt.Sprintf("seed %d step %d: restart", seed, step), want, d)
		default: // growth, which reaches the durable replica by propagation
			if len(vol) == maxServers {
				continue
			}
			n := len(vol) + 1
			vol[1+rng.Intn(len(vol)-1)].Grow(n)
			vol = append(vol, core.NewReplica(n-1, n, copts...))
		}
		if err := d.Core().CheckInvariants(); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		// Half the stops end the process; after the others it carries on,
		// as after a failed write, and a later restart checks the result.
		if crashed.Swap(false) && rng.Intn(2) == 0 {
			crashes++
			must(d.CloseWithoutSnapshot())
			want := d.Core().CaptureCheckpoint(true)
			d = open()
			sameReplica(t, fmt.Sprintf("seed %d step %d: crash", seed, step), want, d)
		}
	}
	if err := d.Close(); err != nil && !errors.Is(err, errCrashed) {
		t.Fatalf("seed %d: close: %v", seed, err)
	}
	return crashes
}

// newestHolders returns the servers whose current copy of key is at least
// as new as every other's: the ones that may update it without a conflict.
func newestHolders(n int, replica func(int) *core.Replica, key string) []int {
	ivvs := make([]vv.VV, n)
	var newest vv.VV
	for i := range ivvs {
		ivvs[i], _ = replica(i).ReadIVV(key)
		if ivvs[i].DominatesOrEqual(newest) {
			newest = ivvs[i]
		}
	}
	var out []int
	for i, v := range ivvs {
		if v.DominatesOrEqual(newest) {
			out = append(out, i)
		}
	}
	return out
}

// sameReplica requires the reopened replica d to hold the state want was
// captured from: equal values and vectors, the same log components as
// (key, seq) pairs, watermark, truncation floors, aux log and conflict
// flag, and clean invariants. Acks are learned outside the WAL, so the
// recovered ack table may only trail the live one.
func sameReplica(t *testing.T, at string, want *core.Checkpoint, d *Replica) {
	t.Helper()
	if err := d.Core().CheckInvariants(); err != nil {
		t.Fatalf("%s: recovered replica: %v", at, err)
	}
	got := d.Core().CaptureCheckpoint(true)
	for j, a := range got.Acked {
		var live vv.VV
		if j < len(want.Acked) {
			live = want.Acked[j]
		}
		if a != nil && !live.DominatesOrEqual(a) {
			t.Fatalf("%s: recovered ack for %d is %v, ahead of the live %v", at, j, a, live)
		}
	}
	want.Acked, got.Acked = nil, nil
	if why := core.CheckpointDiff(want, got); why != "" {
		t.Fatalf("%s: recovered replica differs: %s", at, why)
	}
}

// TestOpenRefusesGobSnapshot: a directory holding a gob snapshot of an
// earlier release is refused with an error naming it, not opened empty.
func TestOpenRefusesGobSnapshot(t *testing.T) {
	dir := t.TempDir()
	gob := filepath.Join(dir, gobPrefix+"00000003.bin")
	if err := os.WriteFile(gob, []byte{0x40, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, 0, 2, Options{NoSync: true})
	if err == nil || !strings.Contains(err.Error(), gob) || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("Open = %v, want a refusal naming the gob snapshot %s", err, gob)
	}
}

// A checkpoint cut that fails — here the WAL directory is gone, so the
// next segment cannot be created — is kept and reported by Close, not
// dropped and retried silently by every later action.
func TestFailedCutReportedAtClose(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 1, Options{NoSync: true, SnapshotEvery: 4})
	if err := os.RemoveAll(filepath.Join(dir, walDir)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		d.Update("k", op.NewSet([]byte{byte(i)}))
	}
	err := d.Close()
	if err == nil {
		t.Fatal("Close reported nothing after a failed cut")
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Close = %v, want the first failure: the segment the cut could not create", err)
	}
}
