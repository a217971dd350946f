package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/op"
	"repro/internal/vv"
)

func reconcileFill(t *testing.T, r *Replica, n int, tag byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.Update(fmt.Sprintf("item/%04d", i), op.NewSet([]byte{tag, byte(i), byte(i >> 8)})); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReconcileEqualSetsSettleInOneRound(t *testing.T) {
	src := NewReplica(0, 2)
	dst := NewReplica(1, 2)
	reconcileFill(t, src, 100, 'a')
	AntiEntropy(dst, src)

	rc := dst.StartReconcile()
	ranges := rc.Next()
	if len(ranges) != 1 || ranges[0].Count != 100 || len(ranges[0].Stamp) == 0 || ranges[0].Sketch != nil || ranges[0].Strata != nil {
		t.Fatalf("initial ranges = %+v, want the single stamped root", ranges)
	}
	replies := src.ServeReconcile(ranges)
	if len(replies) != 1 || !replies[0].Match {
		t.Fatalf("equal sets: reply = %+v, want Match", replies)
	}
	rc.Handle(ranges, replies)
	if rc.Next() != nil || len(rc.NeedKeys()) != 0 {
		t.Fatal("equal sets left pending work")
	}
	if rc.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", rc.Rounds())
	}
}

func TestReconcileTransfersOnlyTheDifference(t *testing.T) {
	const items, diff = 5000, 10
	src := NewReplica(0, 2)
	dst := NewReplica(1, 2)
	reconcileFill(t, src, items, 'a')
	AntiEntropy(dst, src)
	// The difference: a handful of rewrites the recipient never sees.
	for i := 0; i < diff; i++ {
		if err := src.Update(fmt.Sprintf("item/%04d", i*499), op.NewSet([]byte{'b', byte(i)})); err != nil {
			t.Fatal(err)
		}
	}

	before := dst.Metrics()
	srcBefore := src.Metrics()
	adopted := ReconcileAntiEntropy(dst, src)
	if adopted != diff {
		t.Fatalf("adopted %d items, want exactly the %d-item difference", adopted, diff)
	}
	if ok, why := Converged(dst, src); !ok {
		t.Fatalf("not converged: %s", why)
	}
	d := dst.Metrics().Diff(before)
	if d.ReconcileSessions != 1 {
		t.Errorf("ReconcileSessions = %d, want 1", d.ReconcileSessions)
	}
	// An honest session ends within four round trips; this one takes the
	// stamp-sized sketch in two.
	if d.ReconcileRoundTrips > 2 {
		t.Errorf("ReconcileRoundTrips = %d, want <= 2", d.ReconcileRoundTrips)
	}
	// Control traffic is O(diff), not O(N): the sketch is sized by the
	// difference. Full state is ~items*(key+value+vv) bytes; require the
	// fingerprint phase under a quarter of it.
	control := d.ReconcileBytes + src.Metrics().Diff(srcBefore).ReconcileBytes
	fullState := uint64(items * (10 + 3 + 4))
	if control >= fullState/4 {
		t.Errorf("reconcile control traffic %d B, want < %d B (1/4 of full state)", control, fullState/4)
	}
	t.Logf("reconcile: %d B control for a %d-item diff in a %d-item store (full state ~%d B)",
		control, diff, items, fullState)
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReconcileIsOneDirectional(t *testing.T) {
	// Keys only the recipient holds must survive: reconciliation, like
	// propagation, moves data from source to recipient only.
	src := NewReplica(0, 2)
	dst := NewReplica(1, 2)
	reconcileFill(t, src, 20, 'a')
	if err := dst.Update("local/only", op.NewSet([]byte("mine"))); err != nil {
		t.Fatal(err)
	}
	adopted := ReconcileAntiEntropy(dst, src)
	if adopted != 20 {
		t.Fatalf("adopted %d, want 20", adopted)
	}
	if v, ok := dst.Read("local/only"); !ok || string(v) != "mine" {
		t.Fatalf("recipient-only key damaged: %q %v", v, ok)
	}
	if _, ok := src.Read("local/only"); ok {
		t.Fatal("reconcile pushed data to the source")
	}
}

func TestApplyReconcileItemsConflictAndSkip(t *testing.T) {
	r0 := NewReplica(0, 2)
	r1 := NewReplica(1, 2)
	if err := r0.Update("x", op.NewSet([]byte("at-0"))); err != nil {
		t.Fatal(err)
	}
	if err := r1.Update("x", op.NewSet([]byte("at-1"))); err != nil {
		t.Fatal(err)
	}
	// Concurrent copies: declared, not adopted.
	if got := r0.ApplyReconcileItems(r1.BuildItems([]string{"x"}), 1); got != 0 {
		t.Fatalf("adopted %d concurrent items", got)
	}
	conflicts := r0.Conflicts()
	if len(conflicts) != 1 || conflicts[0].Stage != "reconcile" || conflicts[0].Source != 1 {
		t.Fatalf("conflicts = %+v, want one at stage reconcile from 1", conflicts)
	}
	if v, _ := r0.Read("x"); string(v) != "at-0" {
		t.Fatalf("local copy overwritten: %q", v)
	}

	// A dominated remote copy is skipped silently.
	r2 := NewReplica(0, 2)
	r3 := NewReplica(1, 2)
	r2.Update("y", op.NewSet([]byte("old")))
	ReconcileAntiEntropy(r3, r2)
	r3.Update("y", op.NewSet([]byte("newer")))
	if got := r3.ApplyReconcileItems(r2.BuildItems([]string{"y"}), 0); got != 0 {
		t.Fatalf("adopted %d dominated items", got)
	}
	if v, _ := r3.Read("y"); string(v) != "newer" {
		t.Fatalf("newer local copy lost: %q", v)
	}
}

func TestReconcileAdoptionRaisesOwnWatermark(t *testing.T) {
	src := NewReplica(0, 3)
	dst := NewReplica(1, 3)
	reconcileFill(t, src, 10, 'a')
	if dst.NeedsReconcile(vv.VV{}) {
		t.Fatal("fresh replica already has a watermark")
	}
	if got := ReconcileAntiEntropy(dst, src); got != 10 {
		t.Fatalf("adopted %d, want 10", got)
	}
	// The adopted updates have no log records at dst, so dst must divert
	// pullers below its post-adoption DBVV to reconciliation in turn.
	if !dst.NeedsReconcile(vv.VV{}) {
		t.Fatal("watermark not raised after adoption")
	}
	third := NewReplica(2, 3)
	if !AntiEntropy(third, dst) {
		t.Fatal("second-hop session shipped nothing")
	}
	if ok, why := Converged(third, dst, src); !ok {
		t.Fatalf("second hop not converged: %s", why)
	}
	if m := third.Metrics(); m.ReconcileSessions != 1 {
		t.Errorf("second hop used %d reconcile sessions, want 1 (diverted)", m.ReconcileSessions)
	}
	if err := dst.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := third.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReconcileInterleavesWithUpdates(t *testing.T) {
	// Stateless server rounds: a write landing between rounds is either
	// settled by a later round or left for the next session — never corrupts.
	src := NewReplica(0, 2)
	dst := NewReplica(1, 2)
	reconcileFill(t, src, 200, 'a')

	rc := dst.StartReconcile()
	round := 0
	for {
		ranges := rc.Next()
		if ranges == nil {
			break
		}
		if round == 1 {
			src.Update("item/0001", op.NewSet([]byte("raced")))
		}
		rc.Handle(ranges, src.ServeReconcile(ranges))
		round++
	}
	keys := rc.NeedKeys()
	if len(keys) == 0 {
		t.Fatal("no difference computed")
	}
	adopted := dst.ApplyReconcileItems(src.BuildItems(keys), 0)
	if adopted == 0 {
		t.Fatal("nothing adopted")
	}
	// One more full session settles anything the race left open.
	ReconcileAntiEntropy(dst, src)
	if ok, why := Converged(dst, src); !ok {
		t.Fatalf("not converged after racing update: %s", why)
	}
}

// reconcileRoot is what a from-scratch scan of r's regular copies
// summarizes to: the root fingerprint and count r's current summary must
// report.
func reconcileRoot(r *Replica) ReconcileRange {
	var root ReconcileRange
	for _, it := range r.Snapshot().Items {
		if it.IVV.Sum() == 0 && len(it.Value) == 0 {
			continue
		}
		root.Fp ^= itemDigest(it.Key, it.IVV)
		root.Count++
	}
	return root
}

// scratchView is what a from-scratch scan of r's regular copies yields:
// every item out of the zero state, sorted by key, with its digest.
func scratchView(r *Replica) (keys []string, fps []uint64) {
	for _, it := range r.Snapshot().Items {
		if it.IVV.Sum() == 0 && len(it.Value) == 0 {
			continue
		}
		keys = append(keys, it.Key)
		fps = append(fps, itemDigest(it.Key, it.IVV))
	}
	return keys, fps
}

// checkSummaryFresh fails the test unless r's reconciliation state equals
// a from-scratch build: the maintained summary's slab, root fingerprint,
// count, stamp and digest index.
func checkSummaryFresh(t *testing.T, r *Replica, context string) {
	t.Helper()
	r.syncDigests()
	keys, fps := scratchView(r)
	r.ctl.Lock()
	defer r.ctl.Unlock()
	slab := make([]KeyDigest, len(r.sum.items))
	for i, it := range r.sum.items {
		if it.Slot() != int32(i+1) {
			t.Fatalf("%s: replica %d's slab entry %d (%s) records slot %d", context, r.ID(), i, it.Key, it.Slot())
		}
		slab[i] = KeyDigest{Key: it.Key, Fp: r.sum.fps[i]}
		if j, ok := r.sum.index.lookup(r.sum.fps[i], r.sum.fps); !ok || j != int32(i) {
			t.Fatalf("%s: replica %d's index maps %s's digest to %d (%v), want %d", context, r.ID(), it.Key, j, ok, i)
		}
	}
	slices.SortFunc(slab, func(a, b KeyDigest) int { return strings.Compare(a.Key, b.Key) })
	var root uint64
	for i, g := range fps {
		if slab[i] != (KeyDigest{Key: keys[i], Fp: g}) {
			t.Fatalf("%s: replica %d's slab holds %+v, a from-scratch build %s at %#x", context, r.ID(), slab[i], keys[i], g)
		}
		root ^= g
	}
	if len(slab) != len(keys) || r.sum.index.n != len(keys) {
		t.Fatalf("%s: replica %d's slab has %d entries and its index %d, want %d", context, r.ID(), len(slab), r.sum.index.n, len(keys))
	}
	if r.sum.root != root {
		t.Fatalf("%s: replica %d's root fingerprint %#x, from scratch %#x", context, r.ID(), r.sum.root, root)
	}
	if !r.sum.stamp.Equal(r.dbvv) {
		t.Fatalf("%s: replica %d's stamp %v, DBVV %v", context, r.ID(), r.sum.stamp, r.dbvv)
	}
}

// queued returns the length of r's changed-item queue.
func queued(r *Replica) int {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	return len(r.changed)
}

func TestReconcileViewFollowsEveryMutation(t *testing.T) {
	// r is the replica under test, peer originates remote updates, and
	// mirror follows r by reconciliation alone. After each step, both ends
	// of a session must see r's current item set: r's own root summary
	// (StartReconcile) and r's answer to the true root (ServeReconcile).
	peer, r, mirror := NewReplica(0, 3), NewReplica(1, 3), NewReplica(2, 3)
	set := func(rep *Replica, key, val string) {
		t.Helper()
		if err := rep.Update(key, op.NewSet([]byte(val))); err != nil {
			t.Fatal(err)
		}
	}
	reconcileFill(t, r, 50, 'a')

	steps := []struct {
		name  string
		do    func()
		moves bool // the step changes r's regular copies
	}{
		{"update", func() { set(r, "item/0007", "u") }, true},
		{"log propagation", func() { set(peer, "p/1", "x"); AntiEntropy(r, peer) }, true},
		{"streamed chunk", func() {
			set(peer, "p/2", "y")
			s := peer.StartChunkSession(r.DBVV(), 1)
			if s == nil {
				t.Fatal("no chunk session for a recipient that is behind")
			}
			r.ApplyChunk(s.Next())
		}, true},
		// The OOB copy materializes p/3's regular copy in the zero state
		// and touches only its auxiliary copy, as does the update after it.
		{"oob copy", func() { set(peer, "p/3", "z"); r.CopyOutOfBound("p/3", peer) }, false},
		{"update of the auxiliary copy", func() { set(r, "p/3", "mine") }, false},
		// Adopting p/3's regular copy replays r's auxiliary update onto it.
		{"intra-node replay", func() {
			before := r.Metrics().AuxOpsReplayed
			AntiEntropy(r, peer)
			if r.Metrics().AuxOpsReplayed == before {
				t.Fatal("propagation replayed no auxiliary operation")
			}
		}, true},
		{"reconcile adoption", func() {
			set(peer, "p/4", "w")
			if r.ApplyReconcileItems(peer.BuildItems([]string{"p/4"}), peer.ID()) != 1 {
				t.Fatal("reconcile adoption adopted nothing")
			}
		}, true},
		{"grow", func() { r.Grow(4) }, false},
		{"zero-state key", func() { set(peer, "p/5", "v"); r.CopyOutOfBound("p/5", peer) }, false},
		// The next patch must leave p/5 out while it is still in the zero
		// state ...
		{"update after materialization", func() { set(r, "item/0008", "u") }, true},
		// ... and the adoption that takes it out of the zero state must
		// insert it, although the store's length does not move.
		{"zero-state key written", func() { AntiEntropy(r, peer) }, true},
	}

	prev := reconcileRoot(r)
	for _, step := range steps {
		step.do()
		want := reconcileRoot(r)
		if moved := want.Fp != prev.Fp || want.Count != prev.Count; moved != step.moves {
			t.Fatalf("%s: root summary moved=%v, want %v", step.name, moved, step.moves)
		}
		prev = want
		if got := r.StartReconcile().Next()[0]; got.Fp != want.Fp || got.Count != want.Count {
			t.Fatalf("%s: StartReconcile summarizes (%#x, %d), want (%#x, %d)", step.name, got.Fp, got.Count, want.Fp, want.Count)
		}
		if reply := r.ServeReconcile([]ReconcileRange{want}); !reply[0].Match {
			t.Fatalf("%s: ServeReconcile does not match the current root: %+v", step.name, reply[0])
		}
		checkSummaryFresh(t, r, step.name)
		ReconcileAntiEntropy(mirror, r)
		if ok, why := Converged(mirror, r); !ok {
			t.Fatalf("%s: mirror not converged after reconciling: %s", step.name, why)
		}
	}
	for _, rep := range []*Replica{peer, r, mirror} {
		if err := rep.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReconcileViewPatchDigestsOnlyQueuedItems(t *testing.T) {
	peer, r := NewReplica(0, 2), NewReplica(1, 2)
	reconcileFill(t, r, 2000, 'a')
	if got := queued(r); got != 0 {
		t.Fatalf("%d items queued before any summary exists, want 0", got)
	}
	r.syncDigests()
	if got := r.digests.Load(); got != 2000 {
		t.Fatalf("first build digested %d items, want all 2000", got)
	}

	// 40 distinct keys, each written three times: queued once each.
	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			if err := r.Update(fmt.Sprintf("item/%04d", i*50), op.NewSet([]byte{'b', byte(round)})); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := queued(r); got != 40 {
		t.Fatalf("queue holds %d entries, want the 40 distinct items", got)
	}
	digests := r.digests.Load()
	r.syncDigests()
	if got := r.digests.Load() - digests; got != 40 {
		t.Errorf("patch digested %d items, want the 40 queued", got)
	}
	if got := queued(r); got != 0 {
		t.Errorf("queue holds %d entries after the patch, want 0", got)
	}
	checkSummaryFresh(t, r, "version-only patch")

	// Repeated serves on unchanged state digest nothing.
	digests = r.digests.Load()
	for i := 0; i < 10; i++ {
		r.ServeReconcile([]ReconcileRange{{}})
	}
	if got := r.digests.Load() - digests; got != 0 {
		t.Errorf("repeated serves on unchanged state digested %d items", got)
	}

	// New keys are appended to the slab; a materialized zero-state key (an
	// out-of-bound copy touches only the auxiliary copy) stays out.
	if err := peer.Update("oob/key", op.NewSet([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	r.CopyOutOfBound("oob/key", peer)
	for _, key := range []string{"item/0007", "new/a", "new/b", "aaa/first", "zzz/last"} {
		if err := r.Update(key, op.NewSet([]byte("n"))); err != nil {
			t.Fatal(err)
		}
	}
	digests = r.digests.Load()
	r.syncDigests()
	if got := r.digests.Load() - digests; got != 5 {
		t.Errorf("patch with new keys digested %d items, want the 5 queued", got)
	}
	checkSummaryFresh(t, r, "patch with new keys")

	// Half the keys queued: the summary still digests only those.
	for i := 0; i < 1000; i++ {
		if err := r.Update(fmt.Sprintf("item/%04d", i), op.NewSet([]byte("h"))); err != nil {
			t.Fatal(err)
		}
	}
	digests = r.digests.Load()
	r.syncDigests()
	if got := r.digests.Load() - digests; got != 1000 {
		t.Errorf("large patch digested %d items, want the 1000 queued", got)
	}
	checkSummaryFresh(t, r, "large patch")
}

func TestReconcileViewPatchMatchesScratchRandomized(t *testing.T) {
	// Every path that changes a regular copy must queue it, or a patched
	// summary silently keeps a stale digest. Random schedules over every
	// mutation path, with a small log cap so pulls divert to reconciling,
	// check each replica's maintained summary against a from-scratch build
	// after every step. Each replica builds its summary
	// first, so every step's changes are patched in.
	// Odd seeds ship deltas. Writers are disjoint (replica i writes keys ≡
	// i mod 3), so only out-of-bound updates can conflict.
	const seeds, steps, keys = 60, 120, 42
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var opts []Option
		if seed%2 == 1 {
			opts = append(opts, WithDeltaPropagationDepth(2)) // delta adoption
		}
		reps := []*Replica{NewReplica(0, 3, opts...), NewReplica(1, 3, opts...), NewReplica(2, 3, opts...)}
		for _, r := range reps {
			r.SetLogCap(8)
			var peers []int
			for _, o := range reps {
				if o != r {
					peers = append(peers, o.ID())
				}
			}
			r.ConfigurePruning(peers)
			r.syncDigests()
		}
		pair := func() (*Replica, *Replica) {
			i := rng.Intn(len(reps))
			j := (i + 1 + rng.Intn(len(reps)-1)) % len(reps)
			return reps[i], reps[j]
		}
		key := func(owner *Replica) string {
			return fmt.Sprintf("k/%02d", rng.Intn(keys/len(reps))*len(reps)+owner.ID())
		}
		conflicted := 0
		for step := 0; step < steps; step++ {
			var what string
			switch rng.Intn(10) {
			case 0, 1:
				what = "update"
				r := reps[rng.Intn(len(reps))]
				if err := r.Update(key(r), op.NewSet([]byte{byte(seed), byte(step)})); err != nil {
					t.Fatal(err)
				}
			case 2:
				what = "anti-entropy"
				a, b := pair()
				AntiEntropy(a, b)
			case 3:
				what = "stream anti-entropy"
				a, b := pair()
				streamAntiEntropy(a, b, 1)
			case 4:
				what = "reconcile anti-entropy"
				a, b := pair()
				ReconcileAntiEntropy(a, b)
			case 5:
				what = "prune"
				reps[rng.Intn(len(reps))].Prune()
			case 6:
				what = "oob + intra-node"
				a, b := pair()
				k := key(b)
				a.CopyOutOfBound(k, b)
				if err := a.Update(k, op.NewSet([]byte{'o', byte(step)})); err != nil {
					t.Fatal(err)
				}
				a.RunIntraNodePropagation()
			case 7:
				what = "grow"
				r := reps[rng.Intn(len(reps))]
				if n := r.Servers(); n < 6 {
					r.Grow(n + 1)
				}
			case 8:
				what = "start reconcile"
				reps[rng.Intn(len(reps))].StartReconcile()
			case 9:
				// An out-of-bound copy of a key the replica lacks
				// materializes its regular copy in the zero state.
				what = "zero-state key"
				a, b := pair()
				a.CopyOutOfBound(key(b), b)
			}
			for _, r := range reps {
				checkSummaryFresh(t, r, fmt.Sprintf("seed %d, step %d (%s)", seed, step, what))
			}
		}
		for _, r := range reps {
			conflicted += len(r.Conflicts())
		}
		if conflicted > 0 {
			// A declared conflict suspends the protocol's guarantees for
			// its item (§5.1); the summary must still be exact, checked
			// above.
			continue
		}
		for _, r := range reps {
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	}
}

func TestReconcileConcurrentSessionsOfOneSource(t *testing.T) {
	// Several recipients reconcile against one source at once while it
	// takes writes: sessions race the summary's patches.
	// Meant for -race; afterwards one quiet session per recipient must
	// converge it.
	const recipients, items = 4, 300
	src := NewReplica(0, recipients+1)
	reconcileFill(t, src, items, 'a')

	stop := make(chan struct{})
	var writer, sessions sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := src.Update(fmt.Sprintf("item/%04d", i%items), op.NewSet([]byte{'w', byte(i)})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	dsts := make([]*Replica, recipients)
	for j := range dsts {
		dsts[j] = NewReplica(j+1, recipients+1)
		sessions.Add(1)
		go func(dst *Replica) {
			defer sessions.Done()
			for k := 0; k < 10; k++ {
				ReconcileAntiEntropy(dst, src)
			}
		}(dsts[j])
	}
	sessions.Wait()
	close(stop)
	writer.Wait()

	for _, dst := range dsts {
		ReconcileAntiEntropy(dst, src)
		if ok, why := Converged(dst, src); !ok {
			t.Fatalf("recipient %d not converged: %s", dst.ID(), why)
		}
		if err := dst.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReconcileNeedKeysMatchesBruteForce(t *testing.T) {
	// The adversarial pattern for XOR range fingerprints: sequential keys,
	// every copy at IVV {1}, and a random subset moved to {2} at the
	// source. A digest whose per-item change is not an independent 64-bit
	// value lets two changed items in one range cancel, and the session
	// then misses both. NeedKeys must be exactly the brute-force set of
	// keys whose source copy differs.
	const keys, seeds = 2000, 100
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := NewReplica(0, 2)
		dst := NewReplica(1, 2)
		for i := 0; i < keys; i++ {
			if err := src.Update(fmt.Sprintf("item-%06d", i), op.NewSet([]byte{'a'})); err != nil {
				t.Fatal(err)
			}
		}
		AntiEntropy(dst, src)

		var want []string
		changeOneIn := 2 + rng.Intn(30)
		for i := 0; i < keys; i++ {
			if rng.Intn(changeOneIn) != 0 {
				continue
			}
			key := fmt.Sprintf("item-%06d", i)
			if err := src.Update(key, op.NewSet([]byte{'b'})); err != nil {
				t.Fatal(err)
			}
			want = append(want, key)
		}

		rc := dst.StartReconcile()
		for ranges := rc.Next(); ranges != nil; ranges = rc.Next() {
			rc.Handle(ranges, src.ServeReconcile(ranges))
		}
		got := slices.Clone(rc.NeedKeys())
		slices.Sort(got)
		if !slices.Equal(got, want) {
			missed := 0
			for _, key := range want {
				if _, found := slices.BinarySearch(got, key); !found {
					missed++
				}
			}
			t.Fatalf("seed %d: NeedKeys has %d keys, brute force %d (%d missed)", seed, len(got), len(want), missed)
		}
	}
}

func TestItemDigestInsensitiveToVectorLength(t *testing.T) {
	// Grown vectors that are component-wise equal must digest identically,
	// or reconciliation between differently-grown replicas would see phantom
	// diffs on every key.
	a := itemDigest("k", vv.VV{3, 0, 7})
	b := itemDigest("k", vv.VV{3, 0, 7, 0, 0})
	if a != b {
		t.Error("padded vector digests differently")
	}
	if itemDigest("k", vv.VV{3, 0, 7}) == itemDigest("k", vv.VV{3, 7, 0}) {
		t.Error("component position not covered by digest")
	}
	if itemDigest("k", vv.VV{3}) == itemDigest("l", vv.VV{3}) {
		t.Error("key not covered by digest")
	}
}

func TestReconcileDigestCollisionFallsBackToListing(t *testing.T) {
	// Two items holding one digest leave the index unable to say which key
	// a decoded digest names. A sketch that decodes such a digest fails,
	// and so does its retry; the listing still finds the exact difference.
	src, dst := NewReplica(0, 2), NewReplica(1, 2)
	reconcileFill(t, src, 2000, 'a')
	AntiEntropy(dst, src)
	changed := []string{"item/0100", "item/0900"}
	for _, key := range changed {
		if err := src.Update(key, op.NewSet([]byte("b"))); err != nil {
			t.Fatal(err)
		}
	}
	// Plant the collision: on both replicas, item/0500 — equal on both —
	// takes the digest of the source's new copy of item/0100. The sketch
	// then decodes that digest as the source's alone, and the source holds
	// it twice.
	src.syncDigests()
	dst.syncDigests()
	src.ctl.Lock()
	g := src.sum.fps[slabEntry(src, changed[0])]
	src.ctl.Unlock()
	for _, r := range []*Replica{src, dst} {
		r.ctl.Lock()
		r.sum.move(slabEntry(r, "item/0500"), g)
		r.ctl.Unlock()
	}

	sketches, listed := 0, 0
	rc := dst.StartReconcile()
	for ranges := rc.Next(); ranges != nil; ranges = rc.Next() {
		replies := src.ServeReconcile(ranges)
		for i, rr := range ranges {
			if len(rr.Sketch) > 0 {
				sketches++
			}
			if len(replies[i].Keys) == 2000 {
				listed++
			}
		}
		if err := rc.Handle(ranges, replies); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.Err(); err != nil {
		t.Fatal(err)
	}
	if sketches != 2 || listed != 1 {
		t.Errorf("%d sketches sent, %d listings; want a sketch and its retry, answered with the listing", sketches, listed)
	}
	got := slices.Clone(rc.NeedKeys())
	slices.Sort(got)
	if !slices.Equal(got, changed) {
		t.Fatalf("NeedKeys = %v, want %v", got, changed)
	}
}

// slabEntry returns the slab position of key at r. Caller holds r.ctl.
func slabEntry(r *Replica, key string) int32 {
	for i, it := range r.sum.items {
		if it.Key == key {
			return int32(i)
		}
	}
	panic("no slab entry for " + key)
}

// TestReconcileCounts is the reconciliation cost table: one N = 5000
// replica pair per row, differing as the row says. Each row asserts that
// NeedKeys is exactly the brute-force difference, which path the session
// took, its exact round trips, a ceiling on the control bytes both sides
// charged, and that each side digested only the items changed since its
// last session. The ceilings of the first four rows are the bytes the
// range-split protocol sent for them; the rest allow 1.25 times its bytes
// (the hot-key rows sent 28 444, 66 367 and 16 149 B in 3 round trips).
func TestReconcileCounts(t *testing.T) {
	const n = 5000
	key := func(i int) string { return fmt.Sprintf("item-%06d", i) }
	scattered := func(seed int64, k int) []int {
		return rand.New(rand.NewSource(seed)).Perm(n)[:k]
	}
	contiguous := func(from, k int) []int {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = from + i
		}
		return idx
	}
	const (
		match  = "match"  // the root fingerprints agree
		sketch = "sketch" // the stamp-sized sketch peeled
		strata = "strata" // the estimate-sized sketch peeled
		retry  = "retry"  // the retry sketch peeled
		list   = "list"   // the source listed its slab
	)
	for _, row := range []struct {
		name     string
		empty    bool  // the recipient starts with nothing
		rewrite  []int // keys the source rewrites before the session
		updates  int   // rewrites made round-robin over rewrite, when more than one each
		racing   []int // keys the source rewrites between rounds 1 and 2
		path     string
		trips    uint64
		maxBytes uint64
	}{
		{name: "d=0", path: match, trips: 1, maxBytes: 22},
		{name: "1 rewrite", rewrite: []int{2500}, path: sketch, trips: 2, maxBytes: 682},
		{name: "40 contiguous", rewrite: contiguous(1000, 40), path: sketch, trips: 2, maxBytes: 2976},
		{name: "250 scattered", rewrite: scattered(1, 250), path: sketch, trips: 2, maxBytes: 14_669},
		{name: "2500 scattered", rewrite: scattered(2, 2500), path: list, trips: 2, maxBytes: 119_284},
		{name: "empty recipient", empty: true, path: list, trips: 1, maxBytes: 119_266},
		{name: "D under-counts", rewrite: scattered(3, 250), racing: scattered(4, 250), path: retry, trips: 3, maxBytes: 117_025},
		{name: "50 hot keys", rewrite: scattered(5, 50), updates: 3000, path: strata, trips: 3, maxBytes: 35_555},
		{name: "200 hot keys", rewrite: scattered(5, 200), updates: 3000, path: strata, trips: 3, maxBytes: 82_958},
		{name: "20 hot keys", rewrite: scattered(5, 20), updates: 2500, path: strata, trips: 3, maxBytes: 20_186},
	} {
		t.Run(row.name, func(t *testing.T) {
			src, dst := NewReplica(0, 2), NewReplica(1, 2)
			for i := 0; i < n; i++ {
				if err := src.Update(key(i), op.NewSet([]byte{'a'})); err != nil {
					t.Fatal(err)
				}
			}
			if !row.empty {
				AntiEntropy(dst, src)
			}
			// Both replicas have reconciled before: their summaries exist.
			src.syncDigests()
			dst.syncDigests()
			rewrite := func(idx []int, tag byte) {
				for _, i := range idx {
					if err := src.Update(key(i), op.NewSet([]byte{tag})); err != nil {
						t.Fatal(err)
					}
				}
			}
			rewrite(row.rewrite, 'b')
			for u := len(row.rewrite); u < row.updates; u++ {
				if err := src.Update(key(row.rewrite[u%len(row.rewrite)]), op.NewSet([]byte{'b', byte(u)})); err != nil {
					t.Fatal(err)
				}
			}

			srcBefore, dstBefore := src.Metrics(), dst.Metrics()
			srcDigests, dstDigests := src.digests.Load(), dst.digests.Load()
			// The path is read off what was sent: a keys reply to a range
			// without a sketch, or one naming every source key, is the
			// listing.
			sketched, estimated, retried, listed := false, false, false, false
			rc := dst.StartReconcile()
			for ranges := rc.Next(); ranges != nil; ranges = rc.Next() {
				if rc.Rounds() == 2 {
					rewrite(row.racing, 'c')
				}
				replies := src.ServeReconcile(ranges)
				for i, rr := range ranges {
					sketched = sketched || len(rr.Sketch) > 0
					estimated = estimated || len(rr.Strata) > 0
					retried = retried || rr.Retry
					if rp := replies[i]; !rp.Match && rp.SketchCells == 0 && !rp.Strata {
						listed = len(rr.Sketch) == 0 || len(rp.Keys) == n
					}
				}
				if err := rc.Handle(ranges, replies); err != nil {
					t.Fatal(err)
				}
			}
			if err := rc.Err(); err != nil {
				t.Fatal(err)
			}

			// Brute force: every source key whose digest the recipient
			// lacks.
			var want []string
			dkeys, dfps := scratchView(dst)
			skeys, sfps := scratchView(src)
			for i, k := range skeys {
				if j, found := slices.BinarySearch(dkeys, k); !found || dfps[j] != sfps[i] {
					want = append(want, k)
				}
			}
			got := slices.Clone(rc.NeedKeys())
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("NeedKeys has %d keys, brute force %d", len(got), len(want))
			}

			path := match
			switch {
			case listed:
				path = list
			case retried:
				path = retry
			case estimated:
				path = strata
			case sketched:
				path = sketch
			}
			trips := dst.Metrics().Diff(dstBefore).ReconcileRoundTrips
			bytes := dst.Metrics().Diff(dstBefore).ReconcileBytes + src.Metrics().Diff(srcBefore).ReconcileBytes
			t.Logf("%d differing keys: %s path, %d round trips, %d B", len(want), path, trips, bytes)
			if path != row.path || trips != row.trips {
				t.Errorf("path %s in %d round trips, want %s in %d", path, trips, row.path, row.trips)
			}
			if bytes > row.maxBytes {
				t.Errorf("control traffic %d B, ceiling %d B", bytes, row.maxBytes)
			}
			distinct := len(row.rewrite) + len(row.racing)
			if got := src.digests.Load() - srcDigests; got != uint64(distinct) {
				t.Errorf("source digested %d items, want the %d it changed", got, distinct)
			}
			if got := dst.digests.Load() - dstDigests; got != 0 {
				t.Errorf("recipient digested %d items, want 0", got)
			}
		})
	}
}

// TestReconcileStopsShortWithAnError covers the ways a session can stop
// with its difference unsettled: a round answered with too few replies, a
// sketch request larger than the recipient's own items justify, and a
// server that never settles until the round cap.
func TestReconcileStopsShortWithAnError(t *testing.T) {
	src, dst := NewReplica(0, 2), NewReplica(1, 2)
	reconcileFill(t, src, 100, 'a')

	rc := dst.StartReconcile()
	ranges := rc.Next()
	if err := rc.Handle(ranges, nil); err == nil {
		t.Fatal("a round with no replies was accepted")
	}
	if rc.Next() != nil || rc.Err() == nil {
		t.Fatal("session went on after a short round")
	}

	rc = dst.StartReconcile()
	ranges = rc.Next()
	if err := rc.Handle(ranges, []ReconcileReply{{SketchCells: 1 << 40}}); err == nil {
		t.Fatal("an oversized sketch request was accepted")
	}
	if rc.Next() != nil || rc.Err() == nil {
		t.Fatal("session went on after an oversized sketch request")
	}

	rc = dst.StartReconcile()
	for ranges := rc.Next(); ranges != nil; ranges = rc.Next() {
		replies := make([]ReconcileReply, len(ranges))
		for i := range replies {
			replies[i] = ReconcileReply{Strata: true}
		}
		if err := rc.Handle(ranges, replies); err != nil {
			t.Fatal(err)
		}
	}
	if rc.Err() == nil || rc.Rounds() != reconcileMaxRounds {
		t.Fatalf("after %d rounds err = %v, want the round-cap error", rc.Rounds(), rc.Err())
	}
	if got := ReconcileAntiEntropy(dst, src); got != 100 {
		t.Fatalf("a complete session adopted %d items, want 100", got)
	}
}

// TestServeReconcileRefusesAnyRoundButOneRoot: a reply may list the whole
// slab, so a server that answered every range of a request would list it
// once per range, and a request of a few kilobytes could make it allocate
// and send gigabytes. A round sends exactly one root; the server answers a
// request of any other count with nothing, in bounded memory, and the peer
// interface refuses it with an error.
func TestServeReconcileRefusesAnyRoundButOneRoot(t *testing.T) {
	const items = 20_000
	src := NewReplica(0, 2)
	for i := 0; i < items; i++ {
		if err := src.Update(fmt.Sprintf("item/%05d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	bogus := ReconcileRange{Fp: 1} // no stamp, no sketch: answered by the listing
	if replies := src.ServeReconcile([]ReconcileRange{bogus}); len(replies) != 1 || len(replies[0].Keys) != items {
		t.Fatalf("one unstamped root got %d replies, want the %d-item listing", len(replies), items)
	}

	ranges := make([]ReconcileRange, 1000)
	for i := range ranges {
		ranges[i] = bogus
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replies := src.ServeReconcile(ranges)
	runtime.ReadMemStats(&after)
	if replies != nil {
		t.Fatalf("a %d-range request got %d replies, want none", len(ranges), len(replies))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Errorf("refusing a %d-range request allocated %d B", len(ranges), alloc)
	}
	if got := src.ServeReconcile(nil); got != nil {
		t.Errorf("an empty request got %d replies, want none", len(got))
	}

	peer := &LocalPeer{parts: []*Replica{src}}
	for _, n := range []int{0, 2, len(ranges)} {
		if _, err := peer.Reconcile(nil, 0, ranges[:n]); err == nil {
			t.Errorf("LocalPeer.Reconcile answered a %d-range round", n)
		}
	}
	if replies, err := peer.Reconcile(nil, 0, ranges[:1]); err != nil || len(replies) != 1 {
		t.Errorf("LocalPeer.Reconcile of one root: %d replies, err %v", len(replies), err)
	}
}
