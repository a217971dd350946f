package transport

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/op"
)

// diffRow is one history a recipient pulls through: run writes it into the
// source and pulls at the points it calls for; wrap, when non-nil, wraps
// the peer of a pull (the racing row rewrites between two rounds). The
// history reconciles, and leaves conflicts, as the row says.
type diffRow struct {
	name      string
	parts     int
	delta     bool
	reconcile bool
	conflicts int
	run       func(t *testing.T, src, dst *core.Partitioned, pull func(wrap func(core.Peer) core.Peer))
}

// racingPeer rewrites keys at the source just before the second
// reconciliation round, as TestReconcileCounts' racing row does.
type racingPeer struct {
	core.Peer
	rounds  int
	rewrite func()
}

func (p *racingPeer) Reconcile(r *core.Replica, pid int, ranges []core.ReconcileRange) ([]core.ReconcileReply, error) {
	if p.rounds++; p.rounds == 2 {
		p.rewrite()
	}
	return p.Peer.Reconcile(r, pid, ranges)
}

// cappedLocal is a LocalPeer announcing the wire's inline cap, so a pull
// into in-memory sinks plans and streams as it does over TCP.
type cappedLocal struct{ *core.LocalPeer }

func (cappedLocal) Limits() (int, uint64) { return 1, DefaultMonolithicCap }

// pullResult is what a differential row compares: the source and the
// recipient after the history.
type pullResult struct {
	src, dst *core.Partitioned
}

// TestPullLocalMatchesTCP runs the histories of TestDurablePullMatchesVolatile
// (internal/durable) and TestReconcileCounts (internal/core) twice, through
// core.Pull over a LocalPeer and over a loopback server, into in-memory and
// durable recipients, and asserts the two runs end alike: DBVVs, items and
// conflicts, and the protocol-shape counters of both ends. The Local peer
// announces the wire's inline cap (cappedLocal). Conflicts on fetched copies are attributed to -1
// on both paths.
func TestPullLocalMatchesTCP(t *testing.T) {
	for _, row := range diffRows() {
		for _, durableSink := range []bool{false, true} {
			name := row.name + "/memory"
			if durableSink {
				name = row.name + "/durable"
			}
			t.Run(name, func(t *testing.T) {
				local := runDiffRow(t, row, durableSink, false)
				tcp := runDiffRow(t, row, durableSink, true)
				for _, pid := range local.dst.Owned() {
					l, w := local.dst.Partition(pid), tcp.dst.Partition(pid)
					if !l.DBVV().Equal(w.DBVV()) {
						t.Errorf("partition %d: DBVV %v over Local, %v over TCP", pid, l.DBVV(), w.DBVV())
					}
					if ok, why := l.Snapshot().Equivalent(w.Snapshot()); !ok {
						t.Errorf("partition %d: items differ: %s", pid, why)
					}
					if lc, wc := fmt.Sprint(l.Conflicts()), fmt.Sprint(w.Conflicts()); lc != wc {
						t.Errorf("partition %d: conflicts %s over Local, %s over TCP", pid, lc, wc)
					}
					for side, pair := range map[string][2]*core.Replica{
						"recipient": {l, w},
						"source":    {local.src.Partition(pid), tcp.src.Partition(pid)},
					} {
						lm, wm := pair[0].Metrics(), pair[1].Metrics()
						if lm.DBVVComparisons != wm.DBVVComparisons || lm.ItemsExamined != wm.ItemsExamined ||
							lm.LogRecordsSent != wm.LogRecordsSent {
							t.Errorf("partition %d %s: DBVV comparisons/items examined/log records sent %d/%d/%d over Local, %d/%d/%d over TCP",
								pid, side, lm.DBVVComparisons, lm.ItemsExamined, lm.LogRecordsSent,
								wm.DBVVComparisons, wm.ItemsExamined, wm.LogRecordsSent)
						}
					}
				}
				if got := tcp.dst.Metrics().ReconcileSessions > 0; got != row.reconcile {
					t.Errorf("reconciled = %v, want %v", got, row.reconcile)
				}
				if got := len(tcp.dst.Conflicts()); got != row.conflicts {
					t.Errorf("%d conflicts, want %d", got, row.conflicts)
				}
				if ok, why := core.PartConverged(tcp.src, tcp.dst); !ok && row.conflicts == 0 {
					t.Errorf("recipient did not converge: %s", why)
				}
			})
		}
	}
}

// runDiffRow runs row against a fresh source and recipient, pulling over
// TCP or over the source's LocalPeer.
func runDiffRow(t *testing.T, row diffRow, durableSink, overTCP bool) pullResult {
	t.Helper()
	parts := max(row.parts, 1)
	var copts []core.Option
	if row.delta {
		copts = append(copts, core.WithDeltaPropagation())
	}
	src := core.NewPartitioned(0, 2, parts, 2, copts...)
	dst := core.NewPartitioned(1, 2, parts, 2, copts...)
	sinks := memSinks(dst)
	if durableSink {
		dp, err := durable.OpenPartitioned(t.TempDir(), 1, 2, parts, 2,
			durable.Options{NoSync: true, SnapshotEvery: 1 << 30, CoreOptions: copts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dp.Close() })
		dst = dp.Parted()
		for _, pid := range dst.Owned() {
			sinks[pid] = dp.Partition(pid)
		}
	}
	var p core.Peer = cappedLocal{core.Local(src)}
	if overTCP {
		srv, err := ListenPart(src, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c := NewClient(Options{})
		t.Cleanup(c.Close)
		p = peer{c: c, addr: srv.Addr(), node: dst}
	}
	row.run(t, src, dst, func(wrap func(core.Peer) core.Peer) {
		t.Helper()
		pp := p
		if wrap != nil {
			pp = wrap(p)
		}
		if _, err := core.Pull(dst, sinks, pp); err != nil {
			t.Fatal(err)
		}
	})
	return pullResult{src: src, dst: dst}
}

func diffRows() []diffRow {
	update := func(t *testing.T, pr *core.Partitioned, key string, o op.Op) {
		t.Helper()
		if err := pr.Update(key, o); err != nil {
			t.Fatal(err)
		}
	}
	// TestDurablePullMatchesVolatile's history: 40 items, then every
	// fourth moves two versions on (in delta mode the second pull fetches),
	// optionally with the source's log capped past the recipient.
	plain := func(reconcile bool) func(*testing.T, *core.Partitioned, *core.Partitioned, func(func(core.Peer) core.Peer)) {
		return func(t *testing.T, src, _ *core.Partitioned, pull func(func(core.Peer) core.Peer)) {
			key := func(i int) string { return fmt.Sprintf("item/%03d", i) }
			for i := 0; i < 40; i++ {
				update(t, src, key(i), op.NewSet([]byte{byte(i)}))
			}
			pull(nil)
			for i := 0; i < 40; i += 4 {
				update(t, src, key(i), op.NewSet([]byte{0xF0, byte(i)}))
				update(t, src, key(i), op.NewAppend([]byte{0x0F}))
			}
			if reconcile {
				src.Partition(0).SetLogCap(8)
				src.Partition(0).Prune()
			}
			pull(nil)
		}
	}
	rows := []diffRow{
		{name: "inline", run: plain(false)},
		{name: "delta-fetch-round", delta: true, run: plain(false)},
		{name: "reconcile-divert", reconcile: true, run: plain(true)},
		{name: "partitioned-one-diverted", parts: 4, reconcile: true, run: func(t *testing.T, src, _ *core.Partitioned, pull func(func(core.Peer) core.Peer)) {
			for round := byte(0); round < 2; round++ {
				for i := 0; i < 60; i++ {
					update(t, src, fmt.Sprintf("item/%03d", i), op.NewSet([]byte{round, byte(i)}))
				}
				if round == 1 {
					src.Partition(0).SetLogCap(8)
					src.Partition(0).Prune()
				}
				pull(nil)
			}
		}},
	}

	// TestReconcileCounts' histories: 5 000 items the recipient holds (or
	// not), rewrites it never saw, and the source's log capped at one
	// record, so two or more rewrites divert the pull to reconciliation.
	const n = 5000
	key := func(i int) string { return fmt.Sprintf("item-%06d", i) }
	scattered := func(seed int64, k int) []int { return rand.New(rand.NewSource(seed)).Perm(n)[:k] }
	contiguous := func(from, k int) []int {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = from + i
		}
		return idx
	}
	counts := func(empty bool, rewrite, racing []int, localWrite int) func(*testing.T, *core.Partitioned, *core.Partitioned, func(func(core.Peer) core.Peer)) {
		return func(t *testing.T, src, dst *core.Partitioned, pull func(func(core.Peer) core.Peer)) {
			for i := 0; i < n; i++ {
				update(t, src, key(i), op.NewSet([]byte{'a'}))
			}
			if !empty {
				pull(nil)
			}
			for _, i := range rewrite {
				update(t, src, key(i), op.NewSet([]byte{'b'}))
			}
			if localWrite >= 0 {
				update(t, dst, key(localWrite), op.NewSet([]byte{'x'}))
			}
			src.Partition(0).SetLogCap(1)
			src.Partition(0).Prune()
			pull(func(p core.Peer) core.Peer {
				return &racingPeer{Peer: p, rewrite: func() {
					for _, i := range racing {
						update(t, src, key(i), op.NewSet([]byte{'c'}))
					}
				}}
			})
		}
	}
	return append(rows,
		diffRow{name: "d=0", run: counts(false, nil, nil, -1)},
		diffRow{name: "1 rewrite", run: counts(false, []int{2500}, nil, -1)},
		diffRow{name: "40 contiguous", reconcile: true, run: counts(false, contiguous(1000, 40), nil, -1)},
		diffRow{name: "250 scattered", reconcile: true, run: counts(false, scattered(1, 250), nil, -1)},
		diffRow{name: "2500 scattered", reconcile: true, run: counts(false, scattered(2, 2500), nil, -1)},
		diffRow{name: "empty recipient", reconcile: true, run: counts(true, nil, nil, -1)},
		diffRow{name: "D under-counts", reconcile: true, run: counts(false, scattered(3, 250), scattered(4, 250), -1)},
		diffRow{name: "conflicting rewrite", reconcile: true, conflicts: 1, run: counts(false, contiguous(2490, 20), nil, 2500)},
	)
}
