package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
	"repro/internal/wire"
)

// pruneAwayFrom sets a tight log cap on src and prunes until peer's DBVV
// predates the watermark, so the next log-based pull must divert.
func pruneAwayFrom(t *testing.T, src, peer *core.Replica) {
	t.Helper()
	src.SetLogCap(2)
	if src.Prune() == 0 {
		t.Fatal("setup: prune dropped nothing")
	}
	if !src.NeedsReconcile(peer.DBVV()) {
		t.Fatal("setup: peer still within the retained log")
	}
}

// catchUpSetup builds the E19-shaped pair over TCP: the server holds `base`
// items the client already replicated, then takes `diff` rewrites the
// client never saw and prunes its log past the client's acknowledged DBVV.
func catchUpSetup(t *testing.T, base, diff, valueSize int) (a, b *core.Replica, srv *Server, c *Client, diffBytes uint64) {
	t.Helper()
	a, b, srv = startPair(t)
	a.ConfigurePruning([]int{1})
	c = NewClient(Options{})
	t.Cleanup(func() { c.Close() })

	val := make([]byte, valueSize)
	for i := 0; i < base; i++ {
		val[0] = byte(i)
		if err := a.Update(fmt.Sprintf("item/%05d", i), op.NewSet(val)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pullWith(c, b, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := pullWith(c, b, srv.Addr()); err != nil { // teach a the full ack
		t.Fatal(err)
	}
	for i := 0; i < diff; i++ {
		key := fmt.Sprintf("item/%05d", i*(base/diff))
		val[0] = 0xFF - byte(i)
		if err := a.Update(key, op.NewSet(val)); err != nil {
			t.Fatal(err)
		}
		diffBytes += uint64(len(key) + valueSize + 16)
	}
	pruneAwayFrom(t, a, b)
	return a, b, srv, c, diffBytes
}

func TestPullDivertsToReconcileAndConverges(t *testing.T) {
	const base, diff, valueSize = 400, 10, 512
	a, b, srv, c, diffBytes := catchUpSetup(t, base, diff, valueSize)

	bn := node(b)
	before := bn.Metrics()
	shipped, err := c.PullPart(bn, memSinks(bn), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shipped == 0 {
		t.Fatal("catch-up pull shipped nothing")
	}
	if ok, why := core.Converged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
	d := bn.Metrics().Diff(before)
	if d.ReconcileSessions != 1 {
		t.Errorf("ReconcileSessions = %d, want 1", d.ReconcileSessions)
	}
	if d.ReconcileRoundTrips == 0 || d.ReconcileBytes == 0 {
		t.Errorf("reconcile traffic not charged: %d trips, %d bytes", d.ReconcileRoundTrips, d.ReconcileBytes)
	}

	// The acceptance bound: total session traffic within 3x of the true
	// difference, never O(N) (the full state is ~base/diff times larger).
	moved := d.WireBytesSent + d.WireBytesRecv
	if moved > 3*diffBytes {
		t.Errorf("catch-up moved %d B for a %d B diff, want <= 3x", moved, diffBytes)
	}
	fullState := uint64(base * (10 + valueSize))
	if moved >= fullState/4 {
		t.Errorf("catch-up moved %d B, full state is %d B — O(N) transfer", moved, fullState)
	}
	t.Logf("catch-up: %d B moved for a %d B diff (full state ~%d B)", moved, diffBytes, fullState)
}

func TestPullStreamDivertsToReconcile(t *testing.T) {
	const base, diff, valueSize = 300, 8, 128
	a, b, srv, c, _ := catchUpSetup(t, base, diff, valueSize)

	shipped, err := pullStream(c, b, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !shipped {
		t.Fatal("streamed catch-up shipped nothing")
	}
	if ok, why := core.Converged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
	if m := b.Metrics(); m.ReconcileSessions != 1 {
		t.Errorf("ReconcileSessions = %d, want 1", m.ReconcileSessions)
	}
}

func TestPullSessionMeteredSurfacesErrNeedsReconcile(t *testing.T) {
	_, b, srv, c, _ := catchUpSetup(t, 50, 5, 32)
	_, err := c.PullSessionMetered(b, srv.Addr(), "", b.ID(), b.PropagationRequest())
	if !errors.Is(err, ErrNeedsReconcile) {
		t.Fatalf("err = %v, want ErrNeedsReconcile", err)
	}
}

func TestReconcileSessionComputesDifference(t *testing.T) {
	_, b, srv, c, _ := catchUpSetup(t, 60, 6, 32)
	p := peer{c: c, addr: srv.Addr()}
	rc := b.StartReconcile()
	for ranges := rc.Next(); ranges != nil; ranges = rc.Next() {
		replies, err := p.Reconcile(b, 0, ranges)
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.Handle(ranges, replies); err != nil {
			t.Fatal(err)
		}
	}
	if keys := rc.NeedKeys(); len(keys) != 6 {
		t.Fatalf("difference = %d keys %v, want 6", len(keys), keys)
	}
}

// TestReconcileRequestOfManyRangesIsRefused: a round sends one root, and
// the server answers a reconcile request of any other count with an error
// rather than one listing of its slab per range.
func TestReconcileRequestOfManyRangesIsRefused(t *testing.T) {
	_, b, srv, c, _ := catchUpSetup(t, 60, 6, 32)
	p := peer{c: c, addr: srv.Addr()}
	bogus := core.ReconcileRange{Fp: 1}
	for _, n := range []int{0, 2, 100} {
		ranges := make([]core.ReconcileRange, n)
		for i := range ranges {
			ranges[i] = bogus
		}
		if replies, err := p.Reconcile(b, 0, ranges); err == nil {
			t.Errorf("a %d-range request was answered with %d replies", n, len(replies))
		}
	}
	if replies, err := p.Reconcile(b, 0, []core.ReconcileRange{bogus}); err != nil || len(replies) != 1 {
		t.Fatalf("one root: %d replies, err %v", len(replies), err)
	}
}

func TestPartPullDivertsToReconcile(t *testing.T) {
	const servers, partitions, placement = 2, 4, 2
	pa := core.NewPartitioned(0, servers, partitions, placement)
	pb := core.NewPartitioned(1, servers, partitions, placement)
	pa.ConfigurePruning(0)
	pb.ConfigurePruning(0)
	srv, err := ListenPart(pa, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(Options{})
	defer c.Close()

	for i := 0; i < 200; i++ {
		if err := pa.Update(fmt.Sprintf("k/%04d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.PullPart(pb, memSinks(pb), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PullPart(pb, memSinks(pb), srv.Addr()); err != nil { // acks
		t.Fatal(err)
	}
	// New writes, then cap-force every owned partition past pb's acks.
	for i := 0; i < 200; i++ {
		if err := pa.Update(fmt.Sprintf("k/%04d", i), op.NewSet([]byte{0xFF, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	diverted := false
	for _, pid := range pa.Owned() {
		part := pa.Partition(pid)
		part.SetLogCap(1)
		part.Prune()
		for _, ps := range pb.PartRequest() {
			if ps.Pid == pid && part.NeedsReconcile(ps.DBVV) {
				diverted = true
			}
		}
	}
	if !diverted {
		t.Fatal("setup: no partition pruned past the peer")
	}

	shipped, err := c.PullPart(pb, memSinks(pb), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shipped == 0 {
		t.Fatal("parted catch-up shipped nothing")
	}
	for _, pid := range pa.Owned() {
		av, bv := pa.Partition(pid), pb.Partition(pid)
		if ok, why := core.Converged(av, bv); !ok {
			t.Fatalf("partition %d not converged: %s", pid, why)
		}
	}
	reconciles := uint64(0)
	for _, pid := range pb.Owned() {
		reconciles += pb.Partition(pid).Metrics().ReconcileSessions
	}
	if reconciles == 0 {
		t.Error("no partition used a reconcile session")
	}
}

// TestReconcileShortRoundFetchesNothing runs a pull against a server that
// diverts it to reconciliation and answers every round with its last reply
// missing. The session must fail without fetching: a partial difference committed
// would raise the recipient's pruned watermark past items it never got.
func TestReconcileShortRoundFetchesNothing(t *testing.T) {
	src := core.NewReplica(0, 2)
	for i := 0; i < 400; i++ {
		if err := src.Update(fmt.Sprintf("item/%05d", i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var fetches atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if wire.ReadPreamble(br) != nil {
					return
				}
				for {
					frame, err := wire.ReadFrame(br, wire.FrameRequest, nil)
					if err != nil {
						return
					}
					var req wire.Request
					if err := wire.DecodeRequest(frame, &req); err != nil {
						return
					}
					var resp wire.Response
					switch req.Kind {
					case wire.KindPartPropagation:
						resp.Parts = []core.PartReply{{Pid: 0, Reconcile: true}}
					case wire.KindReconcile:
						resp.Recon = src.ServeReconcile(req.Ranges)
						resp.Recon = resp.Recon[:max(len(resp.Recon)-1, 0)]
					case wire.KindFetch:
						fetches.Add(1)
						resp.Items = src.BuildItems(req.Keys)
					default:
						resp.Err = "unexpected request"
					}
					if err := wire.WriteFrame(conn, wire.FrameResponse, wire.AppendResponse(nil, &resp)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	c := NewClient(Options{})
	defer c.Close()
	dst := core.NewReplica(1, 2)
	shipped, err := pullWith(c, dst, ln.Addr().String())
	if err == nil {
		t.Fatalf("session with a missing reply succeeded (shipped %v)", shipped)
	}
	if n := fetches.Load(); n != 0 || shipped || dst.Items() != 0 {
		t.Fatalf("short session fetched %d batches and adopted %d items, want none", n, dst.Items())
	}
	if dst.NeedsReconcile(vv.VV{}) {
		t.Fatal("short session raised the recipient's pruned watermark")
	}
}
