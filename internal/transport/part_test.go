package transport

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/ring"
	"repro/internal/vv"
	"repro/internal/wire"
)

// partKeysT finds count distinct keys hashing into partition pid.
func partKeysT(t *testing.T, rg *ring.Ring, pid, count int) []string {
	t.Helper()
	keys := make([]string, 0, count)
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("key/%d/%06d", pid, i)
		if rg.PartitionOf(k) == pid {
			keys = append(keys, k)
		}
		if i > 1_000_000 {
			t.Fatalf("cannot find %d keys for partition %d", count, pid)
		}
	}
	return keys
}

// startPartPair builds two partitioned nodes on the same ring and serves
// node a.
func startPartPair(t *testing.T, servers, partitions, placement int) (a, b *core.Partitioned, srv *Server) {
	t.Helper()
	a = core.NewPartitioned(0, servers, partitions, placement)
	b = core.NewPartitioned(1, servers, partitions, placement)
	srv, err := ListenPart(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return a, b, srv
}

func TestPullPartOverTCP(t *testing.T) {
	a, b, srv := startPartPair(t, 2, 8, 2)
	rg := a.Ring()
	for pid := 0; pid < rg.Partitions(); pid += 2 {
		for _, k := range partKeysT(t, rg, pid, 3) {
			if err := a.Update(k, op.NewSet([]byte("v-"+k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	shipped, err := pullPart(b, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if want := rg.Partitions() / 2; shipped != want {
		t.Fatalf("shipped %d partitions, want %d (only even partitions were written)", shipped, want)
	}
	if ok, why := core.PartConverged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
}

// pruneEveryPartition gives node a 40 keys per partition, lets b catch
// up, then rewrites half of them and prunes a's logs past b, so b's next
// pull diverts every partition to reconciliation. It returns the keys.
func pruneEveryPartition(t *testing.T, a, b *core.Partitioned, srv *Server) [][]string {
	t.Helper()
	a.ConfigurePruning(4)
	rg := a.Ring()
	keys := make([][]string, rg.Partitions())
	for pid := range keys {
		keys[pid] = partKeysT(t, rg, pid, 40)
		for _, k := range keys[pid] {
			if err := a.Update(k, op.NewSet([]byte("v0"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := pullPart(b, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	for pid := range keys {
		for _, k := range keys[pid][:20] {
			if err := a.Update(k, op.NewSet([]byte("v1"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Prune()
	for pid := range keys {
		if !a.Partition(pid).NeedsReconcile(b.Partition(pid).DBVV()) {
			t.Fatalf("partition %d was not pruned past the recipient", pid)
		}
	}
	return keys
}

func TestPullPartReconcilesPartitionsConcurrently(t *testing.T) {
	// Every partition is pruned past the recipient, so one pull diverts all
	// four to reconciliation, and they catch up at once while the source
	// keeps writing. Meant for -race.
	a, b, srv := startPartPair(t, 2, 4, 2)
	rg := a.Ring()
	keys := pruneEveryPartition(t, a, b, srv)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := keys[i%len(keys)][i%40]
			if err := a.Update(k, op.NewSet([]byte{'w', byte(i)})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	before := b.Metrics().ReconcileSessions
	shipped, err := pullPart(b, srv.Addr())
	close(stop)
	writer.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if shipped != rg.Partitions() {
		t.Errorf("shipped %d partitions, want all %d", shipped, rg.Partitions())
	}
	if got := b.Metrics().ReconcileSessions - before; got < uint64(rg.Partitions()) {
		t.Errorf("%d reconcile sessions, want one per partition (%d)", got, rg.Partitions())
	}

	for i := 0; i < 5; i++ {
		if ok, _ := core.PartConverged(a, b); ok {
			break
		}
		if _, err := pullPart(b, srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	if ok, why := core.PartConverged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
	for _, n := range []*core.Partitioned{a, b} {
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPullPartFanOutKeepsItsConnections(t *testing.T) {
	// Twelve diverted partitions and a pool that keeps four idle
	// connections per peer: the catch-ups run at most four at a time, so
	// the pull dials at most four connections and discards none.
	a, b, srv := startPartPair(t, 2, 12, 2)
	pruneEveryPartition(t, a, b, srv)
	c := NewClient(Options{Pool: PoolOptions{MaxIdlePerHost: 4}})
	defer c.Close()
	shipped, err := c.PullPart(b, memSinks(b), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 12 {
		t.Errorf("shipped %d partitions, want all 12", shipped)
	}
	st := c.PoolStats()
	if st.Dials > 4 || st.Retired != 0 {
		t.Errorf("pull dialed %d connections and retired %d, want at most 4 and 0", st.Dials, st.Retired)
	}
	if ok, why := core.PartConverged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
}

// A no-op partitioned session must cost the source exactly one DBVV
// comparison per shared partition — the paper's O(1) identical-check,
// multiplied only by the number of partitions the pair shares.
func TestPullPartNoopCostsExactlyKComparisons(t *testing.T) {
	a, b, srv := startPartPair(t, 2, 16, 2)
	rg := a.Ring()
	for _, k := range partKeysT(t, rg, 3, 5) {
		a.Update(k, op.NewSet([]byte("x")))
	}
	if _, err := pullPart(b, srv.Addr()); err != nil {
		t.Fatal(err)
	}

	k := len(rg.Shared(0, 1))
	before := a.Metrics()
	shipped, err := pullPart(b, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 0 {
		t.Fatalf("no-op session shipped %d partitions", shipped)
	}
	d := a.Metrics().Diff(before)
	if d.DBVVComparisons != uint64(k) {
		t.Errorf("no-op session cost %d DBVV comparisons, want exactly %d", d.DBVVComparisons, k)
	}
	if d.PropagationNoops != uint64(k) {
		t.Errorf("no-op session recorded %d noops, want %d", d.PropagationNoops, k)
	}
	if d.ItemsExamined != 0 || d.ItemsSent != 0 || d.LogRecordsSent != 0 {
		t.Errorf("no-op session touched items: examined=%d sent=%d records=%d",
			d.ItemsExamined, d.ItemsSent, d.LogRecordsSent)
	}
}

// With placement < servers the pair shares only part of the ring; the
// session must negotiate exactly the shared partitions and converge them,
// answering Unowned for the rest without error.
func TestPullPartPartialPlacement(t *testing.T) {
	const servers, partitions, placement = 4, 16, 2
	nodes := make([]*core.Partitioned, servers)
	for id := range nodes {
		nodes[id] = core.NewPartitioned(id, servers, partitions, placement)
	}
	a, b := nodes[0], nodes[1]
	rg := a.Ring()
	shared := rg.Shared(0, 1)
	if len(shared) == 0 {
		t.Skip("ring layout left nodes 0 and 1 with no shared partitions")
	}
	srv, err := ListenPart(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, pid := range a.Owned() {
		for _, k := range partKeysT(t, rg, pid, 2) {
			if err := a.Update(k, op.NewSet([]byte("owned"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	shipped, err := pullPart(b, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shipped != len(shared) {
		t.Fatalf("shipped %d partitions, want the %d shared ones", shipped, len(shared))
	}
	for _, pid := range shared {
		pa, pb := a.Partition(pid), b.Partition(pid)
		if ok, why := core.Converged(pa, pb); !ok {
			t.Errorf("shared partition %d not converged: %s", pid, why)
		}
	}
}

// A write burst confined to one partition must leave every other shared
// partition on the O(1) clean path: exactly one comparison each, items
// examined only in the dirty partition.
func TestPullPartSkipsCleanPartitions(t *testing.T) {
	a, b, srv := startPartPair(t, 2, 16, 2)
	rg := a.Ring()
	if _, err := pullPart(b, srv.Addr()); err != nil {
		t.Fatal(err)
	}

	const burst = 32
	dirty := rg.Shared(0, 1)[0]
	for _, k := range partKeysT(t, rg, dirty, burst) {
		if err := a.Update(k, op.NewSet(bytes.Repeat([]byte("b"), 64))); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Metrics()
	shipped, err := pullPart(b, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 1 {
		t.Fatalf("shipped %d partitions, want 1", shipped)
	}
	d := a.Metrics().Diff(before)
	k := len(rg.Shared(0, 1))
	// The dirty partition costs one extra comparison (plan, then build).
	if d.DBVVComparisons != uint64(k+1) {
		t.Errorf("session cost %d comparisons, want %d (k clean + 2 for the dirty one)", d.DBVVComparisons, k+1)
	}
	if d.ItemsSent != burst {
		t.Errorf("sent %d items, want %d", d.ItemsSent, burst)
	}
	if ok, why := core.PartConverged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
}

// A partition whose payload estimate exceeds the monolithic cap must divert
// to its own chunked stream session while small partitions stay inline.
func TestPullPartStreamsLargePartition(t *testing.T) {
	a, b, srv := startPartPair(t, 2, 8, 2)
	srv.SetChunkBytes(8 << 10)
	rg := a.Ring()
	big := rg.Shared(0, 1)[0]
	small := rg.Shared(0, 1)[1]
	payload := bytes.Repeat([]byte("s"), 64<<10)
	for _, k := range partKeysT(t, rg, big, 40) { // ~2.5 MB > DefaultMonolithicCap
		if err := a.Update(k, op.NewSet(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range partKeysT(t, rg, small, 4) {
		if err := a.Update(k, op.NewSet([]byte("tiny"))); err != nil {
			t.Fatal(err)
		}
	}
	shipped, err := pullPart(b, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 2 {
		t.Fatalf("shipped %d partitions, want 2", shipped)
	}
	if got := a.Metrics().ChunksSent; got == 0 {
		t.Error("large partition did not stream (no chunks sent)")
	}
	if ok, why := core.PartConverged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
}

// loggedSink stands for a durable sink: any sink that is not core.InMemory.
type loggedSink struct{ core.Sink }

// offerLog is a Peer that records every Offer's replies.
type offerLog struct {
	core.Peer
	mu      sync.Mutex
	replies [][]core.PartReply
}

func (o *offerLog) Offer(from int, offers []core.PartState, maxBytes uint64) ([]core.PartReply, error) {
	replies, err := o.Peer.Offer(from, offers, maxBytes)
	o.mu.Lock()
	o.replies = append(o.replies, replies)
	o.mu.Unlock()
	return replies, err
}

// A pull into sinks that are not in memory announces the same cap as any
// other: one negotiation answers the small partition inline and diverts
// the large one to a chunk stream, which the recipient holds a chunk at a
// time.
func TestPullPartLoggedSinksStream(t *testing.T) {
	a, b, srv := startPartPair(t, 2, 8, 2)
	rg := a.Ring()
	big := rg.Shared(0, 1)[0]
	small := rg.Shared(0, 1)[1]
	payload := bytes.Repeat([]byte("s"), 64<<10)
	for _, k := range partKeysT(t, rg, big, 40) { // ~2.5 MB > DefaultMonolithicCap
		if err := a.Update(k, op.NewSet(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range partKeysT(t, rg, small, 6) {
		if err := a.Update(k, op.NewSet([]byte("tiny"))); err != nil {
			t.Fatal(err)
		}
	}
	c := NewClient(Options{})
	defer c.Close()
	sinks := memSinks(b)
	for pid, s := range sinks {
		if s != nil {
			sinks[pid] = loggedSink{s}
		}
	}
	// PullPart's own peer, with its offers recorded.
	log := &offerLog{Peer: peer{c: c, addr: srv.Addr(), node: b}}
	shipped, err := core.Pull(b, sinks, log)
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 2 {
		t.Fatalf("%d partitions shipped, want 2", shipped)
	}
	if len(log.replies) != 1 {
		t.Fatalf("%d offers sent, want 1", len(log.replies))
	}
	for _, pe := range log.replies[0] {
		switch {
		case pe.Reconcile:
			t.Errorf("partition %d diverted to reconciliation", pe.Pid)
		case pe.Pid == big && !pe.Stream:
			t.Errorf("large partition %d not diverted to a stream", pe.Pid)
		case pe.Pid == small && pe.Prop == nil:
			t.Errorf("small partition %d not shipped inline", pe.Pid)
		}
	}
	if got := a.Partition(big).Metrics().ChunksSent; got == 0 {
		t.Error("large partition streamed no chunks")
	}
	if got := b.Partition(small).Metrics().ChunksApplied; got != 0 {
		t.Errorf("small partition applied %d chunks, want an inline payload", got)
	}
	if peak := b.Partition(big).Metrics().PeakPayloadBytes; peak == 0 || peak > 2*core.DefaultChunkBytes {
		t.Errorf("recipient peak payload %d B, want (0, %d]", peak, 2*core.DefaultChunkBytes)
	}
	if ok, why := core.PartConverged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
}

// Single-key exchanges route through the ring on a partitioned server.
func TestOOBAndFetchRouteByRing(t *testing.T) {
	a, b, srv := startPartPair(t, 2, 8, 2)
	rg := a.Ring()
	key := partKeysT(t, rg, 5, 1)[0]
	if err := a.Update(key, op.NewSet([]byte("routed"))); err != nil {
		t.Fatal(err)
	}
	recipient := b.Partition(rg.PartitionOf(key))
	adopted, err := testClient.FetchOOB(core.InMemory(recipient), srv.Addr(), key)
	if err != nil {
		t.Fatal(err)
	}
	if !adopted {
		t.Fatal("OOB fetch did not adopt the newer copy")
	}
	if v, ok := b.Read(key); !ok || string(v) != "routed" {
		t.Fatalf("b.%s = %q/%v after OOB", key, v, ok)
	}

	items, err := peer{c: testClient, addr: srv.Addr()}.Fetch(recipient, []string{key, "missing/key"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Key != key {
		t.Fatalf("fetch returned %+v, want just %s", items, key)
	}
}

// The retired unpartitioned request fails loudly against every node,
// whatever its partition count: no server answers KindPropagation.
func TestPartKindMismatches(t *testing.T) {
	_, _, partSrv := startPartPair(t, 2, 8, 2)
	plainSrv, err := Listen(core.NewReplica(0, 2), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer plainSrv.Close()
	for name, addr := range map[string]string{"P=8": partSrv.Addr(), "P=1": plainSrv.Addr()} {
		var resp wire.Response
		req := wire.Request{Kind: wire.KindPropagation, From: 1, DBVV: vv.VV{0, 0}}
		if err := roundTrip(addr, req, &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(resp.Err, "unknown request kind") || resp.Parts != nil {
			t.Errorf("%s: retired request answered %+v", name, resp)
		}
	}
}
