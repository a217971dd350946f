package durable

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
)

// TestDurablePullMatchesVolatile pulls one source history into an
// in-memory recipient and a durable recipient through the same client
// loop. After every case both hold the same DBVVs and items, and the
// durable side, crashed without a closing snapshot, recovers that state
// from its WAL alone.
func TestDurablePullMatchesVolatile(t *testing.T) {
	for _, tc := range []struct {
		name       string
		delta      bool // delta-mode propagation: the second pull needs a fetch round
		reconcile  bool // the source caps its log at 8 records and prunes past both recipients
		parts      int  // >1: partitioned nodes, with one partition pruned past the recipients
		streamed   bool // the payload exceeds the inline cap, so both recipients stream it
		crashAfter int  // >0: the durable recipient dies after this many chunks
	}{
		{name: "inline"},
		{name: "delta-fetch-round", delta: true},
		{name: "reconcile-divert", reconcile: true},
		{name: "partitioned-one-diverted", reconcile: true, parts: 4},
		{name: "streamed", streamed: true},
		{name: "crash-mid-stream", streamed: true, crashAfter: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var copts []core.Option
			if tc.delta {
				copts = append(copts, core.WithDeltaPropagation())
			}
			opts := Options{NoSync: true, SnapshotEvery: 1 << 30, CoreOptions: copts}
			switch {
			case tc.streamed:
				diffStreamed(t, tc.crashAfter, opts)
			case tc.parts > 1:
				diffPartitioned(t, tc.parts, opts)
			default:
				diffPlain(t, tc.delta, tc.reconcile, opts)
			}
		})
	}
}

func diffKey(i int) string { return fmt.Sprintf("item/%03d", i) }

var errCrash = errors.New("recipient crashed")

// crashSink is a durable sink that dies after `after` chunks: the next
// chunk fails before it is logged.
type crashSink struct {
	*Replica
	after, chunks int
}

func (c *crashSink) ApplyChunk(p *core.Propagation) error {
	if c.chunks == c.after {
		return errCrash
	}
	c.chunks++
	return c.Replica.ApplyChunk(p)
}

// diffStreamed pulls a 2 MiB history, above transport.DefaultMonolithicCap,
// into both recipients, which therefore stream it. With crashAfter > 0 the
// durable recipient first dies after that many chunks and is reopened
// from its WAL alone: it must hold exactly that chunk prefix, and the next
// pull must ship only the rest.
func diffStreamed(t *testing.T, crashAfter int, opts Options) {
	src, addr := startSource(t, opts.CoreOptions...)
	for i := 0; i < 64; i++ {
		val := make([]byte, 32<<10)
		val[0] = byte(i)
		src.Update(diffKey(i), op.NewSet(val))
	}
	mem := core.NewReplica(1, 2, opts.CoreOptions...)
	if _, err := pull(core.InMemory(mem), addr); err != nil {
		t.Fatal(err)
	}
	total := mem.Metrics().LogRecordsApplied
	dir := t.TempDir()
	d := mustOpen(t, dir, 1, 2, opts)
	var replayed uint64
	if crashAfter > 0 {
		if _, err := pull(&crashSink{Replica: d, after: crashAfter}, addr); !errors.Is(err, errCrash) {
			t.Fatalf("pull error = %v, want the crash", err)
		}
		prefix, want := d.Core().Metrics().LogRecordsApplied, d.Core().DBVV()
		if prefix == 0 || prefix >= total {
			t.Fatalf("setup: %d of %d records applied before the crash", prefix, total)
		}
		if err := d.CloseWithoutSnapshot(); err != nil {
			t.Fatal(err)
		}
		d = mustOpen(t, dir, 1, 2, opts)
		if got := d.Core().DBVV(); !got.Equal(want) {
			t.Fatalf("recovered DBVV %v, want the %d-chunk prefix %v", got, crashAfter, want)
		}
		if err := d.Core().CheckInvariants(); err != nil {
			t.Fatalf("recovered prefix: %v", err)
		}
		replayed = d.Core().Metrics().LogRecordsApplied
		total -= prefix
	}
	if _, err := pull(d, addr); err != nil {
		t.Fatal(err)
	}
	dm := d.Core().Metrics()
	if got := dm.LogRecordsApplied - replayed; got != total {
		t.Errorf("durable pull applied %d log records, want %d", got, total)
	}
	if dm.ChunksApplied == 0 || mem.Metrics().ChunksApplied == 0 {
		t.Errorf("chunks applied: durable %d, in memory %d; want both streamed", dm.ChunksApplied, mem.Metrics().ChunksApplied)
	}
	if dm.PeakPayloadBytes == 0 || dm.PeakPayloadBytes > 2*core.DefaultChunkBytes {
		t.Errorf("durable peak payload %d B, want (0, %d]", dm.PeakPayloadBytes, 2*core.DefaultChunkBytes)
	}
	if ok, why := core.Converged(src, mem, d.Core()); !ok {
		t.Fatalf("recipients differ: %s", why)
	}
	if err := d.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, 1, 2, opts)
	defer d2.Close()
	if ok, why := core.Converged(mem, d2.Core()); !ok {
		t.Fatalf("recovered durable state differs: %s", why)
	}
}

func diffPlain(t *testing.T, delta, reconcile bool, opts Options) {
	src, addr := startSource(t, opts.CoreOptions...)
	mem := core.NewReplica(1, 2, opts.CoreOptions...)
	dir := t.TempDir()
	d := mustOpen(t, dir, 1, 2, opts)
	pullBoth := func() {
		t.Helper()
		if _, err := pull(core.InMemory(mem), addr); err != nil {
			t.Fatal(err)
		}
		if _, err := pull(d, addr); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 40; i++ {
		src.Update(diffKey(i), op.NewSet([]byte{byte(i)}))
	}
	pullBoth()
	// Every fourth item moves two versions on: in delta mode neither
	// recipient holds the base of the second delta, so each pull fetches.
	for i := 0; i < 40; i += 4 {
		src.Update(diffKey(i), op.NewSet([]byte{0xF0, byte(i)}))
		src.Update(diffKey(i), op.NewAppend([]byte{0x0F}))
	}
	if reconcile {
		src.SetLogCap(8)
		if src.Prune() == 0 || !src.NeedsReconcile(mem.DBVV()) {
			t.Fatal("setup: source log still covers the recipients")
		}
	}
	fetches := src.Metrics().FullFetches
	pullBoth()

	if delta && src.Metrics().FullFetches == fetches {
		t.Error("no fetch round served")
	}
	if reconcile && (mem.Metrics().ReconcileSessions == 0 || d.Core().Metrics().ReconcileSessions == 0) {
		t.Error("a recipient did not reconcile")
	}
	if ok, why := core.Converged(src, mem, d.Core()); !ok {
		t.Fatalf("recipients differ: %s", why)
	}
	if err := d.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, 1, 2, opts)
	defer d2.Close()
	if ok, why := core.Converged(mem, d2.Core()); !ok {
		t.Fatalf("recovered durable state differs: %s", why)
	}
}

func diffPartitioned(t *testing.T, parts int, opts Options) {
	const diverted = 0
	src := core.NewPartitioned(0, 2, parts, 2)
	addr := startPartSource(t, src)
	mem := core.NewPartitioned(1, 2, parts, 2)
	memSinks := make([]core.Sink, parts)
	for _, pid := range mem.Owned() {
		memSinks[pid] = core.InMemory(mem.Partition(pid))
	}
	dir := t.TempDir()
	p := mustOpenPart(t, dir, 1, 2, parts, 2, opts)
	pullBoth := func() {
		t.Helper()
		if _, err := testClient.PullPart(mem, memSinks, addr); err != nil {
			t.Fatal(err)
		}
		if _, err := pullPart(p, addr); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 60; i++ {
		if err := src.Update(diffKey(i), op.NewSet([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	pullBoth()
	// Every item moves on; only the diverted partition's log is capped.
	for i := 0; i < 60; i++ {
		if err := src.Update(diffKey(i), op.NewSet([]byte{0xF0, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	part := src.Partition(diverted)
	part.SetLogCap(8)
	part.Prune()
	for _, ps := range mem.PartRequest() {
		if got := src.Partition(ps.Pid).NeedsReconcile(ps.DBVV); got != (ps.Pid == diverted) {
			t.Fatalf("setup: partition %d needs reconciliation = %v", ps.Pid, got)
		}
	}
	pullBoth()

	for _, pid := range mem.Owned() {
		m, d := mem.Partition(pid), p.Partition(pid).Core()
		if ok, why := core.Converged(src.Partition(pid), m, d); !ok {
			t.Fatalf("partition %d: recipients differ: %s", pid, why)
		}
		if got := d.Metrics().ReconcileSessions; (got > 0) != (pid == diverted) {
			t.Errorf("partition %d: %d durable reconcile sessions", pid, got)
		}
	}
	if err := p.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}
	p2 := mustOpenPart(t, dir, 1, 2, parts, 2, opts)
	defer p2.Close()
	if ok, why := core.PartConverged(mem, p2.Parted()); !ok {
		t.Fatalf("recovered durable state differs: %s", why)
	}
}
