package durable

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/transport"
)

// TestDurablePullMatchesVolatile pulls one source history into an
// in-memory recipient and a durable recipient through the same client
// loop. After every case both hold the same DBVVs and items, and the
// durable side, crashed without a closing snapshot, recovers that state
// from its WAL alone.
func TestDurablePullMatchesVolatile(t *testing.T) {
	for _, tc := range []struct {
		name      string
		delta     bool // delta-mode propagation: the second pull needs a fetch round
		reconcile bool // the source caps its log at 8 records and prunes past both recipients
		parts     int  // >1: partitioned nodes, with one partition pruned past the recipients
	}{
		{name: "inline"},
		{name: "delta-fetch-round", delta: true},
		{name: "reconcile-divert", reconcile: true},
		{name: "partitioned-one-diverted", reconcile: true, parts: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var copts []core.Option
			if tc.delta {
				copts = append(copts, core.WithDeltaPropagation())
			}
			opts := Options{NoSync: true, SnapshotEvery: 1 << 30, CoreOptions: copts}
			if tc.parts > 1 {
				diffPartitioned(t, tc.parts, opts)
			} else {
				diffPlain(t, tc.delta, tc.reconcile, opts)
			}
		})
	}
}

func diffKey(i int) string { return fmt.Sprintf("item/%03d", i) }

func diffPlain(t *testing.T, delta, reconcile bool, opts Options) {
	src, addr := startSource(t, opts.CoreOptions...)
	mem := core.NewReplica(1, 2, opts.CoreOptions...)
	dir := t.TempDir()
	d := mustOpen(t, dir, 1, 2, opts)
	pullBoth := func() {
		t.Helper()
		if _, err := testClient.Pull(transport.InMemory(mem), addr); err != nil {
			t.Fatal(err)
		}
		if _, err := testClient.Pull(d, addr); err != nil {
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
	memSinks := make([]transport.Sink, parts)
	for _, pid := range mem.Owned() {
		memSinks[pid] = transport.InMemory(mem.Partition(pid))
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
