package transport

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
)

func TestDeltaSessionOverTCP(t *testing.T) {
	a := core.NewReplica(0, 2, core.WithDeltaPropagation())
	b := core.NewReplica(1, 2, core.WithDeltaPropagation())
	srv, err := Listen(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	big := bytes.Repeat([]byte("v"), 2048)
	if err := a.Update("doc", op.NewSet(big)); err != nil {
		t.Fatal(err)
	}
	if _, err := pull(b, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	// One small update ships as a delta over the wire.
	a.Update("doc", op.NewAppend([]byte("!")))
	if _, err := pull(b, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	v, _ := b.Read("doc")
	if len(v) != 2049 {
		t.Fatalf("delta over TCP: len = %d", len(v))
	}
	if b.Metrics().DeltasApplied == 0 {
		t.Error("no deltas applied over TCP")
	}
	if ok, why := core.Converged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
}

func TestDeltaFetchRoundOverTCP(t *testing.T) {
	a := core.NewReplica(0, 2, core.WithDeltaPropagation())
	b := core.NewReplica(1, 2, core.WithDeltaPropagation())
	srv, err := Listen(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a.Update("x", op.NewSet([]byte("v1")))
	if _, err := pull(b, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	// Two updates: b is two behind, so Pull must run the KindFetch round.
	a.Update("x", op.NewSet([]byte("v2")))
	a.Update("x", op.NewSet([]byte("v3")))
	if _, err := pull(b, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	v, _ := b.Read("x")
	if string(v) != "v3" {
		t.Fatalf("after fetch round over TCP: %q", v)
	}
	if a.Metrics().FullFetches == 0 {
		t.Error("server served no full fetches")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ok, why := core.Converged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
}
