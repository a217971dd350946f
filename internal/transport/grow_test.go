package transport

import (
	"testing"

	"repro/internal/core"
	"repro/internal/op"
)

func TestGrowthSpreadsOverTCP(t *testing.T) {
	// A two-server system grows to three; the un-grown replica learns the
	// new width from a propagation message over a real socket.
	a := core.NewReplica(0, 2)
	b := core.NewReplica(1, 2)
	a.Update("x", op.NewSet([]byte("v")))

	srvA, err := Listen(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	if _, err := pull(b, srvA.Addr()); err != nil {
		t.Fatal(err)
	}

	a.Grow(3)
	c := core.NewReplica(2, 3)
	srvC, err := Listen(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvC.Close()
	c.Update("from-c", op.NewSet([]byte("new-server")))

	// a pulls the new server's data (a is already 3-wide)...
	if _, err := pull(a, srvC.Addr()); err != nil {
		t.Fatal(err)
	}
	// ...and b, still 2-wide, grows from a's next reply over the wire.
	if _, err := pull(b, srvA.Addr()); err != nil {
		t.Fatal(err)
	}
	if b.Servers() != 3 {
		t.Errorf("b did not grow over TCP: n=%d", b.Servers())
	}
	if v, _ := b.Read("from-c"); string(v) != "new-server" {
		t.Errorf("b missing new server's data: %q", v)
	}
	// The new server catches up over the wire too.
	if _, err := pull(c, srvA.Addr()); err != nil {
		t.Fatal(err)
	}
	if ok, why := core.Converged(a, b, c); !ok {
		t.Fatalf("not converged: %s", why)
	}
	for _, r := range []*core.Replica{a, b, c} {
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
