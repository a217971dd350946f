package transport

import (
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
)

func startPair(t *testing.T) (a, b *core.Replica, srvA *Server) {
	t.Helper()
	a = core.NewReplica(0, 2)
	b = core.NewReplica(1, 2)
	srv, err := Listen(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return a, b, srv
}

func TestPullOverTCP(t *testing.T) {
	a, b, srv := startPair(t)
	if err := a.Update("x", op.NewSet([]byte("net-value"))); err != nil {
		t.Fatal(err)
	}
	shipped, err := Pull(b, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !shipped {
		t.Fatal("Pull reported current; expected data")
	}
	v, ok := b.Read("x")
	if !ok || string(v) != "net-value" {
		t.Fatalf("b.x = %q/%v", v, ok)
	}
	if ok, why := core.Converged(a, b); !ok {
		t.Errorf("not converged: %s", why)
	}
}

func TestPullCurrentOverTCP(t *testing.T) {
	a, b, srv := startPair(t)
	a.Update("x", op.NewSet([]byte("v")))
	if _, err := Pull(b, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	shipped, err := Pull(b, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shipped {
		t.Error("second Pull shipped data between identical replicas")
	}
}

func TestFetchOOBOverTCP(t *testing.T) {
	a, b, srv := startPair(t)
	a.Update("hot", op.NewSet([]byte("fresh")))
	adopted, err := FetchOOB(b, srv.Addr(), "hot")
	if err != nil {
		t.Fatal(err)
	}
	if !adopted {
		t.Fatal("OOB copy not adopted")
	}
	if v, _ := b.Read("hot"); string(v) != "fresh" {
		t.Errorf("b.hot = %q", v)
	}
	if b.DBVV().Sum() != 0 {
		t.Error("OOB over TCP modified regular state")
	}
}

func TestFetchOOBMissingItem(t *testing.T) {
	_, b, srv := startPair(t)
	adopted, err := FetchOOB(b, srv.Addr(), "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if adopted {
		t.Error("adopted a copy of a missing item")
	}
}

func TestPullDialError(t *testing.T) {
	b := core.NewReplica(1, 2)
	if _, err := Pull(b, "127.0.0.1:1"); err == nil {
		t.Error("Pull to dead address succeeded")
	}
	if _, err := FetchOOB(b, "127.0.0.1:1", "x"); err == nil {
		t.Error("FetchOOB to dead address succeeded")
	}
}

func TestUnknownRequestKind(t *testing.T) {
	a := core.NewReplica(0, 2)
	srv, err := Listen(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var resp Response
	if err := roundTrip(srv.Addr(), Request{Kind: Kind(99)}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Error("unknown kind not rejected")
	}
}

func TestConcurrentPulls(t *testing.T) {
	const updates = 50
	a, _, srv := startPair(t)
	for i := 0; i < updates; i++ {
		a.Update("k"+string(rune('a'+i%26)), op.NewSet([]byte{byte(i)}))
	}
	// Many recipients pull concurrently from the same server.
	const clients = 8
	recipients := make([]*core.Replica, clients)
	for i := range recipients {
		recipients[i] = core.NewReplica(1, 2)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for _, r := range recipients {
		wg.Add(1)
		go func(r *core.Replica) {
			defer wg.Done()
			if _, err := Pull(r, srv.Addr()); err != nil {
				errs <- err
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, r := range recipients {
		if ok, why := core.Converged(a, r); !ok {
			t.Errorf("client %d not converged: %s", i, why)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	a := core.NewReplica(0, 2)
	srv, err := Listen(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMalformedRequestIgnored(t *testing.T) {
	a := core.NewReplica(0, 2)
	srv, err := Listen(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("garbage that is not the framed codec"))
	conn.Close()
	// Server must survive; a real session afterwards still works.
	b := core.NewReplica(1, 2)
	a.Update("x", op.NewSet([]byte("v")))
	if _, err := Pull(b, srv.Addr()); err != nil {
		t.Fatalf("Pull after garbage: %v", err)
	}
}

func TestRoundTripPreservesVectorsExactly(t *testing.T) {
	a, b, srv := startPair(t)
	for i := 0; i < 10; i++ {
		a.Update("x", op.NewAppend([]byte{byte(i)}))
	}
	Pull(b, srv.Addr())
	av, _ := a.ReadIVV("x")
	bv, _ := b.ReadIVV("x")
	if !av.Equal(bv) {
		t.Errorf("IVV mismatch after TCP round trip: %v vs %v", av, bv)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
