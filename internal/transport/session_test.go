package transport

import (
	"testing"

	"repro/internal/core"
	"repro/internal/op"
)

func TestPullSessionLowLevel(t *testing.T) {
	a, b, srv := startPair(t)
	a.Update("x", op.NewSet([]byte("v")))

	p, err := testClient.PullSessionMetered(nil, srv.Addr(), "", b.ID(), b.PropagationRequest())
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("expected a propagation message")
	}
	b.ApplyPropagation(p)
	if ok, why := core.Converged(a, b); !ok {
		t.Fatalf("not converged: %s", why)
	}
	// Current now: nil message.
	p, err = testClient.PullSessionMetered(nil, srv.Addr(), "", b.ID(), b.PropagationRequest())
	if err != nil || p != nil {
		t.Fatalf("current PullSessionMetered = %v/%v", p, err)
	}
}

func TestPullSessionDeadAddress(t *testing.T) {
	b := core.NewReplica(1, 2)
	if _, err := testClient.PullSessionMetered(b, "127.0.0.1:1", "", 1, b.PropagationRequest()); err == nil {
		t.Error("dead address succeeded")
	}
	if _, err := (peer{c: testClient, addr: "127.0.0.1:1"}).Fetch(b, []string{"x"}); err == nil {
		t.Error("dead address fetch succeeded")
	}
}
