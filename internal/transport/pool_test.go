package transport

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/wire"
)

func TestPoolReusesConnections(t *testing.T) {
	a, _, srv := startPair(t)
	a.Update("x", op.NewSet([]byte("v")))
	c := NewClient(Options{})
	defer c.Close()
	b := node(core.NewReplica(1, 2))
	for i := 0; i < 10; i++ {
		if _, err := c.PullPart(b, memSinks(b), srv.Addr()); err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
	}
	st := c.PoolStats()
	if st.Dials != 1 {
		t.Errorf("10 sequential pulls dialed %d times, want 1", st.Dials)
	}
	if st.Reused < 9 {
		t.Errorf("reused %d times, want >= 9", st.Reused)
	}
	m := b.Metrics()
	if m.Dials != 1 || m.ConnsReused < 9 {
		t.Errorf("replica counters: dials=%d reused=%d", m.Dials, m.ConnsReused)
	}
	if m.WireBytesSent == 0 || m.WireBytesRecv == 0 {
		t.Errorf("no measured wire traffic: %+v", m)
	}
}

func TestPoolConcurrentSessions(t *testing.T) {
	// Acceptance case: >= 8 concurrent sessions over one pooled connection
	// set, race-clean and correct.
	const sessions = 8
	const rounds = 25
	a, _, srv := startPair(t)
	for i := 0; i < 50; i++ {
		a.Update(fmt.Sprintf("k%d", i), op.NewSet([]byte{byte(i)}))
	}
	c := NewClient(Options{})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	recipients := make([]*core.Replica, sessions)
	for i := range recipients {
		recipients[i] = core.NewReplica(1, 2)
		wg.Add(1)
		go func(r *core.Replica) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				if _, err := pullWith(c, r, srv.Addr()); err != nil {
					errs <- err
					return
				}
			}
		}(recipients[i])
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
	st := c.PoolStats()
	// MaxIdlePerHost defaults to 4; concurrency may dial more than that,
	// but reuse must dominate the 8*25 exchanges.
	if st.Reused < sessions*rounds/2 {
		t.Errorf("reuse too low under concurrency: %+v", st)
	}
}

func TestPoolSurvivesServerRestart(t *testing.T) {
	a := core.NewReplica(0, 2)
	srv, err := Listen(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c := NewClient(Options{})
	defer c.Close()
	b := core.NewReplica(1, 2)
	a.Update("x", op.NewSet([]byte("v1")))
	if _, err := pullWith(c, b, addr); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address: the pooled connection is now
	// dead and the client must fall back to a fresh dial.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	a.Update("x", op.NewSet([]byte("v2")))
	srv2, err := Listen(a, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, err := pullWith(c, b, addr); err != nil {
		t.Fatalf("pull after restart: %v", err)
	}
	if v, _ := b.Read("x"); string(v) != "v2" {
		t.Fatalf("b.x = %q after restart", v)
	}
}

func TestPoolRedialsAfterPeerClosedPooledConnection(t *testing.T) {
	// A peer answers one exchange, then writes a stray byte and closes. The
	// pooled connection may still look idle when the next pull checks it
	// out; that pull must notice on its first exchange and succeed on a
	// fresh dial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	closed := make(chan struct{})
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn, first bool) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if wire.ReadPreamble(br) != nil {
					return
				}
				current := wire.AppendResponse(nil, &wire.Response{Parts: []core.PartReply{{Pid: 0, Current: true}}})
				for {
					if _, err := wire.ReadFrame(br, wire.FrameRequest, nil); err != nil {
						return
					}
					if err := wire.WriteFrame(conn, wire.FrameResponse, current); err != nil {
						return
					}
					if first {
						conn.Write([]byte{0xFF})
						conn.Close()
						close(closed)
						return
					}
				}
			}(conn, first)
		}
	}()

	c := NewClient(Options{})
	defer c.Close()
	b := core.NewReplica(1, 2)
	if _, err := pullWith(c, b, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	<-closed
	if _, err := pullWith(c, b, ln.Addr().String()); err != nil {
		t.Fatalf("pull after the peer closed its pooled connection: %v", err)
	}
	if st := c.PoolStats(); st.Dials != 2 {
		t.Errorf("dials = %d, want 2 (one fresh dial after the close)", st.Dials)
	}
}

func TestPoolIdleTimeout(t *testing.T) {
	a, _, srv := startPair(t)
	a.Update("x", op.NewSet([]byte("v")))
	c := NewClient(Options{Pool: PoolOptions{IdleTimeout: 10 * time.Millisecond}})
	defer c.Close()
	b := core.NewReplica(1, 2)
	if _, err := pullWith(c, b, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := pullWith(c, b, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	st := c.PoolStats()
	if st.Dials != 2 {
		t.Errorf("dials = %d, want 2 (idle conn expired)", st.Dials)
	}
	if st.Retired == 0 {
		t.Error("expired conn not counted as retired")
	}
}

func TestMalformedFrameClosesConnection(t *testing.T) {
	// A peer that does not speak the framed codec, or whose framed
	// connection turns to garbage, must be hung up on without a reply — not
	// crash the server, not hang it.
	var gobReq bytes.Buffer
	if err := gob.NewEncoder(&gobReq).Encode(&wire.Request{Kind: wire.KindPropagation, From: 1}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		// The seed transport's one-shot exchange: no preamble at all.
		{"gob-request-no-preamble", gobReq.Bytes()},
		{"preamble-version-99", []byte{wire.Magic, 99}},
		// Valid preamble and type byte, absurd length, no body.
		{"absurd-frame-length", []byte{wire.Magic, wire.Version, wire.FrameRequest, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			defer conn.Close()
			if _, err := conn.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := conn.Read(make([]byte, 1))
			if n != 0 || err == nil {
				t.Fatalf("server wrote %d byte(s) instead of closing", n)
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server kept the connection open")
			}

			// And the server keeps serving well-formed sessions afterwards.
			a.Update("x", op.NewSet([]byte("v")))
			b := core.NewReplica(1, 2)
			if _, err := pull(b, srv.Addr()); err != nil {
				t.Fatalf("pull after the refused connection: %v", err)
			}
			if v, _ := b.Read("x"); string(v) != "v" {
				t.Fatalf("b.x = %q after the refused connection", v)
			}
		})
	}
}

func TestUndecodableRequestPayloadClosesConnection(t *testing.T) {
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
	defer conn.Close()
	wire.WritePreamble(conn)
	// Well-formed frame, garbage payload.
	wire.WriteFrame(conn, wire.FrameRequest, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server answered an undecodable request instead of closing")
	}
}

func TestServerCountsWireBytes(t *testing.T) {
	a := node(core.NewReplica(0, 2))
	srv, err := ListenPart(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a.Update("x", op.NewSet([]byte("some-value-on-the-wire")))
	b := node(core.NewReplica(1, 2))
	c := NewClient(Options{})
	defer c.Close()
	if _, err := c.PullPart(b, memSinks(b), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	bm := b.Metrics()
	if bm.WireBytesSent == 0 || bm.WireBytesRecv == 0 {
		t.Fatalf("client side unmetered: %+v", bm)
	}
	// What the server sent, the client received (and vice versa): loopback
	// TCP delivers every byte. The server charges its counters just after
	// flushing the response, so poll briefly — the client can observe its
	// own reply before the server's bookkeeping runs.
	deadline := time.Now().Add(2 * time.Second)
	for {
		am := a.Metrics()
		if am.WireBytesSent == bm.WireBytesRecv && am.WireBytesRecv == bm.WireBytesSent {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("asymmetric accounting: server sent=%d recv=%d, client sent=%d recv=%d",
				am.WireBytesSent, am.WireBytesRecv, bm.WireBytesSent, bm.WireBytesRecv)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
