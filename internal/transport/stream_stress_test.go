package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/op"
)

// cutProxy forwards one TCP connection to target but severs it after
// passing limit bytes in the server-to-client direction — a deterministic
// mid-stream disconnect for streaming-session tests.
type cutProxy struct {
	ln     net.Listener
	target string
	limit  int64
}

func newCutProxy(t *testing.T, target string, limit int64) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, target: target, limit: limit}
	t.Cleanup(func() { ln.Close() })
	go p.serve()
	return p
}

func (p *cutProxy) addr() string { return p.ln.Addr().String() }

func (p *cutProxy) serve() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		go func() {
			// Client-to-server (the request) passes freely; the reply
			// stream is cut after limit bytes, mid-frame with high
			// probability.
			go io.Copy(server, client) //nolint:errcheck
			io.CopyN(client, server, p.limit)
			client.Close()
			server.Close()
		}()
	}
}

// waitStable polls a counter until two reads 20ms apart agree, so a test
// can snapshot server-side metrics after the serving goroutine of a severed
// session has fully wound down.
func waitStable(t *testing.T, read func() uint64) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev := read()
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		cur := read()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	t.Fatalf("counter did not stabilize; last value %d", prev)
	return 0
}

// TestMidStreamDisconnectResumesFree kills the connection mid-stream and
// checks the streamed path's resume-for-free claim: the severed session
// leaves a consistent applied prefix, and the next session ships exactly
// the unapplied suffix — no record is re-shipped or re-applied.
func TestMidStreamDisconnectResumesFree(t *testing.T) {
	const m = 4000
	src := core.NewReplica(0, 2)
	srv, err := Listen(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetChunkBytes(4 << 10) // many small chunks: plenty of cut points
	val := make([]byte, 32)
	for i := 0; i < m; i++ {
		if err := src.Update(fmt.Sprintf("key/%05d", i), op.NewSet(val)); err != nil {
			t.Fatal(err)
		}
	}
	rec := core.NewReplica(1, 2)
	c := NewClient(Options{})
	defer c.Close()

	// Session 1, through the proxy: severed after 64 KiB of reply.
	proxy := newCutProxy(t, srv.Addr(), 64<<10)
	if _, err := pullStream(c, rec, proxy.addr()); err == nil {
		t.Fatal("pull through the cutting proxy unexpectedly succeeded")
	}
	applied := rec.Metrics().LogRecordsApplied
	if applied == 0 || applied >= m {
		t.Fatalf("severed session applied %d records, want a strict partial prefix of %d", applied, m)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("invariants after severed session: %v", err)
	}

	// The source's serving goroutine may still be draining its builder;
	// let its counters settle before snapshotting.
	sentBefore := waitStable(t, func() uint64 { return src.Metrics().LogRecordsSent })

	// Session 2, direct: must converge shipping only the unapplied suffix.
	shipped, err := pullStream(c, rec, srv.Addr())
	if err != nil || !shipped {
		t.Fatalf("resume pull = (%v, %v), want (true, nil)", shipped, err)
	}
	if sent := src.Metrics().LogRecordsSent - sentBefore; sent != m-applied {
		t.Errorf("resume session shipped %d records, want exactly the %d-record unapplied suffix", sent, m-applied)
	}
	if got := rec.Metrics().LogRecordsApplied; got != m {
		t.Errorf("recipient applied %d records in total, want exactly %d (nothing re-applied)", got, m)
	}
	if ok, detail := core.Converged(src, rec); !ok {
		t.Errorf("replicas did not converge after resume: %s", detail)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Errorf("invariants after resume: %v", err)
	}
}

// TestStreamSessionStress hammers the chunked anti-entropy path under
// concurrency: a source with a tiny chunk budget (so every session fans
// out into many frames, each decoded into a recycled chunk shell) serves
// overlapping streamed pulls from three sinks while its own data plane
// keeps mutating. Under -race this covers the shell hand-off between the
// reader goroutine and the applier — the surface poolsafe checks
// statically — and the final ring sync proves the concurrent sessions left
// every replica on a consistent applied prefix.
func TestStreamSessionStress(t *testing.T) {
	const servers = 4
	replicas := make([]*core.Replica, servers)
	addrs := make([]string, servers)
	clients := make([]*Client, servers)
	for i := range replicas {
		replicas[i] = core.NewReplica(i, servers)
		srv, err := Listen(replicas[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if i == 0 {
			// ~64-byte payload budget: a 400-key corpus streams as hundreds
			// of chunks per session, so shells recycle many times per pull.
			srv.SetChunkBytes(64)
		}
		addrs[i] = srv.Addr()
		clients[i] = NewClient(Options{})
		defer clients[i].Close()
	}
	src := replicas[0]
	for i := 0; i < 400; i++ {
		if err := src.Update(fmt.Sprintf("stress/%03d", i), op.NewSet([]byte("v0"))); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	errs := make(chan error, servers)
	var writer, sinks sync.WaitGroup
	// Writer: keep the source moving so concurrent sessions observe the
	// log mid-growth.
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := src.Update(fmt.Sprintf("stress/%03d", i%400), op.NewSet([]byte(fmt.Sprintf("v%d", i)))); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	// Sinks: overlapping streamed pulls against the same source.
	for i := 1; i < servers; i++ {
		sinks.Add(1)
		go func(i int) {
			defer sinks.Done()
			for pull := 0; pull < 12; pull++ {
				if _, err := pullStream(clients[i], replicas[i], addrs[0]); err != nil {
					errs <- fmt.Errorf("pull %d: %w", pull, err)
					return
				}
			}
		}(i)
	}
	// Let the sinks finish their pulls, then quiesce the writer.
	sinks.Wait()
	close(stop)
	writer.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Quiesced catch-up: streamed ring pulls until convergence.
	for round := 0; round < 8; round++ {
		for i := range replicas {
			if _, err := pullStream(clients[i], replicas[i], addrs[(i+1)%servers]); err != nil {
				t.Fatal(err)
			}
		}
		if ok, _ := core.Converged(replicas...); ok {
			break
		}
	}
	if ok, why := core.Converged(replicas...); !ok {
		t.Fatalf("after stress: %s", why)
	}
	for i, r := range replicas {
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}
