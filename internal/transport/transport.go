// Package transport runs the protocol's two exchanges — update propagation
// and out-of-bound copying — over real TCP connections.
//
// The wire protocol mirrors §5 exactly:
//
//	propagation:  recipient --(DBVV)--> source --(Propagation | current)--> recipient
//	out-of-bound: recipient --(key)---> source --(OOBReply)--------------> recipient
//
// A Server owns the source side of both exchanges for one replica; a Client
// owns the recipient side. The hot path speaks the compact framed binary
// codec of internal/wire over persistent pooled connections (see pool.go),
// so thousands of O(1) "you-are-current" exchanges per second share warm
// TCP connections instead of paying a dial per session. It is the only
// protocol: a connection that does not open with the codec's preamble is
// closed without a reply.
//
// Within one connection, exchanges alternate strictly (one request, one
// response); concurrency comes from the pool handing distinct connections
// to concurrent sessions. Both directions are metered by counting
// reader/writer wrappers, so metrics report actual wire bytes rather than
// estimates.
package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/wire"
)

// Server serves propagation and out-of-bound requests for one replica.
type Server struct {
	replica *core.Replica //epi:immutable
	// parted, when non-nil, makes this a partitioned server: partitioned
	// sessions negotiate against it, and single-key exchanges (OOB, fetch)
	// are routed to the owning partition's replica via its ring. replica
	// is nil on a partitioned server.
	parted *core.Partitioned //epi:immutable
	ln     net.Listener      //epi:immutable

	// chunkBytes is the streamed-session chunk budget; 0 means
	// core.DefaultChunkBytes. See SetChunkBytes.
	chunkBytes atomic.Uint64 //epi:guard atomic

	mu     sync.Mutex
	closed bool                  //epi:guard mu
	conns  map[net.Conn]struct{} //epi:guard mu
	wg     sync.WaitGroup
}

// Listen listens on addr (e.g. "127.0.0.1:0") and serves the replica. It
// returns immediately; connections are handled on background goroutines
// until Close.
func Listen(replica *core.Replica, addr string) (*Server, error) {
	return listen(&Server{replica: replica}, addr)
}

// listen binds addr and starts s serving on it.
//
//epi:init construction: s is published only on return
func listen(s *Server, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, force-closes open connections (persistent framed
// connections would otherwise idle in a client pool indefinitely), and
// waits for the handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// track registers a live connection for shutdown, refusing it when the
// server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

// countingReader meters bytes read from the underlying reader. One counter
// per connection, owned by the connection's goroutine.
//
//epi:notshared one counter per connection, owned by the connection goroutine (or the exchange holding the poolConn)
type countingReader struct {
	r io.Reader
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// countingWriter meters bytes written to the underlying writer.
//
//epi:notshared one counter per connection, owned by the connection goroutine (or the exchange holding the poolConn)
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// handle serves one persistent framed-binary connection: requests and
// responses alternate until the peer hangs up or sends a malformed frame,
// which is answered by closing the connection (never by panicking). A bad
// preamble — wrong magic or an unknown version — closes it before any
// request is read.
//
// Bytes are metered below the bufio layer, so read-ahead may attribute a
// request's bytes to the preceding exchange; per-connection totals are
// exact.
func (s *Server) handle(conn net.Conn) {
	cr := &countingReader{r: conn}
	cw := &countingWriter{w: conn}
	br := bufio.NewReader(cr)
	if err := wire.ReadPreamble(br); err != nil {
		return
	}
	bw := bufio.NewWriter(cw)
	frameBuf := wire.GetBuffer()
	defer wire.PutBuffer(frameBuf)
	scratch := wire.GetBuffer()
	defer wire.PutBuffer(scratch)
	// Preamble bytes are charged to the connection's first exchange.
	var lastSent, lastRecv uint64
	for {
		payload, err := wire.ReadFrame(br, wire.FrameRequest, *frameBuf)
		if err != nil {
			return
		}
		*frameBuf = payload
		var req wire.Request
		if err := wire.DecodeRequest(payload, &req); err != nil {
			return
		}
		if req.Kind == wire.KindStream || req.Kind == wire.KindPartStream {
			replica, errmsg := s.streamTarget(&req)
			if err := s.serveStream(bw, replica, errmsg, &req, scratch); err != nil {
				return
			}
			s.chargeServed(replica, cw.n-lastSent, cr.n-lastRecv)
			lastSent, lastRecv = cw.n, cr.n
			continue
		}
		replica, resp := s.dispatch(&req)
		*scratch = wire.AppendResponse((*scratch)[:0], resp)
		if err := wire.WriteFrame(bw, wire.FrameResponse, *scratch); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		s.chargeServed(replica, cw.n-lastSent, cr.n-lastRecv)
		lastSent, lastRecv = cw.n, cr.n
	}
}

// streamTarget resolves the replica a streaming request drains: the
// server's replica for KindStream, the named partition's replica for
// KindPartStream on a partitioned server. The replica is nil when the
// request cannot be served, with the error text as the second result.
func (s *Server) streamTarget(req *wire.Request) (*core.Replica, string) {
	if req.Kind == wire.KindPartStream {
		if s.parted == nil {
			return nil, "server is not partitioned"
		}
		part := s.parted.Partition(req.Part)
		if part == nil {
			return nil, fmt.Sprintf("partition %d not replicated here", req.Part)
		}
		return part, ""
	}
	if s.parted != nil {
		return nil, "server is partitioned; open a partitioned session"
	}
	return s.replica, ""
}

// chargeServed charges one served exchange's measured wire bytes: to the
// node on a partitioned server (the connection multiplexes partitions), to
// the serving replica otherwise.
func (s *Server) chargeServed(replica *core.Replica, sent, recv uint64) {
	if s.parted != nil {
		s.parted.AddWireStats(sent, recv, 0, 0)
		return
	}
	if replica != nil {
		replica.AddWireStats(sent, recv, 0, 0)
	}
}

// dispatch runs one decoded non-streaming request against the owning
// replica. The returned replica is nil on a partitioned server, which
// charges the node instead.
func (s *Server) dispatch(req *wire.Request) (*core.Replica, *wire.Response) {
	if s.parted != nil {
		return nil, s.dispatchParted(req)
	}
	replica := s.replica
	var resp wire.Response
	switch req.Kind {
	case wire.KindPropagation:
		// The request's DBVV is the requester's claim of what it reflects —
		// a safe lower bound on its state, recorded for acked-peer pruning.
		replica.NoteAck(req.From, req.DBVV)
		// Watermark guard: a DBVV below the pruned floor cannot be served
		// from the log (the covering records are gone); divert the
		// recipient to a reconciliation session instead of shipping a
		// session with silent gaps.
		if replica.NeedsReconcile(req.DBVV) {
			resp.Reconcile = true
			return replica, &resp
		}
		// Size guard: a monolithic response materializes the whole payload
		// in memory on both ends. When the requester announced a cap and
		// the payload estimate exceeds it, divert the session onto the
		// streaming path instead of building the payload at all. The plan's
		// current case answers directly — it already charged the session's
		// noop accounting, and running BuildPropagation too would double the
		// steady state's single DBVV comparison.
		if req.MaxBytes > 0 {
			switch replica.PlanPropagation(req.DBVV, req.MaxBytes) {
			case core.PlanCurrent:
				resp.Current = true
				return replica, &resp
			case core.PlanStream:
				resp.Stream = true
				return replica, &resp
			}
		}
		p := replica.BuildPropagation(req.DBVV)
		if p == nil {
			resp.Current = true
		} else {
			resp.Prop = p
		}
	case wire.KindOOB:
		reply := replica.ServeOOB(req.Key)
		resp.OOB = &reply
	case wire.KindFetch:
		resp.Items = replica.BuildItems(req.Keys)
	case wire.KindReconcile:
		resp.Recon = replica.ServeReconcile(req.Ranges)
	case wire.KindPartPropagation:
		resp.Err = "server is not partitioned"
	default:
		resp.Err = fmt.Sprintf("unknown request kind %d", req.Kind)
	}
	return replica, &resp
}
