// Package transport runs the protocol's two exchanges — update propagation
// and out-of-bound copying — over real TCP connections.
//
// The wire protocol mirrors §5, one DBVV per keyspace partition:
//
//	propagation:  recipient --(pid, DBVV)*--> source --(Propagation | current)*--> recipient
//	out-of-bound: recipient --(key)---------> source --(OOBReply)----------------> recipient
//
// The session itself is core.Pull's: a Server decodes each request and
// has the node's core.LocalPeer answer it, and a Client is a core.Peer
// whose methods are exchanges (part.go). A full replica is the
// one-partition node, so its session is the paper's single DBVV comparison
// plus the partition id. The hot path speaks the compact framed binary
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

// Server serves propagation and out-of-bound requests for one node: it
// decodes each request, has the node's core.LocalPeer answer it — the
// partitions each answer their own share of a session, and the ring routes
// single-key exchanges (OOB, fetch) to the owning partition — and encodes
// the answer. A full replica is the one-partition case.
type Server struct {
	parted *core.Partitioned //epi:immutable
	local  *core.LocalPeer   //epi:immutable answers every request from parted
	ln     net.Listener      //epi:immutable

	// chunkBytes is the streamed-session chunk budget; 0 means
	// core.DefaultChunkBytes. See SetChunkBytes.
	chunkBytes atomic.Uint64 //epi:guard atomic

	mu     sync.Mutex
	closed bool                  //epi:guard mu
	conns  map[net.Conn]struct{} //epi:guard mu
	wg     sync.WaitGroup
}

// ListenPart listens on addr (e.g. "127.0.0.1:0") and serves the node. It
// returns immediately; connections are handled on background goroutines
// until Close.
func ListenPart(pr *core.Partitioned, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{parted: pr, local: core.Local(pr), ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Listen serves a single replica as a one-partition node, which is the
// paper's unpartitioned replica: one DBVV for the whole database, owned by
// every server. The served wire bytes are charged to the wrapping node,
// not to the replica.
func Listen(replica *core.Replica, addr string) (*Server, error) {
	pr, err := core.RestorePartitioned(replica.ID(), replica.Servers(), 1, replica.Servers(),
		map[int]*core.Replica{0: replica})
	if err != nil {
		return nil, err
	}
	return ListenPart(pr, addr)
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
		if req.Kind == wire.KindPartStream {
			if err := s.serveStream(bw, &req, scratch); err != nil {
				return
			}
		} else {
			*scratch = wire.AppendResponse((*scratch)[:0], s.dispatch(&req))
			if err := wire.WriteFrame(bw, wire.FrameResponse, *scratch); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
		// The connection multiplexes partitions, so its bytes are the
		// node's, not any one partition's.
		s.parted.AddWireStats(cw.n-lastSent, cr.n-lastRecv, 0, 0)
		lastSent, lastRecv = cw.n, cr.n
	}
}
