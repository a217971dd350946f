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
	"repro/internal/vv"
	"repro/internal/wire"
)

// Request is the recipient-to-source message opening an exchange. It is an
// alias of the wire package's type: the codec and the transport share one
// message vocabulary.
type Request = wire.Request

// Response is the source-to-recipient reply.
type Response = wire.Response

// Kind selects the exchange a Request opens.
type Kind = wire.Kind

// Exchange kinds, re-exported from the wire codec.
const (
	// KindPropagation opens an update-propagation session (§5.1).
	KindPropagation = wire.KindPropagation
	// KindOOB requests an out-of-bound copy of one item (§5.2).
	KindOOB = wire.KindOOB
	// KindFetch requests full copies of named items — the second round of
	// a delta-mode propagation session.
	KindFetch = wire.KindFetch
	// KindStream opens a streaming (chunked) propagation session on a
	// framed connection; see stream.go.
	KindStream = wire.KindStream
	// KindPartPropagation opens a partitioned propagation session against a
	// partitioned server; see part.go.
	KindPartPropagation = wire.KindPartPropagation
	// KindPartStream opens a streaming session for one keyspace partition.
	KindPartStream = wire.KindPartStream
	// KindReconcile drives one round of range-based set reconciliation —
	// the catch-up path for recipients whose DBVV predates the source's
	// pruned-log watermark; see reconcile.go.
	KindReconcile = wire.KindReconcile
)

// Resolver maps database names to replicas — the surface a multi-database
// host (internal/multidb) exposes to the transport.
type Resolver interface {
	Database(name string) *core.Replica
}

// Server serves propagation and out-of-bound requests for one replica, or
// for many databases when a Resolver is attached.
type Server struct {
	replica  *core.Replica //epi:immutable
	resolver Resolver      //epi:immutable
	// parted, when non-nil, makes this a partitioned server: partitioned
	// sessions negotiate against it, and single-key exchanges (OOB, fetch)
	// are routed to the owning partition's replica via its ring. replica
	// and resolver are nil on a partitioned server.
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

// NewServer starts serving the replica on the listener. It returns
// immediately; connections are handled on background goroutines until
// Close.
func NewServer(replica *core.Replica, ln net.Listener) *Server {
	s := &Server{replica: replica, ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is a convenience: listen on addr (e.g. "127.0.0.1:0") and serve.
func Listen(replica *core.Replica, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return NewServer(replica, ln), nil
}

// ListenMulti serves every database of a multi-database host: requests
// carry a DB name which the resolver maps to a replica.
func ListenMulti(resolver Resolver, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &Server{resolver: resolver, ln: ln}
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
		var req Request
		if err := wire.DecodeRequest(payload, &req); err != nil {
			return
		}
		if req.Kind == KindStream || req.Kind == KindPartStream {
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

// streamTarget resolves the replica a streaming request drains: the routed
// database replica for KindStream, the named partition's replica for
// KindPartStream on a partitioned server.
func (s *Server) streamTarget(req *Request) (*core.Replica, string) {
	if req.Kind == KindPartStream {
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
	return s.route(req)
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

// route resolves the replica a request addresses, shared by the one-shot
// dispatch and the streaming session handler. The replica is nil when the
// request could not be routed, with the error text as the second result.
func (s *Server) route(req *Request) (*core.Replica, string) {
	replica := s.replica
	if req.DB != "" {
		if s.resolver == nil {
			return nil, "server hosts a single database"
		}
		replica = s.resolver.Database(req.DB)
	} else if replica == nil && s.resolver != nil {
		return nil, "request must name a database"
	}
	if replica == nil {
		return nil, fmt.Sprintf("unknown database %q", req.DB)
	}
	return replica, ""
}

// dispatch routes one decoded non-streaming request to the owning replica
// and runs the exchange. The returned replica is nil when the request could
// not be routed.
func (s *Server) dispatch(req *Request) (*core.Replica, *Response) {
	if s.parted != nil {
		return nil, s.dispatchParted(req)
	}
	if req.Kind == KindPartPropagation {
		return nil, &Response{Err: "server is not partitioned"}
	}
	replica, errmsg := s.route(req)
	if replica == nil {
		return nil, &Response{Err: errmsg}
	}
	var resp Response
	switch req.Kind {
	case KindPropagation:
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
	case KindOOB:
		reply := replica.ServeOOB(req.Key)
		resp.OOB = &reply
	case KindFetch:
		resp.Items = replica.BuildItems(req.Keys)
	case KindReconcile:
		resp.Recon = replica.ServeReconcile(req.Ranges)
	default:
		resp.Err = fmt.Sprintf("unknown request kind %d", req.Kind)
	}
	return replica, &resp
}

// PullSession fetches the propagation message from the server at addr for
// a recipient whose DBVV is dbvv. A nil message means the recipient is
// current. Lower-level than Pull: callers that must interpose on the apply
// step (e.g. durable replicas logging the session) drive the rounds
// themselves with this and FetchItems.
func PullSession(addr string, from int, dbvv vv.VV) (*core.Propagation, error) {
	return DefaultClient.PullSession(addr, from, dbvv)
}

// PullSessionDB is PullSession against a named database of a
// multi-database server.
func PullSessionDB(addr, db string, from int, dbvv vv.VV) (*core.Propagation, error) {
	return DefaultClient.PullSessionDB(addr, db, from, dbvv)
}

// FetchItems fetches full copies of the named items from the server at addr
// — the second round of a delta-mode session.
func FetchItems(addr string, from int, keys []string) ([]core.ItemPayload, error) {
	return DefaultClient.FetchItems(addr, from, keys)
}

// FetchItemsDB is FetchItems against a named database of a multi-database
// server.
func FetchItemsDB(addr, db string, from int, keys []string) ([]core.ItemPayload, error) {
	return DefaultClient.FetchItemsDB(addr, db, from, keys)
}

// Pull performs one update-propagation session: recipient pulls from the
// server at addr. It returns true when data was shipped, false when the
// recipient was already current.
func Pull(recipient *core.Replica, addr string) (bool, error) {
	return DefaultClient.Pull(recipient, addr)
}

// RequestOOB fetches an out-of-bound reply for key from the server at addr
// without applying it. Callers that must interpose on the apply step use
// this; others use FetchOOB.
func RequestOOB(addr string, from int, key string) (core.OOBReply, error) {
	return DefaultClient.RequestOOB(addr, from, key)
}

// FetchOOB performs one out-of-bound copy of key from the server at addr,
// returning whether a newer copy was adopted.
func FetchOOB(recipient *core.Replica, addr, key string) (bool, error) {
	return DefaultClient.FetchOOB(recipient, addr, key)
}

// roundTrip performs one exchange through the default client. Kept as the
// package's internal seam so tests can drive raw requests.
func roundTrip(addr string, req Request, resp *Response) error {
	_, err := DefaultClient.pool.roundTrip(addr, &req, resp)
	return err
}
