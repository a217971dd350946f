package transport

// Connection pooling: the recipient side of the protocol keeps persistent
// framed connections per peer address and reuses them across anti-entropy
// sessions, so the common O(1) "you-are-current" exchange costs one small
// request frame and one small response frame instead of a TCP dial.
// Concurrency is by connection checkout — each in-flight exchange owns one
// connection; concurrent sessions to the same peer each get their own
// (pooled or freshly dialed) connection.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/vv"
	"repro/internal/wire"
)

// PoolOptions tunes a connection pool. The zero value selects sensible
// defaults.
//
//epi:notshared options value copied into the pool at construction
type PoolOptions struct {
	// MaxIdlePerHost bounds the idle connections retained per peer
	// address. Default 4.
	MaxIdlePerHost int
	// IdleTimeout discards pooled connections idle longer than this on
	// their next checkout. Default 60s.
	IdleTimeout time.Duration
	// DialTimeout bounds connection establishment. Default 5s.
	DialTimeout time.Duration
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.MaxIdlePerHost <= 0 {
		o.MaxIdlePerHost = 4
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 60 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	return o
}

// PoolStats is a snapshot of a pool's lifetime counters.
//
//epi:notshared snapshot value returned to one caller
type PoolStats struct {
	// Dials counts TCP connections established.
	Dials uint64
	// Reused counts exchanges served on an already-warm pooled connection
	// — each one a dial (and a codec preamble) avoided.
	Reused uint64
	// Retired counts pooled connections discarded as idle-expired,
	// unhealthy, or surplus.
	Retired uint64
}

// pool maintains persistent framed connections to peer servers.
type pool struct {
	opts PoolOptions //epi:immutable

	mu     sync.Mutex
	hosts  map[string][]*poolConn //epi:guard mu
	closed bool                   //epi:guard mu

	dials   atomic.Uint64 //epi:guard atomic
	reused  atomic.Uint64 //epi:guard atomic
	retired atomic.Uint64 //epi:guard atomic
}

func newPool(opts PoolOptions) *pool {
	return &pool{opts: opts.withDefaults(), hosts: make(map[string][]*poolConn)}
}

// stats returns a snapshot of the pool's counters.
func (p *pool) stats() PoolStats {
	return PoolStats{Dials: p.dials.Load(), Reused: p.reused.Load(), Retired: p.retired.Load()}
}

// close discards all idle connections. Connections checked out by in-flight
// exchanges are closed by their owners; subsequent checkouts dial fresh.
func (p *pool) close() {
	p.mu.Lock()
	hosts := p.hosts
	p.hosts = make(map[string][]*poolConn)
	p.closed = true
	p.mu.Unlock()
	for _, list := range hosts {
		for _, pc := range list {
			pc.conn.Close()
		}
	}
}

// poolConn is one persistent framed connection, owned by exactly one
// exchange at a time (checkout via get, return via put).
//
//epi:notshared owned by exactly one exchange at a time: checkout via get, return via put
type poolConn struct {
	conn     net.Conn
	cr       countingReader
	cw       countingWriter
	br       *bufio.Reader
	bw       *bufio.Writer
	lastUsed time.Time
	frameBuf []byte // receive scratch, retained across exchanges
}

// dial establishes a fresh framed connection: TCP connect plus the codec
// preamble.
func (p *pool) dial(addr string) (*poolConn, error) {
	conn, err := net.DialTimeout("tcp", addr, p.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	pc := &poolConn{conn: conn}
	pc.cr.r = conn
	pc.cw.w = conn
	pc.br = bufio.NewReader(&pc.cr)
	pc.bw = bufio.NewWriter(&pc.cw)
	if err := wire.WritePreamble(pc.bw); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: preamble %s: %w", addr, err)
	}
	p.dials.Add(1)
	return pc, nil
}

// get checks out a healthy pooled connection to addr, dialing when none is
// available. The second result reports whether the connection was reused.
func (p *pool) get(addr string) (*poolConn, bool, error) {
	now := time.Now()
	p.mu.Lock()
	for {
		list := p.hosts[addr]
		if len(list) == 0 {
			break
		}
		pc := list[len(list)-1]
		p.hosts[addr] = list[:len(list)-1]
		if now.Sub(pc.lastUsed) > p.opts.IdleTimeout {
			pc.conn.Close()
			p.retired.Add(1)
			continue
		}
		p.mu.Unlock()
		if pc.healthy() {
			p.reused.Add(1)
			return pc, true, nil
		}
		pc.conn.Close()
		p.retired.Add(1)
		p.mu.Lock()
	}
	p.mu.Unlock()
	pc, err := p.dial(addr)
	return pc, false, err
}

// put returns a connection to the pool after a clean exchange.
func (p *pool) put(addr string, pc *poolConn) {
	pc.lastUsed = time.Now()
	p.mu.Lock()
	if p.closed || len(p.hosts[addr]) >= p.opts.MaxIdlePerHost {
		p.mu.Unlock()
		pc.conn.Close()
		p.retired.Add(1)
		return
	}
	p.hosts[addr] = append(p.hosts[addr], pc)
	p.mu.Unlock()
}

// healthy rejects a pooled connection whose read buffer already holds
// unsolicited bytes. That is all a local check can see: a read under an
// already-expired deadline fails with a timeout without consulting the
// socket, so it cannot tell a closed peer from an idle one. A connection
// the peer closed, or that turns to garbage, is caught by its first
// exchange instead, and roundTrip and runStream retry that exchange once
// on a fresh dial.
func (pc *poolConn) healthy() bool {
	return pc.br.Buffered() == 0
}

// exchange runs one framed request/response on the connection.
//
//epi:hotpath
func (pc *poolConn) exchange(req *wire.Request, resp *wire.Response) error {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	*buf = wire.AppendRequest((*buf)[:0], req)
	if err := wire.WriteFrame(pc.bw, wire.FrameRequest, *buf); err != nil {
		return fmt.Errorf("transport: send request: %w", err)
	}
	if err := pc.bw.Flush(); err != nil {
		return fmt.Errorf("transport: send request: %w", err)
	}
	payload, err := wire.ReadFrame(pc.br, wire.FrameResponse, pc.frameBuf)
	if err != nil {
		return fmt.Errorf("transport: read response: %w", err)
	}
	pc.frameBuf = payload
	if err := wire.DecodeResponse(payload, resp); err != nil {
		return fmt.Errorf("transport: read response: %w", err)
	}
	return nil
}

// tripStats reports the measured cost of one exchange.
//
//epi:notshared per-exchange value local to one roundTrip call
type tripStats struct {
	sent, recv uint64
	dialed     bool
	reused     bool
}

// wireMeter is what an exchange's measured cost is charged to: a replica,
// or a partitioned node for its negotiation rounds.
type wireMeter interface {
	AddWireStats(sent, recv, dials, reused uint64)
}

// charge adds the exchange's cost to m's counters.
func (st tripStats) charge(m wireMeter) {
	var dials, reuses uint64
	if st.dialed {
		dials = 1
	}
	if st.reused {
		reuses = 1
	}
	m.AddWireStats(st.sent, st.recv, dials, reuses)
}

// roundTrip runs one pooled framed exchange against addr, retrying once on
// a fresh dial when a reused connection turns out stale (the server may
// have closed it while it sat in the pool; requests are idempotent reads,
// so the retry is safe).
//
//epi:hotpath
func (p *pool) roundTrip(addr string, req *wire.Request, resp *wire.Response) (tripStats, error) {
	var st tripStats
	pc, reused, err := p.get(addr)
	if err != nil {
		return st, err
	}
	for {
		st.dialed = st.dialed || !reused
		st.reused = st.reused || reused
		sent0, recv0 := pc.cw.n, pc.cr.n
		err = pc.exchange(req, resp)
		st.sent += pc.cw.n - sent0
		st.recv += pc.cr.n - recv0
		if err == nil {
			p.put(addr, pc)
			return st, nil
		}
		pc.conn.Close()
		if !reused {
			return st, err
		}
		// Stale pooled connection: bypass the pool for the retry so another
		// stale entry cannot fail us again.
		reused = false
		pc, err = p.dial(addr)
		if err != nil {
			return st, err
		}
	}
}

// Options configures a Client.
//
//epi:notshared options value copied into the client at construction
type Options struct {
	// Pool tunes the connection pool.
	Pool PoolOptions
}

// Client is the recipient side of the protocol: a core.Peer for each peer
// server, whose exchanges run over pooled persistent connections; core.Pull
// drives the session, and what it commits into is the caller's core.Sink.
// Methods are safe for concurrent use.
type Client struct {
	pool *pool //epi:immutable
}

// NewClient returns a client with its own connection pool.
func NewClient(opts Options) *Client {
	return &Client{pool: newPool(opts.Pool)}
}

// Close discards the client's idle pooled connections.
func (c *Client) Close() { c.pool.close() }

// PoolStats returns a snapshot of the client's pool counters.
func (c *Client) PoolStats() PoolStats { return c.pool.stats() }

// do runs one exchange and charges its measured cost to the replica's
// counters (skipped when r is nil), then surfaces a remote error.
func (c *Client) do(r *core.Replica, addr string, req *wire.Request, resp *wire.Response) error {
	st, err := c.pool.roundTrip(addr, req, resp)
	if r != nil {
		st.charge(r)
	}
	if err != nil {
		return err
	}
	return remoteErr(resp.Err)
}

// remoteErr wraps a server-side error description; nil when empty.
func remoteErr(msg string) error {
	if msg == "" {
		return nil
	}
	return fmt.Errorf("transport: remote error: %s", msg)
}

// offerRequest builds a one-partition offer of dbvv, cloning it: the
// request outlives this statement (the pool re-encodes it on the
// stale-connection retry path), so it must not alias the caller's live
// vector.
func offerRequest(from int, dbvv vv.VV) *wire.Request {
	return &wire.Request{
		Kind:  wire.KindPartPropagation,
		From:  from,
		Parts: []core.PartState{{Pid: 0, DBVV: dbvv.Clone()}},
	}
}

// ErrNeedsReconcile reports that the source has pruned its log past the
// requester's DBVV: no log-based propagation session can serve it, and the
// caller must reconcile before pulling again (PullPart handles the
// diversion itself).
var ErrNeedsReconcile = errors.New("transport: source pruned past requester's DBVV; reconciliation required")

// PullSessionMetered runs just the first round of a propagation session:
// it offers dbvv as the recipient's DBVV for partition 0 of the source at
// addr and fetches the source's reply without applying it, charging the
// measured wire cost to r's counters (skipped when r is nil). A nil message
// means the recipient is current; ErrNeedsReconcile means the source pruned
// past dbvv. db is unused: it is kept only because bench/ladder.go passes "".
func (c *Client) PullSessionMetered(r *core.Replica, addr, db string, from int, dbvv vv.VV) (*core.Propagation, error) {
	var resp wire.Response
	if err := c.do(r, addr, offerRequest(from, dbvv), &resp); err != nil {
		return nil, err
	}
	switch {
	case len(resp.Parts) != 1 || resp.Parts[0].Pid != 0:
	case resp.Parts[0].Reconcile:
		return nil, ErrNeedsReconcile
	case resp.Parts[0].Current:
		return nil, nil
	case resp.Parts[0].Prop != nil:
		return resp.Parts[0].Prop, nil
	}
	return nil, errors.New("transport: malformed propagation response")
}
