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

// Client is the recipient side of the protocol: it runs exchanges against
// peer servers over pooled persistent connections. It is the only code that
// drives a pull; what the pull commits into is the caller's Sink. Methods
// are safe for concurrent use.
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

// newPullRequest builds the propagation-pull request, cloning dbvv: the
// request outlives this statement (the pool re-encodes it on the
// stale-connection retry path), so it must not alias the caller's live
// vector.
func newPullRequest(from int, dbvv vv.VV) *wire.Request {
	return &wire.Request{Kind: wire.KindPropagation, From: from, DBVV: dbvv.Clone()}
}

// PullSessionMetered runs just the first round of a propagation session:
// it fetches the source's reply for a recipient whose DBVV is dbvv, without
// applying it, and charges the measured wire cost to r's counters (skipped
// when r is nil). A nil message means the recipient is current;
// ErrNeedsReconcile means the source pruned past dbvv. db is unused: it is
// kept only because bench/ladder.go passes "".
func (c *Client) PullSessionMetered(r *core.Replica, addr, db string, from int, dbvv vv.VV) (*core.Propagation, error) {
	var resp wire.Response
	if err := c.do(r, addr, newPullRequest(from, dbvv), &resp); err != nil {
		return nil, err
	}
	if resp.Reconcile {
		return nil, ErrNeedsReconcile
	}
	if resp.Current {
		return nil, nil
	}
	if resp.Prop == nil {
		return nil, errors.New("transport: malformed propagation response")
	}
	return resp.Prop, nil
}

// fetchItems fetches full copies of the named items from the server at
// addr, charging the exchange to r.
func (c *Client) fetchItems(r *core.Replica, addr string, keys []string) ([]core.ItemPayload, error) {
	var resp wire.Response
	if err := c.do(r, addr, &wire.Request{Kind: wire.KindFetch, From: r.ID(), Keys: keys}, &resp); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// Pull performs one update-propagation session: the sink pulls from the
// server at addr. It returns true when data was shipped, false when the
// sink was already current. Measured wire bytes and connection-reuse
// outcomes are charged to the sink's replica.
func (c *Client) Pull(s Sink, addr string) (bool, error) {
	r := s.Core()
	shipped := false
	for attempt := 0; ; attempt++ {
		// An in-memory sink announces the monolithic-response ceiling: above
		// it the source replies Stream instead of materializing the payload,
		// and the pull restarts as a chunked session.
		req := &wire.Request{
			Kind:     wire.KindPropagation,
			From:     r.ID(),
			DBVV:     r.PropagationRequest(),
			MaxBytes: monolithicCap(s),
		}
		var resp wire.Response
		if err := c.do(r, addr, req, &resp); err != nil {
			return shipped, err
		}
		switch {
		case resp.Reconcile:
			// The source pruned past our DBVV: no log-based session can
			// serve us. Reconcile, then re-pull once — afterwards our DBVV
			// reflects every adopted copy, so a second diversion (conflicts
			// suspend the guarantee, or a racing prune) ends the session
			// rather than looping; the next scheduled pull tries again.
			if attempt > 0 {
				return shipped, nil
			}
			adopted, err := c.reconcileWith(s, addr, 0)
			if err != nil {
				return shipped, err
			}
			shipped = shipped || adopted > 0
		case resp.Current:
			return shipped, nil
		case resp.Stream && req.MaxBytes > 0:
			ok, err := c.pullStream(r, addr)
			return shipped || ok, err
		case resp.Prop == nil:
			return shipped, errors.New("transport: malformed propagation response")
		default:
			return true, c.applySession(s, addr, resp.Prop)
		}
	}
}

// applySession commits one monolithic propagation payload to the sink,
// running the delta-mode second round when the payload referenced base
// versions the sink lacks: fetch the full copies, re-probing a bounded
// number of times in case concurrent sessions moved items underneath. An
// in-memory sink tries the single-sweep apply first; any other sink learns
// what it lacks up front, so it logs and commits the session once.
func (c *Client) applySession(s Sink, addr string, prop *core.Propagation) error {
	r := s.Core()
	// The payload's non-empty tails end at the source's own DBVV
	// components — a safe floor of the source's state for the recipient's
	// acked table (prune.go).
	defer r.NoteSessionAck(prop.Source, prop)
	var need []string
	if m, ok := s.(memSink); ok {
		if need = m.r.ApplyPropagation(prop); len(need) == 0 {
			return nil
		}
	} else {
		need = r.NeedFull(prop)
	}
	have := make(map[string]bool)
	var items []core.ItemPayload
	for attempt := 0; attempt < 3 && len(need) > 0; attempt++ {
		fetched, err := c.fetchItems(r, addr, need)
		if err != nil {
			return err
		}
		items = append(items, fetched...)
		for _, it := range fetched {
			have[it.Key] = true
		}
		need = need[:0]
		for _, key := range r.NeedFull(prop) {
			if !have[key] {
				need = append(need, key)
			}
		}
	}
	return s.ApplyPropagationWithItems(prop, items)
}

// FetchOOB performs one out-of-bound copy of key from the server at addr
// into the sink, returning whether a newer copy was adopted. The exchange
// is charged to the sink's replica.
func (c *Client) FetchOOB(s Sink, addr, key string) (bool, error) {
	r := s.Core()
	var resp wire.Response
	if err := c.do(r, addr, &wire.Request{Kind: wire.KindOOB, From: r.ID(), Key: key}, &resp); err != nil {
		return false, err
	}
	if resp.OOB == nil {
		return false, errors.New("transport: malformed OOB response")
	}
	// Source id is not authenticated on the wire; attribute to -1. The
	// conflict report's source field is advisory only.
	return s.ApplyOOB(*resp.OOB, -1)
}
