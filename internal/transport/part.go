package transport

// Sessions over the framed transport. Every decision of a session lives in
// internal/core: the server answers each request with its core.LocalPeer,
// and the client is a core.Peer whose methods each run one pooled exchange,
// so core.Pull drives a pull over TCP exactly as it drives one in process.
// This file holds the server's request dispatch and the client's Peer; a
// KindPartStream session's frame sequence is in stream.go.
//
// One KindPartPropagation exchange negotiates the whole node pair: the
// recipient offers the (partition id, DBVV) pair for every partition it
// replicates and the source answers each one. Only dirty partitions cost
// further frames: an inline payload's fetch round, a KindPartStream
// session, or the KindReconcile rounds and KindFetch batches of a
// partition diverted past a pruned log. Those catch-ups run concurrently
// on separate pooled connections, as many at once as the pool keeps idle
// per peer.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/vv"
	"repro/internal/wire"
)

// dispatch serves one non-streaming request through the node's LocalPeer.
// Any other kind, the retired KindPropagation included, is answered with
// an error.
func (s *Server) dispatch(req *wire.Request) *wire.Response {
	var resp wire.Response
	var err error
	switch req.Kind {
	case wire.KindPartPropagation:
		resp.Parts, err = s.local.Offer(req.From, req.Parts, req.MaxBytes)
	case wire.KindReconcile:
		resp.Recon, err = s.local.Reconcile(nil, req.Part, req.Ranges)
	case wire.KindOOB:
		var reply core.OOBReply
		if reply, err = s.local.OOB(nil, req.Key); err == nil {
			resp.OOB = &reply
		}
	case wire.KindFetch:
		resp.Items, err = s.local.Fetch(nil, req.Keys)
	default:
		err = fmt.Errorf("unknown request kind %d", req.Kind)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return &resp
}

// PullPart performs one complete session: core.Pull of recipient from the
// server at addr, committing partition pid into sinks[pid]. The
// negotiation's wire cost is charged to the recipient's node counters,
// every other exchange's to its partition's replica.
func (c *Client) PullPart(recipient *core.Partitioned, sinks []core.Sink, addr string) (int, error) {
	return core.Pull(recipient, sinks, peer{c: c, addr: addr, node: recipient})
}

// FetchOOB performs one out-of-bound copy of key from the server at addr
// into the sink, returning whether a newer copy was adopted. The exchange
// is charged to the sink's replica.
func (c *Client) FetchOOB(s core.Sink, addr, key string) (bool, error) {
	return core.PullOOB(s, key, peer{c: c, addr: addr})
}

// peer is the client's core.Peer for the server at addr: each method is one
// pooled exchange (a stream, one session's frame sequence).
type peer struct {
	c    *Client //epi:immutable
	addr string  //epi:immutable
	// node is charged the negotiation rounds: the recipient node, whose
	// connection multiplexes its partitions.
	node wireMeter //epi:immutable
}

// Offer runs the negotiation round, with maxBytes as the inline payload
// ceiling per partition (zero: uncapped, never streamed).
func (p peer) Offer(from int, offers []core.PartState, maxBytes uint64) ([]core.PartReply, error) {
	req := &wire.Request{Kind: wire.KindPartPropagation, From: from, Parts: offers, MaxBytes: maxBytes}
	var resp wire.Response
	st, err := p.c.pool.roundTrip(p.addr, req, &resp)
	st.charge(p.node)
	if err != nil {
		return nil, err
	}
	return resp.Parts, remoteErr(resp.Err)
}

func (p peer) Fetch(r *core.Replica, keys []string) ([]core.ItemPayload, error) {
	var resp wire.Response
	if err := p.c.do(r, p.addr, &wire.Request{Kind: wire.KindFetch, From: r.ID(), Keys: keys}, &resp); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// Reconcile runs one fingerprint round. Every round is stateless on the
// server, so rounds ride ordinary exchanges on pooled connections.
func (p peer) Reconcile(r *core.Replica, pid int, ranges []core.ReconcileRange) ([]core.ReconcileReply, error) {
	var resp wire.Response
	req := &wire.Request{Kind: wire.KindReconcile, From: r.ID(), Part: pid, Ranges: ranges}
	if err := p.c.do(r, p.addr, req, &resp); err != nil {
		return nil, err
	}
	return resp.Recon, nil
}

func (p peer) Stream(r *core.Replica, pid int, dbvv vv.VV, apply func(*core.Propagation) error) (bool, error) {
	req := &wire.Request{Kind: wire.KindPartStream, From: r.ID(), Part: pid, DBVV: dbvv.Clone()}
	return p.c.runStream(r, p.addr, req, apply)
}

func (p peer) OOB(r *core.Replica, key string) (core.OOBReply, error) {
	var resp wire.Response
	if err := p.c.do(r, p.addr, &wire.Request{Kind: wire.KindOOB, From: r.ID(), Key: key}, &resp); err != nil {
		return core.OOBReply{}, err
	}
	if resp.OOB == nil {
		return core.OOBReply{}, errors.New("transport: malformed OOB response")
	}
	return *resp.OOB, nil
}

// Limits: every catch-up checks out its own pooled connection, and as many
// run at once as the pool keeps idle per peer, so every connection a pull
// uses goes back to the pool for the next one. Every pull announces
// DefaultMonolithicCap, whatever its sinks.
func (p peer) Limits() (int, uint64) {
	return p.c.pool.opts.MaxIdlePerHost, DefaultMonolithicCap
}
