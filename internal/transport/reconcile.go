package transport

// Client side of range-based set reconciliation (core/reconcile.go) over
// the transport: the fingerprint rounds ride ordinary KindReconcile
// request/response exchanges on pooled framed connections (no session
// framing is needed, every round is stateless on the server), and
// the computed difference is fetched in bounded KindFetch batches.
//
// A recipient lands here when a partition's offer comes back with the
// Reconcile flag (a part-reply, or a reconcile-diverted stream header): the source pruned its log past the
// recipient's DBVV, so no log-based session can serve it. After the
// reconciliation commits, the recipient's DBVV reflects every adopted copy
// and the follow-up pull proceeds normally (or finds it current).

import (
	"errors"

	"repro/internal/core"
	"repro/internal/wire"
)

// ErrNeedsReconcile reports that the source has pruned its log past the
// requester's DBVV: no log-based propagation session can serve it, and the
// caller must reconcile before pulling again (PullPart handles the
// diversion itself).
var ErrNeedsReconcile = errors.New("transport: source pruned past requester's DBVV; reconciliation required")

// reconcileSession drives the fingerprint phase of one reconciliation
// session for partition part against the server at addr and returns the keys whose copies differ — the
// session's computed difference set. A session that stops short (a round
// answered with the wrong number of replies, or the round cap reached with
// ranges pending) returns an error and no keys: a partial difference must
// not be fetched, since committing it would raise the recipient's pruned
// watermark past items it never received.
func (c *Client) reconcileSession(r *core.Replica, addr string, part int) ([]string, error) {
	rc := r.StartReconcile()
	for {
		ranges := rc.Next()
		if ranges == nil {
			if err := rc.Err(); err != nil {
				return nil, err
			}
			return rc.NeedKeys(), nil
		}
		req := &wire.Request{Kind: wire.KindReconcile, From: r.ID(), Part: part, Ranges: ranges}
		var resp wire.Response
		if err := c.do(r, addr, req, &resp); err != nil {
			return nil, err
		}
		if err := rc.Handle(ranges, resp.Recon); err != nil {
			return nil, err
		}
	}
}

// reconcileWith runs one complete reconciliation session against addr into
// the sink: fingerprint rounds, then the difference fetched in bounded
// batches, each committed through the sink (a durable sink logs every batch
// before it commits, so a crash mid-session replays the committed prefix).
// Returns the number of items adopted.
func (c *Client) reconcileWith(s Sink, addr string, part int) (int, error) {
	r := s.Core()
	keys, err := c.reconcileSession(r, addr, part)
	if err != nil {
		return 0, err
	}
	adopted := 0
	for len(keys) > 0 {
		batch := keys
		if len(batch) > core.ReconcileFetchBatch {
			batch = batch[:core.ReconcileFetchBatch]
		}
		keys = keys[len(batch):]
		items, err := c.fetchItems(r, addr, batch)
		if err != nil {
			return adopted, err
		}
		// Source id is not authenticated on the wire; attribute conflicts
		// to -1 like the OOB path.
		n, err := s.ApplyReconcileItems(items, -1)
		adopted += n
		if err != nil {
			return adopted, err
		}
	}
	return adopted, nil
}
