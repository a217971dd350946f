package transport

// Client side of range-based set reconciliation (core/reconcile.go) over
// the transport: the fingerprint rounds ride ordinary KindReconcile
// request/response exchanges on pooled framed connections (no session
// framing is needed, every round is stateless on the server), and
// the computed difference is fetched in bounded KindFetch batches.
//
// A recipient lands here when a propagation request comes back with the
// Reconcile flag (monolithic response, partitioned part-reply, or a
// reconcile-diverted stream header): the source pruned its log past the
// recipient's DBVV, so no log-based session can serve it. After the
// reconciliation commits, the recipient's DBVV reflects every adopted copy
// and the follow-up pull proceeds normally (or finds it current).

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrNeedsReconcile reports that the source has pruned its log past the
// requester's DBVV: no log-based propagation session can serve it, and the
// caller must run a reconciliation session (ReconcileSession plus a fetch
// loop, or a full Pull which handles the diversion itself) before pulling
// again.
var ErrNeedsReconcile = errors.New("transport: source pruned past requester's DBVV; reconciliation required")

// ReconcileSession drives the fingerprint phase of one reconciliation
// session against the server at addr (partition part on a partitioned
// server; 0 otherwise) and returns the keys whose copies differ — the
// session's computed difference set. The caller fetches them as full items
// and commits with core's ApplyReconcileItems; callers that must interpose
// on the commit (durable replicas logging the session) use this directly,
// others use the diversion handling built into Pull and PullStream.
func (c *Client) ReconcileSession(r *core.Replica, addr, db string, part int) ([]string, error) {
	rc := r.StartReconcile()
	for {
		ranges := rc.Next()
		if ranges == nil {
			return rc.NeedKeys(), nil
		}
		req := &Request{Kind: KindReconcile, DB: db, From: r.ID(), Part: part, Ranges: ranges}
		var resp Response
		if err := c.do(r, addr, req, &resp); err != nil {
			return nil, err
		}
		if resp.Err != "" {
			return nil, fmt.Errorf("transport: remote error: %s", resp.Err)
		}
		rc.Handle(ranges, resp.Recon)
	}
}

// reconcileWith runs one complete reconciliation session against addr with
// recipient as the sink: fingerprint rounds, then the difference fetched in
// bounded batches and committed under the ordinary acceptance rules.
// Returns the number of items adopted.
func (c *Client) reconcileWith(recipient *core.Replica, addr, db string, part int) (int, error) {
	keys, err := c.ReconcileSession(recipient, addr, db, part)
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
		items, err := c.FetchItemsMetered(recipient, addr, db, recipient.ID(), batch)
		if err != nil {
			return adopted, err
		}
		// Source id is not authenticated on the wire; attribute conflicts
		// to -1 like the OOB path.
		adopted += recipient.ApplyReconcileItems(items, -1)
	}
	return adopted, nil
}
