package transport

// Partitioned sessions over the framed transport.
//
// One KindPartPropagation exchange negotiates the whole node pair: the
// recipient offers the (partition id, DBVV) pair for every partition it
// replicates, and the source answers each offer — unowned, current, an
// inline payload, or "stream instead" when the payload estimate exceeds the
// request's cap. Clean partitions therefore settle in the single round trip
// at one DBVV comparison each, and only dirty partitions cost further
// frames: each one drains over its own KindPartStream session, reusing the
// chunked pipeline of stream.go unchanged (the session target is simply the
// partition's replica). Those sessions, and the reconciliations of
// partitions diverted past a pruned log, run concurrently on separate
// pooled connections, as many at once as the pool keeps idle per peer.

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// NewPartServer starts serving a partitioned node on the listener.
func NewPartServer(pr *core.Partitioned, ln net.Listener) *Server {
	s := &Server{parted: pr, ln: ln}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// ListenPart is the partitioned counterpart of Listen: listen on addr and
// serve the partitioned node.
func ListenPart(pr *core.Partitioned, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return NewPartServer(pr, ln), nil
}

// dispatchParted serves one non-streaming request on a partitioned server.
// Single-key exchanges route to the owning partition's replica through the
// ring; plain KindPropagation is rejected — a partitioned database has no
// single DBVV for it to compare against.
func (s *Server) dispatchParted(req *Request) *Response {
	pr := s.parted
	var resp Response
	switch req.Kind {
	case KindPartPropagation:
		resp.Parts = make([]wire.PartReply, 0, len(req.Parts))
		for _, ps := range req.Parts {
			resp.Parts = append(resp.Parts, s.servePartOffer(ps, req.MaxBytes, req.From))
		}
	case KindReconcile:
		part := pr.Partition(req.Part)
		if part == nil {
			resp.Err = fmt.Sprintf("partition %d not replicated here", req.Part)
			break
		}
		resp.Recon = part.ServeReconcile(req.Ranges)
	case KindOOB:
		pid := pr.PartitionOf(req.Key)
		part := pr.Partition(pid)
		if part == nil {
			resp.Err = fmt.Sprintf("partition %d not replicated here", pid)
			break
		}
		reply := part.ServeOOB(req.Key)
		resp.OOB = &reply
	case KindFetch:
		// Fetch keys may span partitions; group per partition and serve each
		// group from its replica. Non-owned keys are skipped — the recipient
		// treats a missing item as "re-probe next session", the same defensive
		// contract as an item concurrently deleted from a single replica.
		groups := make(map[int][]string)
		var pids []int
		for _, key := range req.Keys {
			pid := pr.PartitionOf(key)
			if _, seen := groups[pid]; !seen {
				pids = append(pids, pid)
			}
			groups[pid] = append(groups[pid], key)
		}
		for _, pid := range pids {
			if part := pr.Partition(pid); part != nil {
				resp.Items = append(resp.Items, part.BuildItems(groups[pid])...)
			}
		}
	case KindPropagation:
		resp.Err = "server is partitioned; open a partitioned session"
	default:
		resp.Err = fmt.Sprintf("unknown request kind %d", req.Kind)
	}
	return &resp
}

// servePartOffer answers one offered partition of a partitioned session.
// A clean partition costs exactly one DBVV comparison (the plan's current
// case, or BuildPropagation's identical-check when uncapped) and ships
// nothing.
func (s *Server) servePartOffer(ps core.PartState, maxBytes uint64, from int) wire.PartReply {
	pe := wire.PartReply{Pid: ps.Pid}
	part := s.parted.Partition(ps.Pid)
	if part == nil {
		pe.Unowned = true
		return pe
	}
	part.NoteAck(from, ps.DBVV)
	if part.NeedsReconcile(ps.DBVV) {
		// The offered DBVV predates this partition's pruned watermark:
		// divert to a per-partition reconciliation session.
		pe.Reconcile = true
		return pe
	}
	if maxBytes > 0 {
		switch part.PlanPropagation(ps.DBVV, maxBytes) {
		case core.PlanCurrent:
			pe.Current = true
			return pe
		case core.PlanStream:
			pe.Stream = true
			return pe
		}
	}
	pe.Prop = part.BuildPropagation(ps.DBVV)
	if pe.Prop == nil {
		pe.Current = true
	}
	return pe
}

// PullPart performs one complete partitioned session: recipient pulls from
// the partitioned server at addr. One exchange negotiates every partition
// the recipient replicates; inline payloads are applied immediately, and
// partitions diverted to streaming or reconciliation catch up
// concurrently, one KindPartStream session each. It returns the number of
// partitions that shipped data and the first error in partition order.
func (c *Client) PullPart(recipient *core.Partitioned, addr string) (int, error) {
	return c.PullPartDB(recipient, addr, "")
}

// PullPartOffers runs just the negotiation round of a partitioned session:
// offer the given (partition, DBVV) pairs to the server at addr and return
// its per-partition replies WITHOUT applying anything. Callers that need
// custom apply semantics (the durable layer write-ahead logs each payload
// before committing it) drive the replies themselves. A nil offers slice
// offers every partition the recipient replicates; maxBytes is the inline
// payload ceiling per partition — zero announces no cap, so the server
// always answers a dirty partition inline rather than diverting it to a
// streaming session. Wire cost is charged to the recipient's node counters.
func (c *Client) PullPartOffers(recipient *core.Partitioned, addr, db string, offers []core.PartState, maxBytes uint64) ([]wire.PartReply, error) {
	if offers == nil {
		offers = recipient.PartRequest()
	}
	req := &Request{
		Kind:     KindPartPropagation,
		DB:       db,
		From:     recipient.ID(),
		Parts:    offers,
		MaxBytes: maxBytes,
	}
	var resp Response
	st, err := c.pool.roundTrip(addr, req, &resp)
	recipient.AddWireStats(st.sent, st.recv, boolCount(st.dialed), boolCount(st.reused))
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("transport: remote error: %s", resp.Err)
	}
	return resp.Parts, nil
}

// PullPartDB is PullPart against a named database of a multi-database
// server.
func (c *Client) PullPartDB(recipient *core.Partitioned, addr, db string) (int, error) {
	// Announce the per-partition monolithic ceiling: a dirty partition above
	// it is answered "stream instead" rather than inline.
	parts, err := c.PullPartOffers(recipient, addr, db, nil, DefaultMonolithicCap)
	if err != nil {
		return 0, err
	}
	// Inline payloads apply here. Partitions diverted to a stream or a
	// reconciliation catch up concurrently: each is an independent replica,
	// and each catch-up checks out its own pooled connection. A slot is
	// held per partition in flight, inline applies included, and there are
	// as many slots as the pool keeps idle connections per peer: every
	// connection a pull uses goes back to the pool for the next one.
	type outcome struct {
		shipped bool
		err     error
	}
	outcomes := make([]outcome, len(parts))
	seen := make(map[int]bool, len(parts))
	slots := make(chan struct{}, c.pool.opts.MaxIdlePerHost)
	var wg sync.WaitGroup
	for i, pe := range parts {
		part := recipient.Partition(pe.Pid)
		if part == nil || seen[pe.Pid] {
			// Defensive: the server answered a partition we never offered,
			// or one twice; at most one goroutine per owned partition.
			continue
		}
		seen[pe.Pid] = true
		switch {
		case pe.Unowned, pe.Current:
			// Nothing to do for this partition.
		case pe.Prop != nil:
			slots <- struct{}{}
			err := c.applySession(part, addr, db, pe.Prop)
			<-slots
			outcomes[i] = outcome{shipped: err == nil, err: err}
		case pe.Reconcile, pe.Stream:
			slots <- struct{}{}
			wg.Add(1)
			go func(out *outcome, pid int, reconcile bool) {
				defer func() { <-slots; wg.Done() }()
				out.shipped, out.err = c.catchUpPart(recipient, addr, db, pid, reconcile)
			}(&outcomes[i], pe.Pid, pe.Reconcile)
		}
	}
	wg.Wait()
	shipped := 0
	var firstErr error
	for _, out := range outcomes {
		if out.shipped {
			shipped++
		}
		if firstErr == nil {
			firstErr = out.err
		}
	}
	return shipped, firstErr
}

// catchUpPart drains one partition the negotiation diverted: over its
// stream session, after reconciling it first when the source pruned past
// its DBVV. It reports whether the partition took any data.
func (c *Client) catchUpPart(recipient *core.Partitioned, addr, db string, pid int, reconcile bool) (bool, error) {
	adopted := 0
	if reconcile {
		var err error
		adopted, err = c.reconcileWith(recipient.Partition(pid), addr, db, pid)
		if err != nil {
			return false, err
		}
	}
	// After reconciling, the DBVV is at or above the watermark, so the
	// stream session drains normally (or finds the partition current).
	ok, err := c.pullPartStream(recipient, addr, db, pid)
	return ok || adopted > 0, err
}

// pullPartStream drains one partition over a KindPartStream session,
// reusing the chunked pipeline with the partition's replica as the sink.
// Wire cost is charged to the partition replica (whose counters roll up
// into the node's Metrics).
func (c *Client) pullPartStream(recipient *core.Partitioned, addr, db string, pid int) (bool, error) {
	part := recipient.Partition(pid)
	if part == nil {
		return false, nil
	}
	shipped := false
	for attempt := 0; ; attempt++ {
		req := &Request{
			Kind: KindPartStream,
			DB:   db,
			From: recipient.ID(),
			Part: pid,
			DBVV: part.PropagationRequest(),
		}
		ok, reconcile, err := c.runStream(part, addr, req)
		shipped = shipped || ok
		if err != nil || !reconcile || attempt > 0 {
			return shipped, err
		}
		adopted, err := c.reconcileWith(part, addr, db, pid)
		if err != nil {
			return shipped, err
		}
		shipped = shipped || adopted > 0
	}
}

// PullPart is the package-level convenience: one partitioned session
// through the default client.
func PullPart(recipient *core.Partitioned, addr string) (int, error) {
	return DefaultClient.PullPart(recipient, addr)
}

func boolCount(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
