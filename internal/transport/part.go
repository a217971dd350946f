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
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// ListenPart is the partitioned counterpart of Listen: listen on addr and
// serve the partitioned node.
func ListenPart(pr *core.Partitioned, addr string) (*Server, error) {
	return listen(&Server{parted: pr}, addr)
}

// dispatchParted serves one non-streaming request on a partitioned server.
// Single-key exchanges route to the owning partition's replica through the
// ring; plain KindPropagation is rejected — a partitioned database has no
// single DBVV for it to compare against.
func (s *Server) dispatchParted(req *wire.Request) *wire.Response {
	pr := s.parted
	var resp wire.Response
	switch req.Kind {
	case wire.KindPartPropagation:
		resp.Parts = make([]wire.PartReply, 0, len(req.Parts))
		for _, ps := range req.Parts {
			resp.Parts = append(resp.Parts, s.servePartOffer(ps, req.MaxBytes, req.From))
		}
	case wire.KindReconcile:
		part := pr.Partition(req.Part)
		if part == nil {
			resp.Err = fmt.Sprintf("partition %d not replicated here", req.Part)
			break
		}
		resp.Recon = part.ServeReconcile(req.Ranges)
	case wire.KindOOB:
		pid := pr.PartitionOf(req.Key)
		part := pr.Partition(pid)
		if part == nil {
			resp.Err = fmt.Sprintf("partition %d not replicated here", pid)
			break
		}
		reply := part.ServeOOB(req.Key)
		resp.OOB = &reply
	case wire.KindFetch:
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
	case wire.KindPropagation:
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
// the partitioned server at addr, committing partition pid into sinks[pid]
// (nil for a partition it does not replicate). One exchange negotiates
// every partition the recipient replicates; inline payloads are applied
// immediately, and partitions diverted to streaming or reconciliation catch
// up concurrently. It returns the number of partitions that shipped data
// and the first error in partition order. The negotiation's wire cost is
// charged to the recipient's node counters, each catch-up's to its
// partition.
func (c *Client) PullPart(recipient *core.Partitioned, sinks []Sink, addr string) (int, error) {
	// In-memory sinks announce the per-partition monolithic ceiling: a dirty
	// partition above it is answered "stream instead" rather than inline.
	maxBytes := monolithicCap(sinks...)
	parts, err := c.partOffers(recipient, addr, recipient.PartRequest(), maxBytes)
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
		if pe.Pid < 0 || pe.Pid >= len(sinks) || sinks[pe.Pid] == nil || seen[pe.Pid] {
			// Defensive: the server answered a partition we never offered,
			// or one twice; at most one goroutine per owned partition.
			continue
		}
		seen[pe.Pid] = true
		sink := sinks[pe.Pid]
		switch {
		case pe.Unowned, pe.Current:
			// Nothing to do for this partition.
		case pe.Prop != nil:
			slots <- struct{}{}
			err := c.applySession(sink, addr, pe.Prop)
			<-slots
			outcomes[i] = outcome{shipped: err == nil, err: err}
		case pe.Reconcile, pe.Stream && maxBytes > 0:
			slots <- struct{}{}
			wg.Add(1)
			go func(out *outcome, pid int, reconcile bool) {
				defer func() { <-slots; wg.Done() }()
				out.shipped, out.err = c.catchUpPart(recipient, sink, addr, pid, reconcile)
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

// partOffers runs the negotiation round of a partitioned session: offer
// the given (partition, DBVV) pairs to the server at addr with maxBytes as
// the inline payload ceiling per partition (zero: uncapped, never
// streamed) and return its per-partition replies without applying
// anything. Wire cost is charged to the recipient's node counters.
func (c *Client) partOffers(recipient *core.Partitioned, addr string, offers []core.PartState, maxBytes uint64) ([]wire.PartReply, error) {
	req := &wire.Request{
		Kind:     wire.KindPartPropagation,
		From:     recipient.ID(),
		Parts:    offers,
		MaxBytes: maxBytes,
	}
	var resp wire.Response
	st, err := c.pool.roundTrip(addr, req, &resp)
	st.charge(recipient)
	if err != nil {
		return nil, err
	}
	return resp.Parts, remoteErr(resp.Err)
}

// catchUpPart drains one partition the negotiation diverted, after
// reconciling it first when the source pruned past its DBVV. An in-memory
// sink drains over a stream session. Any other sink re-offers the partition
// uncapped and commits the inline reply, because streamed chunks would
// bypass its log; one reconciliation is all this pull spends on it. It
// reports whether the partition took any data.
func (c *Client) catchUpPart(recipient *core.Partitioned, s Sink, addr string, pid int, reconcile bool) (bool, error) {
	adopted := 0
	if reconcile {
		var err error
		adopted, err = c.reconcileWith(s, addr, pid)
		if err != nil {
			return adopted > 0, err
		}
	}
	// After reconciling, the DBVV is at or above the watermark, so the
	// partition drains normally (or finds itself current).
	if m, ok := s.(memSink); ok {
		ok, err := c.pullPartStream(recipient, m.r, addr, pid)
		return ok || adopted > 0, err
	}
	offer := []core.PartState{{Pid: pid, DBVV: s.Core().PropagationRequest()}}
	replies, err := c.partOffers(recipient, addr, offer, 0)
	if err != nil || len(replies) == 0 || replies[0].Prop == nil {
		return adopted > 0, err
	}
	if err := c.applySession(s, addr, replies[0].Prop); err != nil {
		return adopted > 0, err
	}
	return true, nil
}

// pullPartStream drains one partition over a KindPartStream session,
// reusing the chunked pipeline with the partition's replica as the sink.
// Wire cost is charged to the partition replica (whose counters roll up
// into the node's Metrics).
func (c *Client) pullPartStream(recipient *core.Partitioned, part *core.Replica, addr string, pid int) (bool, error) {
	shipped := false
	for attempt := 0; ; attempt++ {
		req := &wire.Request{
			Kind: wire.KindPartStream,
			From: recipient.ID(),
			Part: pid,
			DBVV: part.PropagationRequest(),
		}
		ok, reconcile, err := c.runStream(part, addr, req)
		shipped = shipped || ok
		if err != nil || !reconcile || attempt > 0 {
			return shipped, err
		}
		adopted, err := c.reconcileWith(memSink{part}, addr, pid)
		if err != nil {
			return shipped, err
		}
		shipped = shipped || adopted > 0
	}
}
