package core

// The session driver: the update-propagation pull (§5.1, Figs. 2–3) and
// the out-of-bound copy (§5.2), written once over any Peer — the source
// side, one method per request kind. LocalPeer answers in memory; the TCP
// server decodes a request, asks its LocalPeer and encodes the answer, and
// the TCP client is a Peer over its pool. Every session decision lives
// here: the offer's answer (ack, divert, cap, build), the commit's NeedFull
// re-probe, the reconciliation's batched fetch, the divert-then-stream
// catch-up and the fan-out across partitions. The in-process drivers are
// Pull or its steps over a LocalPeer, so they run what a cluster node runs.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/ring"
	"repro/internal/vv"
)

// Sink is what a pull commits into. Core gives the replica the session
// reads its DBVV from (and a wire peer charges its traffic to); the Apply
// methods commit what the source shipped: an inline payload with its
// fetched copies, one streamed chunk, a reconciled difference, an
// out-of-bound copy. A durable replica satisfies Sink and write-ahead logs
// every commit, a chunk as one record; InMemory adapts a volatile replica.
// The session takes the same path into either.
type Sink interface {
	Core() *Replica
	ApplyPropagationWithItems(p *Propagation, items []ItemPayload) error
	ApplyChunk(p *Propagation) error
	ApplyReconcileItems(items []ItemPayload, source int) (int, error)
	ApplyOOB(reply OOBReply, source int) (bool, error)
}

// InMemory adapts a volatile replica as a Sink. Its applies cannot fail.
func InMemory(r *Replica) Sink { return memSink{r} }

type memSink struct {
	r *Replica //epi:immutable
}

func (m memSink) Core() *Replica { return m.r }

func (m memSink) ApplyPropagationWithItems(p *Propagation, items []ItemPayload) error {
	m.r.ApplyPropagationWithItems(p, items)
	return nil
}

func (m memSink) ApplyChunk(p *Propagation) error {
	m.r.ApplyChunk(p)
	return nil
}

func (m memSink) ApplyReconcileItems(items []ItemPayload, source int) (int, error) {
	return m.r.ApplyReconcileItems(items, source), nil
}

func (m memSink) ApplyOOB(reply OOBReply, source int) (bool, error) {
	return m.r.ApplyOOB(reply, source), nil
}

// PartReply is the source's verdict for one offered partition. Exactly one
// of the five outcomes holds: the source does not replicate the partition
// (Unowned), the recipient is current (Current), the payload rides inline
// (Prop), it exceeded the offer's cap and must be drained over a chunk
// stream (Stream), or the partition's DBVV predates the source's pruned
// watermark and must be reconciled first (Reconcile).
//
//epi:notshared value verdict built for one offer and returned to one caller
type PartReply struct {
	Pid       int
	Unowned   bool
	Current   bool
	Stream    bool
	Reconcile bool
	Prop      *Propagation
}

// Peer is the source side of a session, one method per request kind. r is
// the recipient's replica of the partition concerned: a wire peer sends
// its id and charges the exchange to it. Methods must be safe for
// concurrent use: Pull drives up to Limits' width partitions at once.
type Peer interface {
	// Offer answers each of recipient from's (partition, DBVV) offers in
	// order; maxBytes caps an inline payload (0: uncapped, never streamed).
	Offer(from int, offers []PartState, maxBytes uint64) ([]PartReply, error)
	// Fetch returns full copies of the named items, absent ones left out.
	Fetch(r *Replica, keys []string) ([]ItemPayload, error)
	// Reconcile answers one fingerprint round over partition pid.
	Reconcile(r *Replica, pid int, ranges []ReconcileRange) ([]ReconcileReply, error)
	// Stream opens a chunk session of partition pid against dbvv and
	// returns once apply has taken every chunk, in order. The first error
	// apply returns ends the session and is returned. reconcile reports a
	// session diverted because the source pruned past dbvv.
	Stream(r *Replica, pid int, dbvv vv.VV, apply func(*Propagation) error) (reconcile bool, err error)
	// OOB serves one out-of-bound copy of key.
	OOB(r *Replica, key string) (OOBReply, error)
	// Limits reports how many partitions may catch up at once and the
	// inline cap every pull announces (0: uncapped, never streamed).
	Limits() (width int, maxBytes uint64)
}

// Pull performs one complete session: recipient pulls from peer,
// committing partition pid into sinks[pid] (nil for a partition it does
// not replicate). One Offer negotiates every partition; inline payloads
// commit in partition order as the replies are read, and partitions
// diverted to a stream or a reconciliation catch up concurrently, at most
// the peer's width at a time (each held slot also covers an inline commit).
// It returns the number of partitions that shipped data and the first error
// in partition order.
func Pull(recipient *Partitioned, sinks []Sink, peer Peer) (int, error) {
	return pull(recipient.ID(), recipient.PartRequest(), sinks, peer)
}

// pull is Pull for the recipient from, offering offers.
func pull(from int, offers []PartState, sinks []Sink, peer Peer) (int, error) {
	width, maxBytes := peer.Limits()
	parts, err := peer.Offer(from, offers, maxBytes)
	if err != nil {
		return 0, err
	}
	type outcome struct {
		shipped bool
		err     error
	}
	// A pull that finds every partition current allocates none of what
	// follows: outcomes are kept from the first partition that ships or
	// diverts, seen only when the source could answer a partition twice,
	// and the catch-up slots from the first catch-up, since until one runs
	// beside the loop an inline commit is the only thing running. The
	// catch-up goroutine takes what it uses as arguments, so none of these
	// variables moves to the heap for it.
	var (
		outcomes []outcome
		seen     []bool
		slots    chan struct{}
		wg       *sync.WaitGroup
	)
	if len(parts) > 1 {
		seen = make([]bool, len(sinks))
	}
	for i, pe := range parts {
		if pe.Pid < 0 || pe.Pid >= len(sinks) || sinks[pe.Pid] == nil || seen != nil && seen[pe.Pid] {
			// Defensive: the source answered a partition we never offered,
			// or one twice; at most one catch-up per owned partition.
			continue
		}
		if seen != nil {
			seen[pe.Pid] = true
		}
		sink := sinks[pe.Pid]
		switch {
		case pe.Unowned, pe.Current:
			// Nothing to do for this partition.
		case pe.Prop != nil:
			if outcomes == nil {
				outcomes = make([]outcome, len(parts))
			}
			if slots != nil {
				slots <- struct{}{}
			}
			err := commit(sink, pe.Prop, peer)
			if slots != nil {
				<-slots
			}
			outcomes[i] = outcome{shipped: err == nil, err: err}
		case pe.Reconcile, pe.Stream:
			if outcomes == nil {
				outcomes = make([]outcome, len(parts))
			}
			if slots == nil {
				slots, wg = make(chan struct{}, max(width, 1)), new(sync.WaitGroup)
			}
			slots <- struct{}{}
			wg.Add(1)
			go func(out *outcome, sink Sink, pid int, reconcile bool, slots chan struct{}, wg *sync.WaitGroup) {
				defer func() { <-slots; wg.Done() }()
				out.shipped, out.err = catchUp(sink, pid, peer, reconcile)
			}(&outcomes[i], sink, pe.Pid, pe.Reconcile, slots, wg)
		}
	}
	if wg != nil {
		wg.Wait()
	}
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

// commit applies one inline payload to the sink. When the payload names
// base versions the sink lacks (delta mode), the full copies are fetched,
// re-probing at most three times in case concurrent sessions moved items
// underneath, so the sink commits the session once.
func commit(s Sink, prop *Propagation, peer Peer) error {
	r := s.Core()
	// The payload's non-empty tails end at the source's own DBVV
	// components — a safe floor of the source's state for the recipient's
	// acked table (prune.go).
	defer r.NoteSessionAck(prop.Source, prop)
	var items []ItemPayload
	var have map[string]bool
	for attempt, need := 0, r.NeedFull(prop); attempt < 3 && len(need) > 0; attempt++ {
		fetched, err := peer.Fetch(r, need)
		if err != nil {
			return err
		}
		items = append(items, fetched...)
		if have == nil {
			have = make(map[string]bool)
		}
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

// catchUp drains one partition the negotiation diverted, reconciling it
// first when the source pruned past its DBVV: after reconciling, the DBVV
// is at or above the watermark, so the partition streams normally (or
// finds itself current). It reports whether the partition took any data.
func catchUp(s Sink, pid int, peer Peer, reconcile bool) (bool, error) {
	adopted := 0
	if reconcile {
		var err error
		if adopted, err = reconcileFrom(s, pid, peer); err != nil {
			return adopted > 0, err
		}
	}
	ok, err := Drain(s, pid, peer)
	return ok || adopted > 0, err
}

// Drain catches partition pid of the sink up from peer over a chunk
// stream, whatever the payload's size, committing each chunk through the
// sink as it arrives; the first failed commit ends the stream. A stream
// the source diverts is reconciled once and then streamed again. It
// reports whether anything was applied.
func Drain(s Sink, pid int, peer Peer) (bool, error) {
	r := s.Core()
	shipped := false
	for attempt := 0; ; attempt++ {
		start := time.Now()
		first := true
		reconcile, err := peer.Stream(r, pid, r.PropagationRequest(), func(p *Propagation) error {
			if err := s.ApplyChunk(p); err != nil {
				return err
			}
			if first {
				// The streamed path's headline latency over the monolithic
				// one, which applies nothing until the whole payload is in;
				// kept as a high-water gauge.
				first = false
				metrics.StoreMax(&r.met.StreamFirstApplyNanos, uint64(time.Since(start)))
			}
			// Every applied chunk teaches a floor of the source's own
			// state (its tails end at the source's DBVV components).
			r.NoteSessionAck(p.Source, p)
			shipped = true
			return nil
		})
		if err != nil || !reconcile || attempt > 0 {
			return shipped, err
		}
		adopted, err := reconcileFrom(s, pid, peer)
		if err != nil {
			return shipped, err
		}
		shipped = shipped || adopted > 0
	}
}

// reconcileFrom runs one reconciliation session of partition pid into the
// sink: fingerprint rounds, then the difference fetched and committed in
// ReconcileFetchBatch batches. A session that stops short (a failed
// exchange, a short round, the round cap) fetches nothing: committing a
// partial difference would raise the pruned watermark past items never
// received. Conflicts on fetched copies are attributed to -1, as for
// out-of-bound copies: a peer's identity is not part of what it answers.
// Returns the number of items adopted.
func reconcileFrom(s Sink, pid int, peer Peer) (int, error) {
	r := s.Core()
	rc := r.StartReconcile()
	for ranges := rc.Next(); ranges != nil; ranges = rc.Next() {
		replies, err := peer.Reconcile(r, pid, ranges)
		if err != nil {
			return 0, err
		}
		if err := rc.Handle(ranges, replies); err != nil {
			return 0, err
		}
	}
	if err := rc.Err(); err != nil {
		return 0, err
	}
	adopted := 0
	for keys := rc.NeedKeys(); len(keys) > 0; {
		batch := keys[:min(len(keys), ReconcileFetchBatch)]
		keys = keys[len(batch):]
		items, err := peer.Fetch(r, batch)
		if err != nil {
			return adopted, err
		}
		n, err := s.ApplyReconcileItems(items, -1)
		adopted += n
		if err != nil {
			return adopted, err
		}
	}
	return adopted, nil
}

// PullOOB performs one out-of-bound copy of key from peer into the sink,
// returning whether a newer copy was adopted. Conflicts are attributed to
// -1 (see reconcileFrom).
func PullOOB(s Sink, key string, peer Peer) (bool, error) {
	reply, err := peer.OOB(s.Core(), key)
	if err != nil {
		return false, err
	}
	return s.ApplyOOB(reply, -1)
}

// AntiEntropy performs one complete update-propagation session in process:
// recipient pulls from source, uncapped, through Pull over a Local peer. It
// returns true if the session shipped data. The two replicas' locks are
// taken one at a time, never together, so concurrent sessions over any
// pairing schedule cannot deadlock.
func AntiEntropy(recipient, source *Replica) bool {
	shipped, _ := PullReplica(InMemory(recipient), source)
	return shipped
}

// PullReplica is AntiEntropy into any sink: one session of a lone replica,
// the one-partition node, from source over a Local peer.
func PullReplica(s Sink, source *Replica) (bool, error) {
	r := s.Core()
	offer := []PartState{{Pid: 0, DBVV: r.PropagationRequest()}}
	shipped, err := pull(r.ID(), offer, []Sink{s}, localReplica(source))
	return shipped > 0, err
}

// PartAntiEntropy performs one complete partitioned session in process:
// Pull over a Local peer, negotiating every partition the recipient
// replicates in one offer. A partition the recipient is current on costs
// exactly one DBVV comparison and ships nothing — so a quiescent session
// between nodes sharing k partitions costs exactly k DBVV comparisons,
// regardless of database size. Returns the number of partitions that
// shipped data.
func PartAntiEntropy(recipient, source *Partitioned) int {
	sameRing(recipient, source)
	shipped, _ := Pull(recipient, memSinks(recipient), Local(source))
	return shipped
}

// memSinks adapts every partition pr replicates, indexed by pid.
func memSinks(pr *Partitioned) []Sink {
	sinks := make([]Sink, len(pr.parts))
	for pid, r := range pr.parts {
		if r != nil {
			sinks[pid] = InMemory(r)
		}
	}
	return sinks
}

// ReconcileAntiEntropy performs one complete in-process reconciliation
// session: recipient computes the difference against source via range
// fingerprints, fetches the differing items, and commits them. Returns the
// number of items adopted; a session that stops short adopts nothing.
func ReconcileAntiEntropy(recipient, source *Replica) int {
	adopted, _ := reconcileFrom(InMemory(recipient), 0, localReplica(source))
	return adopted
}

// CopyOutOfBound performs a complete out-of-bound copy of key from source
// to recipient r, returning true if a newer copy was adopted. Like
// AntiEntropy it takes the two replicas' locks one at a time.
func (r *Replica) CopyOutOfBound(key string, source *Replica) bool {
	adopted, _ := PullOOB(InMemory(r), key, localReplica(source))
	return adopted
}

// LocalPeer answers a Peer's requests from one node's replicas in memory:
// the whole source side of a session. Pulls over it are uncapped, so every
// dirty partition ships inline, and catch-ups run one at a time, in
// partition order. Only Stream reads the recipient replica r (for the
// requester's id), so a server answering decoded requests passes nil.
type LocalPeer struct {
	ring  *ring.Ring //epi:immutable nil for a lone replica: one partition
	parts []*Replica //epi:immutable indexed by pid; nil where the node does not replicate it
}

// Local returns the in-memory peer answering for pr.
func Local(pr *Partitioned) *LocalPeer { return &LocalPeer{ring: pr.ring, parts: pr.parts} }

// localReplica is Local for a lone replica: the one-partition node.
func localReplica(r *Replica) *LocalPeer { return r.alone }

// partition returns the replica of partition pid, nil when this node does
// not replicate it.
func (l *LocalPeer) partition(pid int) *Replica {
	if pid < 0 || pid >= len(l.parts) {
		return nil
	}
	return l.parts[pid]
}

func notReplicated(pid int) error { return fmt.Errorf("partition %d not replicated here", pid) }

func (l *LocalPeer) partitionOf(key string) int {
	if l.ring == nil {
		return 0
	}
	return l.ring.PartitionOf(key)
}

// open admits a log-based session of partition pid (nil part: not
// replicated here) for the requester from carrying dbvv: it notes the ack
// and reports whether the session must divert to reconciliation because
// dbvv predates the pruned watermark — a log-based session could silently
// skip updates whose records are gone.
func (l *LocalPeer) open(from, pid int, dbvv vv.VV) (part *Replica, reconcile bool) {
	if part = l.partition(pid); part != nil {
		part.NoteAck(from, dbvv)
		reconcile = part.NeedsReconcile(dbvv)
	}
	return part, reconcile
}

// Offer answers each offered partition. A clean partition costs exactly
// one DBVV comparison (the plan's current case, or BuildPropagation's
// identical-check when uncapped) and ships nothing.
func (l *LocalPeer) Offer(from int, offers []PartState, maxBytes uint64) ([]PartReply, error) {
	replies := make([]PartReply, len(offers))
	for i, ps := range offers {
		pe := &replies[i]
		pe.Pid = ps.Pid
		part, reconcile := l.open(from, ps.Pid, ps.DBVV)
		switch {
		case part == nil:
			pe.Unowned = true
			continue
		case reconcile:
			pe.Reconcile = true
			continue
		}
		if maxBytes > 0 {
			switch part.PlanPropagation(ps.DBVV, maxBytes) {
			case PlanCurrent:
				pe.Current = true
				continue
			case PlanStream:
				pe.Stream = true
				continue
			}
		}
		pe.Prop = part.BuildPropagation(ps.DBVV)
		pe.Current = pe.Prop == nil
	}
	return replies, nil
}

// Fetch serves full copies of keys, each from the partition that owns it.
// Keys of partitions this node does not replicate are skipped: the
// recipient treats a missing item as "re-probe next session", the same
// contract as an item concurrently deleted.
func (l *LocalPeer) Fetch(_ *Replica, keys []string) ([]ItemPayload, error) {
	if l.ring == nil {
		if part := l.partition(0); part != nil && len(keys) > 0 {
			return part.BuildItems(keys), nil
		}
		return nil, nil
	}
	groups := make(map[int][]string)
	var pids []int
	for _, key := range keys {
		pid := l.partitionOf(key)
		if _, seen := groups[pid]; !seen {
			pids = append(pids, pid)
		}
		groups[pid] = append(groups[pid], key)
	}
	var items []ItemPayload
	for _, pid := range pids {
		if part := l.partition(pid); part != nil {
			items = append(items, part.BuildItems(groups[pid])...)
		}
	}
	return items, nil
}

// Reconcile answers one fingerprint round over partition pid. A round
// sends exactly one root; any other count is refused with an error.
func (l *LocalPeer) Reconcile(_ *Replica, pid int, ranges []ReconcileRange) ([]ReconcileReply, error) {
	part := l.partition(pid)
	if part == nil {
		return nil, notReplicated(pid)
	}
	if len(ranges) != 1 {
		return nil, fmt.Errorf("core: a reconcile round sends one root, not %d", len(ranges))
	}
	return part.ServeReconcile(ranges), nil
}

// OpenStream admits a chunk session of partition pid for the requester
// from: a nil session with reconcile false means the requester is current,
// reconcile true that it must reconcile first. chunkBytes is the chunk
// budget (0: DefaultChunkBytes).
func (l *LocalPeer) OpenStream(from, pid int, dbvv vv.VV, chunkBytes uint64) (cur *ChunkSession, reconcile bool, err error) {
	part, reconcile := l.open(from, pid, dbvv)
	switch {
	case part == nil:
		return nil, false, notReplicated(pid)
	case reconcile:
		return nil, true, nil
	}
	return part.StartChunkSession(dbvv, chunkBytes), false, nil
}

// Stream drains a chunk session of DefaultChunkBytes chunks in the
// caller's goroutine.
func (l *LocalPeer) Stream(r *Replica, pid int, dbvv vv.VV, apply func(*Propagation) error) (bool, error) {
	cur, reconcile, err := l.OpenStream(r.ID(), pid, dbvv, 0)
	if err == nil {
		err = drainChunks(cur, apply)
	}
	return reconcile, err
}

// drainChunks applies every chunk of cur (nil: none) before the next one
// is cut, up to the first chunk apply fails. An un-owned chunk is cloned
// on apply, so its shell is recycled.
func drainChunks(cur *ChunkSession, apply func(*Propagation) error) error {
	for cur != nil {
		p := cur.Next()
		if p == nil {
			return nil
		}
		err := apply(p)
		cur.Recycle(p)
		if err != nil {
			return err
		}
	}
	return nil
}

// OOB serves key from the partition that owns it.
func (l *LocalPeer) OOB(_ *Replica, key string) (OOBReply, error) {
	pid := l.partitionOf(key)
	part := l.partition(pid)
	if part == nil {
		return OOBReply{}, notReplicated(pid)
	}
	return part.ServeOOB(key), nil
}

// Limits runs catch-ups one at a time, so in-process pulls keep partition
// order, and leaves them uncapped.
func (l *LocalPeer) Limits() (int, uint64) { return 1, 0 }
