package core

// Streaming propagation sessions: the chunked, cursor-based variant of
// BuildPropagation / ApplyPropagation for bulk catch-up.
//
// The monolithic session materializes the whole payload under the source's
// locks, ships it as one message and commits it in one critical section, so
// a recipient catching up on m items holds O(m) payload bytes on both ends
// and applies nothing until the last byte arrives. A ChunkSession instead
// walks the per-origin log tails with a cursor and emits the payload in
// bounded chunks, each of which the recipient can commit immediately.
//
// # Chunk boundary rule
//
// The protocol's correctness rests on a prefix-ordering invariant: a
// replica always reflects a *prefix* of every origin's update sequence, so
// its DBVV component — a count of reflected updates — coincides with the
// highest reflected sequence number, and tails selected with "Seq > floor"
// are exactly what the recipient lacks. A chunk therefore may not ship an
// item whose IVV covers updates whose log records have not been shipped
// yet: adopting it would advance the recipient's DBVV past its record
// coverage, later floors would exclude records the recipient never saw,
// and updates would be lost.
//
// Each chunk is cut at a per-origin prefix boundary: the session fixes a
// target (the source DBVV at session start), snapshots the per-origin
// record tails in (floor, target] as metadata, and every chunk advances a
// per-origin frontier in sequence order until the byte budget is met AND
// no item is left partially emitted — an item's payload ships in the same
// chunk as ALL of its session records (at most one per origin, so the
// overshoot past the budget is small). By the time the recipient adopts a
// copy, every log record backing the copy's IVV sits in this or an earlier
// chunk, and no record ever arrives whose item was withheld. Applying a
// chunk is Fig. 3 verbatim over the chunk's records and items, and the
// recipient's DBVV advances incrementally, each step backed by appended
// records.
//
// An item updated at the source mid-session ends the session: any new
// update moves the item's log record beyond the session target, so the
// current copy's IVV exceeds the session's record coverage and shipping it
// would overcount the recipient's DBVV (floors would then exclude records
// the recipient never saw — permanent loss). Withholding just that item is
// no better: same-origin records after the withheld one would still ship,
// leaving the recipient's log tail ahead of its update count. So the
// session aborts cleanly at the current (unsent) chunk. Every chunk
// already shipped is a per-origin record prefix with all of its items
// aboard — a consistent partial catch-up — and the next session's floor
// resumes from exactly there, re-snapshotting tails that now include the
// moved record. Catch-up thus proceeds front-to-back even under a write-hot
// source: updated items re-log at the tail, so restarted sessions ship the
// stable prefix first.
//
// # Resume is free
//
// Each applied chunk durably advances the recipient's DBVV, so a
// connection drop mid-session needs no resume protocol: the next session
// starts from the new DBVV and the source's tails exclude everything
// already applied.
//
// Chunks always carry whole-item payloads, even on replicas configured for
// record-shipping: the delta economy targets steady-state gossip where the
// recipient is one update behind, while streaming targets bulk catch-up
// where full values dominate either way. The monolithic path keeps the
// delta machinery.

import (
	"repro/internal/logvec"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/vv"
)

// DefaultChunkBytes is the chunk payload budget used when a session is
// started with no explicit size: large enough to amortize framing, small
// enough that both ends hold only a sliver of a bulk catch-up in memory.
const DefaultChunkBytes = 256 << 10

// primeChunkBytes caps a session's FIRST chunk. Time-to-first-applied-item
// is the streamed path's headline latency win, and it is gated by the first
// chunk's build + ship + decode + commit; a small opener primes the
// three-stage pipeline in a fraction of the full budget's time, after which
// full-size chunks amortize framing while build, transfer and apply
// overlap. Analogous to a congestion window's slow start.
const primeChunkBytes = 16 << 10

// ChunkSession is a source-side cursor over one streaming propagation
// session. Obtain one with StartChunkSession and drain it with Next; it is
// not safe for concurrent use (drive it from one goroutine).
//
//epi:notshared session cursor documented not safe for concurrent use; driven by one goroutine
type ChunkSession struct {
	r        *Replica
	floor    vv.VV // recipient DBVV at session start
	target   vv.VV // source DBVV at session start: the session's goal
	maxBytes uint64

	// tails snapshots the session's record tails. A record's item and
	// sequence number never change (superseding it makes a new record),
	// so the snapshot keeps both however the log moves meanwhile.
	tails [][]*logvec.Record
	pos   []int // per-origin cursor into tails

	// open maps each item with session records partially emitted into
	// the current chunk to its position in the chunk's Items. The chunk
	// may close only when it is empty: a record whose item ships in a
	// different chunk would let the recipient's log tail outrun its DBVV
	// between the two commits. Only items with records pending at more
	// than one origin ever enter it, so it is empty between chunks, and
	// while one server writes no record looks it up.
	open map[*store.Item]int32

	// frontier is the sequence number of the last emitted record per
	// origin. An item is complete — its payload ships — once every origin's
	// live record for it is either outside the session window or at/behind
	// this frontier; the log keeps one record per item per origin, so this
	// is decidable with n lookups and no per-item bookkeeping.
	frontier []uint64

	done    bool
	chunks  uint64
	records uint64

	// lastItems is the previous chunk's item count, used to pre-size the
	// next chunk's slices: consecutive chunks of one session are close in
	// shape, and growth reallocations of 10^3-entry payload slices are a
	// measurable share of a bulk catch-up's garbage.
	lastItems int
	// ivvArena backs the current chunk's payload IVV clones (one slab per
	// chunk rather than one allocation per item).
	ivvArena []uint64

	// free holds chunk shells the shipper has returned via Recycle; Next
	// drains it before allocating. A session's chunks are near-identical in
	// shape, so a ring of a few shells removes nearly all of the steady
	// state's slice garbage.
	free chan *Propagation
}

// StartChunkSession opens a streaming session for a recipient whose DBVV
// is recipientDBVV. It returns nil when the recipient is current (the O(1)
// "you-are-current" outcome). maxBytes bounds each chunk's payload
// estimate; 0 selects DefaultChunkBytes.
//
// Only record *metadata* (keys and sequence numbers) is snapshotted up
// front — the same information the log vector already holds in memory.
// Item payloads are cloned lazily, one chunk at a time, under short
// per-chunk read sweeps, so peak payload memory is O(chunk), not O(m).
func (r *Replica) StartChunkSession(recipientDBVV vv.VV, maxBytes uint64) *ChunkSession {
	if maxBytes == 0 {
		maxBytes = DefaultChunkBytes
	}
	r.rlockAll()
	defer r.runlockAll()

	r.met.DBVVComparisons.Add(1)
	if recipientDBVV.DominatesOrEqual(r.dbvv) {
		r.met.PropagationNoops.Add(1)
		r.met.Messages.Add(1)
		r.met.BytesSent.Add(16)
		return nil
	}

	s := &ChunkSession{
		r:        r,
		floor:    recipientDBVV.Clone(),
		target:   r.dbvv.Clone(),
		maxBytes: maxBytes,
		tails:    make([][]*logvec.Record, r.n),
		pos:      make([]int, r.n),
		frontier: make([]uint64, r.n),
		free:     make(chan *Propagation, 4),
	}
	for k := 0; k < r.n; k++ {
		s.frontier[k] = recipientDBVV.Get(k)
		if r.dbvv[k] <= recipientDBVV.Get(k) {
			continue
		}
		// The component's record count bounds the tail exactly for a fresh
		// recipient and is a near-fit otherwise; pre-sizing avoids the
		// growth reallocations of a 10^5-record snapshot.
		tail := make([]*logvec.Record, 0, r.logs.Component(k).Len())
		r.logs.Component(k).TailAfter(recipientDBVV.Get(k), func(rec *logvec.Record) {
			tail = append(tail, rec)
		})
		s.tails[k] = tail
	}
	r.met.StreamSessions.Add(1)
	return s
}

// Target returns the source DBVV the session was opened against.
func (s *ChunkSession) Target() vv.VV { return s.target.Clone() }

// Records returns the number of log records the session has emitted so far.
func (s *ChunkSession) Records() uint64 { return s.records }

// Chunks returns the number of chunks the session has emitted so far.
func (s *ChunkSession) Chunks() uint64 { return s.chunks }

// Next builds and returns the session's next chunk, or nil when the
// session is drained (or aborted by a mid-session update; see the package
// doc). Each call takes the all-shard read sweep for O(chunk) work only; no
// lock is held between calls, so updates and other sessions interleave
// freely with a streaming session in flight.
//
//epi:hotpath
func (s *ChunkSession) Next() *Propagation {
	if s.done {
		return nil
	}
	r := s.r
	r.rlockAll()
	defer r.runlockAll()

	budget := s.maxBytes
	if s.chunks == 0 && budget > primeChunkBytes {
		budget = primeChunkBytes
	}
	itemCap := s.lastItems
	if itemCap == 0 {
		itemCap = int(budget / 128)
	}
	p := s.shell(itemCap)
	var used uint64
	var nrecs uint64

	// Advance the per-origin frontiers round-robin, one record per origin
	// per sweep, so frontiers move roughly together and items whose records
	// span origins complete early rather than holding the chunk open. An
	// item takes the next position in the chunk's Items at its first record
	// here, and its payload fills that position at its last.
sweep:
	for {
		progressed := false
		for k := range s.tails {
			if s.pos[k] >= len(s.tails[k]) {
				continue
			}
			rec := s.tails[k][s.pos[k]]
			s.pos[k]++
			s.frontier[k] = rec.Seq
			progressed = true
			pending, ok := s.statusLocked(rec.Item)
			if !ok {
				// Updated mid-session: the copy now covers records beyond
				// the session target. Abort — discard this unsent chunk
				// and end the session; every shipped chunk remains a
				// consistent prefix and the next session resumes from the
				// recipient's advanced DBVV.
				s.done = true
				return nil
			}
			// The item's position: the one its first record in this chunk
			// gave it while records remain pending, the next one otherwise.
			// Membership in open decides, not a count of emitted records: a
			// snapshot record pruned since the session began is no longer
			// live, so no count of live records sees it.
			at, isOpen := int32(len(p.Items)), false
			if len(s.open) > 0 {
				if a, found := s.open[rec.Item]; found {
					at, isOpen = a, true
				}
			}
			switch {
			case pending > 0 && !isOpen:
				p.Items = append(p.Items, ItemPayload{})
				if s.open == nil {
					s.open = make(map[*store.Item]int32)
				}
				s.open[rec.Item] = at
			case pending == 0 && isOpen:
				delete(s.open, rec.Item)
				p.Items[at] = s.payloadLocked(rec.Item)
				used += p.Items[at].wireSize()
			case pending == 0:
				payload := s.payloadLocked(rec.Item)
				used += payload.wireSize()
				p.Items = append(p.Items, payload)
			}
			if p.Tails[k] == nil {
				c := len(s.tails[k]) - s.pos[k] + 1
				if c > itemCap+8 {
					c = itemCap + 8
				}
				p.Tails[k] = make([]TailRecord, 0, c)
			}
			prev := tailStart
			if n := len(p.Tails[k]); n > 0 {
				prev = p.Tails[k][n-1]
			}
			tr := TailRecord{Item: at, Seq: rec.Seq}
			p.Tails[k] = append(p.Tails[k], tr)
			used += recordWireSize(prev, tr)
			nrecs++
			if used >= budget && len(s.open) == 0 {
				break sweep
			}
		}
		if !progressed {
			s.done = true
			break
		}
	}

	if nrecs == 0 && len(p.Items) == 0 {
		return nil
	}
	p.arena = s.ivvArena
	s.lastItems = len(p.Items)
	s.chunks++
	s.records += nrecs
	r.met.LogRecordsSent.Add(nrecs)
	r.met.ItemsSent.Add(uint64(len(p.Items)))
	r.met.ChunksSent.Add(1)
	r.met.Messages.Add(1)
	size := p.WireSize()
	r.met.BytesSent.Add(size)
	metrics.StoreMax(&r.met.PeakPayloadBytes, size)
	return p
}

// shell returns a chunk to build into: a recycled one from the shipper —
// backing slices and IVV slab intact — when available, a fresh one
// otherwise. Also primes s.ivvArena for this chunk's payload clones (one
// slab per chunk instead of one allocation per item; the slab travels with
// the chunk via its arena field and comes back on recycle).
func (s *ChunkSession) shell(itemCap int) *Propagation {
	r := s.r
	var p *Propagation
	select {
	case p = <-s.free:
	default:
	}
	need := r.n * (itemCap + 8)
	if p == nil {
		s.ivvArena = make([]uint64, 0, need)
		return &Propagation{
			Source: r.id,
			Tails:  make([][]TailRecord, len(s.tails)),
			Items:  make([]ItemPayload, 0, itemCap+8),
		}
	}
	for k := range p.Tails {
		if p.Tails[k] != nil {
			p.Tails[k] = p.Tails[k][:0]
		}
	}
	p.Items = p.Items[:0]
	p.Owned, p.FrameKeys = false, false
	if cap(p.arena) >= need {
		s.ivvArena = p.arena[:0]
	} else {
		s.ivvArena = make([]uint64, 0, need)
	}
	p.arena = nil
	return p
}

// Recycle hands a shipped chunk back to the session for reuse by a later
// Next. The caller must be entirely done with p and everything it
// references — the next chunk is built into the same backing slices.
// Recycling is optional (a dropped shell is simply garbage collected) and
// safe to call from the shipping goroutine while Next runs on the building
// one; the channel handoff orders the reuse after the return.
func (s *ChunkSession) Recycle(p *Propagation) {
	if p == nil {
		return
	}
	select {
	case s.free <- p:
	default:
	}
}

// statusLocked classifies an item's live records right after one of its
// session records was emitted (the per-origin frontier already covers it).
// Caller holds the all-shard read sweep. It returns the number of the
// item's session records still pending ahead of the frontiers, and
// ok=false when any live record sits beyond the session target — the item
// was updated mid-session and the session must abort.
func (s *ChunkSession) statusLocked(it *store.Item) (pending int, ok bool) {
	for l, lr := range it.LogRecords() {
		if lr == nil {
			continue
		}
		switch {
		case lr.Seq > s.target.Get(l):
			return 0, false // superseded mid-session
		case lr.Seq > s.frontier[l]:
			pending++ // above the frontier, so above the session floor too
		}
	}
	return pending, true
}

// payloadLocked clones the payload for an item whose last session record
// was just emitted. Caller holds the all-shard read sweep and has already
// ruled out mid-session supersession via statusLocked.
func (s *ChunkSession) payloadLocked(it *store.Item) ItemPayload {
	s.r.met.ItemsExamined.Add(1)
	// The payload may alias the store's value buffer: values are
	// immutable-on-write (Update installs a fresh slice), so the alias
	// stays intact however long the chunk is in flight. The IVV is cloned
	// (into the chunk's slab) because local updates increment it in place.
	var ivv vv.VV
	ivv, s.ivvArena = it.IVV.CloneInto(s.ivvArena)
	return ItemPayload{
		Key:   it.Key,
		Value: it.Value,
		IVV:   ivv,
	}
}

// ApplyChunk commits one streamed chunk at the recipient — AcceptPropagation
// (Fig. 3) plus intra-node propagation over the chunk's records and items.
// Because the source cuts chunks at per-origin prefix boundaries, the
// commit needs nothing beyond the ordinary session apply: every adopted
// copy's records sit in this or an earlier (already committed) chunk, so
// the DBVV advances incrementally without ever outrunning log coverage.
// Each commit is one atomic node action; between chunks, reads, updates
// and other sessions observe a consistent intermediate state.
func (r *Replica) ApplyChunk(p *Propagation) {
	if p == nil {
		return
	}
	r.lockAll()
	defer r.unlockAll()
	r.applySessionLocked(p, nil)
	r.met.ChunksApplied.Add(1)
}

// SessionPlan is PlanPropagation's decision for one propagation request.
type SessionPlan int

const (
	// PlanCurrent: the recipient's DBVV dominates the source's; reply
	// "you-are-current" without building anything.
	PlanCurrent SessionPlan = iota
	// PlanMonolithic: the payload estimate fits under the requester's cap;
	// build and ship it as one message.
	PlanMonolithic
	// PlanStream: the payload estimate exceeds the cap; divert the session
	// onto the streaming path instead of materializing the payload.
	PlanStream
)

// PlanPropagation decides, in one read sweep and without cloning any
// payload, how a propagation session for recipientDBVV should run under a
// monolithic-response cap of maxBytes (0 means uncapped). The steady-state
// outcome stays O(1): a current recipient costs exactly one DBVV
// comparison, and the "you-are-current" reply is charged here, so the
// caller must not also run BuildPropagation for that case. The size
// estimate uses the same per-record and per-item terms as
// Propagation.WireSize, always counting full values (the streaming path
// ships whole items, so deltas would only flatter the estimate).
//
//epi:hotpath
func (r *Replica) PlanPropagation(recipientDBVV vv.VV, maxBytes uint64) SessionPlan {
	r.rlockAll()
	defer r.runlockAll()

	r.met.DBVVComparisons.Add(1)
	if recipientDBVV.DominatesOrEqual(r.dbvv) {
		r.met.PropagationNoops.Add(1)
		r.met.Messages.Add(1)
		r.met.BytesSent.Add(16)
		return PlanCurrent
	}
	if maxBytes == 0 {
		return PlanMonolithic
	}
	// Accumulate the exact terms AppendPropagation would emit for the
	// monolithic payload BuildPropagation would produce: the source/tail
	// header, each record, each selected item (always at its full-value
	// size — the streaming path ships whole items, and counting deltas
	// here would only flatter the estimate toward the monolithic choice).
	// Every term is non-negative, so the walk stops as soon as the running
	// sum passes the cap: the answer is "stream" however much tail is left.
	plan := PlanMonolithic
	size := varintSize(int64(r.id)) + uvarintSize(uint64(r.n))
	var sel selection
	var vals, slots uint64
walk:
	for k := 0; k < r.n; k++ {
		nrecs := uint64(0)
		if floor := recipientDBVV.Get(k); r.dbvv[k] > floor {
			prev := tailStart
			for rec := r.logs.Component(k).TailStart(floor); rec != nil; rec = rec.Next() {
				it := rec.Item
				if !it.Selected() {
					size += 1 + stringWireSize(len(it.Key)) + stringWireSize(len(it.Value)) + uint64(it.IVV.BinarySize())
					vals += uint64(len(it.Value))
					slots += uint64(len(it.IVV))
				}
				tr := TailRecord{Item: sel.reach(it, k, recipientDBVV), Seq: rec.Seq}
				size += recordWireSize(prev, tr)
				prev = tr
				nrecs++
				if size > maxBytes {
					plan = PlanStream
					break walk
				}
			}
		}
		size += uvarintSize(nrecs)
	}
	for _, it := range sel.items {
		it.SetSelected(false)
	}
	if size+uvarintSize(uint64(len(sel.items)))+uvarintSize(vals)+uvarintSize(slots) > maxBytes {
		plan = PlanStream
	}
	return plan
}
