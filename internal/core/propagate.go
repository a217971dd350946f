package core

import (
	"fmt"
	"slices"

	"repro/internal/logvec"
	"repro/internal/metrics"
	"repro/internal/op"
	"repro/internal/store"
	"repro/internal/vv"
)

// TailRecord is one log record shipped during propagation: the item at
// position Item of the same message's Items was updated by the origin
// server owning the enclosing tail, and Seq is the origin's update
// sequence number (§4.2). Like P_j(x) in Fig. 1 the record points at its
// item instead of naming its key, so a message names each key once, and
// the recipient resolves each item once however many records point at it.
// Seqs ascend within a tail.
//
//epi:notshared value record inside a Propagation; snapshotted under the build sweep
type TailRecord struct {
	Item int32
	Seq  uint64
}

// ItemPayload carries one data item from source to recipient. Only regular
// copies travel in propagation (§5.1). Two representations exist:
//
//   - full (IsDelta false): the item's value and IVV, adopted wholesale —
//     the paper's presentation context;
//   - delta (IsDelta true): a bounded chain of the most recent updates as
//     redo-able operations — the record-shipping variant (§2). A recipient
//     whose copy sits anywhere on the chain's path applies the matching
//     suffix; recipients further behind fetch the full copy in a second
//     round.
//
//epi:notshared value payload inside a Propagation; carries clones or transferred buffers
type ItemPayload struct {
	Key   string
	Value []byte
	IVV   vv.VV

	// IsDelta marks a record-shipping payload: Chain holds the retained
	// updates oldest first, Pre is the vector before the first of them and
	// IVV the vector after the last. A recipient whose copy sits anywhere
	// on that path applies the matching suffix.
	IsDelta bool
	Chain   []DeltaLink
	Pre     vv.VV
}

// DeltaLink is one update of a shipped delta chain.
//
//epi:notshared value link inside an ItemPayload chain
type DeltaLink struct {
	Op     op.Op
	Origin int
}

// Propagation is the reply message of SendPropagation (Fig. 2): the tail
// vector D (one tail of records per origin server) and the item set S with
// per-item IVVs. Every record of D points at an item of S by its position
// in Items. A nil Propagation means "you-are-current".
//
//epi:notshared single-owner message: built by one replica, shipped, then consumed by the recipient (Owned transfers buffer ownership)
type Propagation struct {
	Source int
	Tails  [][]TailRecord // indexed by origin server k
	Items  []ItemPayload

	// Owned marks a propagation whose payload buffers belong exclusively
	// to the recipient — set by the wire decoders, which copy every value
	// and IVV out of the frame buffer, and never by in-process sessions
	// (their payloads may alias the source's store). Applying an owned
	// propagation adopts those buffers instead of cloning them again; an
	// owned propagation must therefore be applied at most once.
	Owned bool

	// FrameKeys marks a propagation whose item keys are slices of one
	// string holding a whole decoded frame (wire.DecodeSessionChunkInto).
	// The recipient gives a new item a key string of its own, so that the
	// frame is not kept alive.
	FrameKeys bool

	// arena is the IVV slab a chunk session carved this chunk's payload
	// vectors from. It rides on the chunk so shell recycling (see
	// ChunkSession.Recycle) reuses the slab along with the slices.
	arena []uint64
}

// WireSize returns the exact number of bytes the wire codec's
// AppendPropagation emits for p — the same varint/length-prefix terms,
// mirrored here because the size gates planning decisions (the
// monolithic-vs-streaming choice, per-partition session planning) that run
// before any encoding happens. A nil propagation reports the fixed
// estimate for the "you-are-current" exchange (the reply flag byte plus
// the framing around it), matching the paper's O(1) cost model.
func (p *Propagation) WireSize() uint64 {
	if p == nil {
		return 16 // "you-are-current" message
	}
	vals, slots := p.SlabSizes()
	size := varintSize(int64(p.Source)) + uvarintSize(uint64(len(p.Items))) + uvarintSize(vals) + uvarintSize(slots)
	for i := range p.Items {
		size += p.Items[i].wireSize()
	}
	size += uvarintSize(uint64(len(p.Tails)))
	for _, tail := range p.Tails {
		size += uvarintSize(uint64(len(tail)))
		prev := tailStart
		for _, rec := range tail {
			size += recordWireSize(prev, rec)
			prev = rec
		}
	}
	return size
}

// SlabSizes returns the value bytes and version-vector slots (IVV, plus
// Pre for a delta item) p's items hold, which the codec's item-section
// header carries so that a decoder can size its slabs before the items
// arrive.
func (p *Propagation) SlabSizes() (vals, slots uint64) {
	for i := range p.Items {
		it := &p.Items[i]
		vals += uint64(len(it.Value))
		slots += uint64(len(it.IVV) + len(it.Pre))
	}
	return vals, slots
}

// tailStart is the record a tail's first record is encoded against: its
// position delta counts from -1 and its seq delta from 0.
var tailStart = TailRecord{Item: -1}

// recordWireSize is the exact encoded size of tail record rec following
// prev in its tail: the zig-zag position delta plus the uvarint seq delta.
func recordWireSize(prev, rec TailRecord) uint64 {
	return varintSize(int64(rec.Item)-int64(prev.Item)) + uvarintSize(rec.Seq-prev.Seq)
}

// wireSize is the exact encoded size of one item payload, term for term
// with the codec's appendItem: a flags byte, the length-prefixed key and
// value, the IVV, and for delta items the pre-vector and chain.
func (it ItemPayload) wireSize() uint64 {
	size := 1 + stringWireSize(len(it.Key)) + stringWireSize(len(it.Value)) + uint64(it.IVV.BinarySize())
	if it.IsDelta {
		size += uint64(it.Pre.BinarySize()) + uvarintSize(uint64(len(it.Chain)))
		for _, link := range it.Chain {
			size += varintSize(int64(link.Origin)) + uint64(link.Op.MarshalSize())
		}
	}
	return size
}

// stringWireSize is the encoded size of a length-prefixed string or byte
// slice of n bytes.
func stringWireSize(n int) uint64 {
	return uvarintSize(uint64(n)) + uint64(n)
}

// uvarintSize is the byte length of binary.AppendUvarint(x).
func uvarintSize(x uint64) uint64 {
	n := uint64(1)
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintSize is the byte length of binary.AppendVarint(x) (zig-zag).
func varintSize(x int64) uint64 {
	return uvarintSize(uint64(x)<<1 ^ uint64(x>>63))
}

// RecordCount returns the total number of tail records shipped.
func (p *Propagation) RecordCount() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, tail := range p.Tails {
		n += len(tail)
	}
	return n
}

// PropagationRequest begins an update-propagation session at the recipient:
// it returns the recipient's DBVV to be sent to the source (step 1, §5.1).
func (r *Replica) PropagationRequest() vv.VV {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	r.met.Propagations.Add(1)
	r.met.Messages.Add(1)
	r.met.BytesSent.Add(uint64(8 * r.n))
	return r.dbvv.Clone()
}

// BuildPropagation is the source side of SendPropagation (Fig. 2). Given
// the recipient's DBVV it either reports that the recipient is current
// (nil, detected in O(1) by a single DBVV comparison) or returns the tail
// vector D and item set S.
//
// Cost: O(1) when no propagation is needed; otherwise O(n·m) where m is the
// number of items shipped — records are extracted from suffixes of the
// per-origin logs and the item-set union is computed with the IsSelected
// flags (§6), so no per-database-item work is ever done.
//
// The result is a consistent snapshot: tails and item payloads are cloned
// under the all-shard read sweep plus the control mutex, so they mutually
// agree, and everything after the return — encoding, shipping, the rest of
// the session — runs without any lock held. Plain reads proceed throughout
// (shard read-locks are shared); updates are excluded only during the
// clone itself, not for the session.
//
//epi:hotpath
func (r *Replica) BuildPropagation(recipientDBVV vv.VV) *Propagation {
	r.rlockAll()
	defer r.runlockAll()

	r.met.DBVVComparisons.Add(1)
	if recipientDBVV.DominatesOrEqual(r.dbvv) {
		// "you-are-current": recipient needs nothing from us.
		r.met.PropagationNoops.Add(1)
		r.met.Messages.Add(1)
		r.met.BytesSent.Add(16)
		return nil
	}

	p := &Propagation{Source: r.id, Tails: make([][]TailRecord, r.n)}
	var sel selection
	for k := 0; k < r.n; k++ {
		if r.dbvv[k] <= recipientDBVV.Get(k) {
			continue // D_k = NULL
		}
		floor := recipientDBVV.Get(k)
		tail := make([]TailRecord, 0, 8)
		r.logs.Component(k).TailAfter(floor, func(rec *logvec.Record) {
			r.met.ItemsExamined.Add(1)
			tail = append(tail, TailRecord{Item: sel.reach(rec.Item, k, recipientDBVV), Seq: rec.Seq})
		})
		p.Tails[k] = tail
		r.met.LogRecordsSent.Add(uint64(len(tail)))
	}

	p.Items = make([]ItemPayload, 0, len(sel.items))
	for _, it := range sel.items {
		it.SetSelected(false) // flip flags back (§6)
		if r.deltaMode && store.ChainValid(it.Deltas, it.IVV) {
			// Ship the delta form only when it is actually smaller than the
			// value it reconstructs — a chain that still contains a
			// whole-value Set is no cheaper than the value itself. Below the
			// floor the representation choice is immaterial (vector overhead
			// dominates either way), so deltas always ship there.
			chainBytes := 0
			for _, d := range it.Deltas {
				chainBytes += d.Op.WireSize() + 2
			}
			if len(it.Value) <= deltaSizeFloor || chainBytes < len(it.Value) {
				chain := make([]DeltaLink, len(it.Deltas))
				for i, d := range it.Deltas {
					chain[i] = DeltaLink{Op: d.Op.Clone(), Origin: d.Origin}
				}
				p.Items = append(p.Items, ItemPayload{
					Key:     it.Key,
					IVV:     it.IVV.Clone(),
					IsDelta: true,
					Chain:   chain,
					Pre:     it.Deltas[0].Pre.Clone(),
				})
				r.met.DeltasSent.Add(1)
				continue
			}
		}
		p.Items = append(p.Items, ItemPayload{
			Key:   it.Key,
			Value: store.CloneBytes(it.Value),
			IVV:   it.IVV.Clone(),
		})
	}
	r.met.ItemsSent.Add(uint64(len(p.Items)))
	r.met.Messages.Add(1)
	size := p.WireSize()
	r.met.BytesSent.Add(size)
	metrics.StoreMax(&r.met.PeakPayloadBytes, size)
	return p
}

// selection gives the items a session's source walk selects their
// positions in the message's Items, in the order the walk first reaches
// them (BuildPropagation, PlanPropagation); the walk visits the origins in
// ascending order. An item the walk reaches from one origin's tail only —
// every item, while one server writes — costs its IsSelected flag (§6) and
// no lookup. An item whose P_j(x) pointers show a record a later origin's
// walk will also reach enters multi when it is selected, and that walk
// finds its position there.
//
//epi:notshared per-walk scratch, local to one BuildPropagation or PlanPropagation sweep
type selection struct {
	items []*store.Item
	multi map[*store.Item]int32
}

// reach returns the position of it, whose record origin k's walk over the
// records above floor has just reached, selecting it on its first reach.
// An item already selected and not in multi was selected outside this
// walk (a flag left set, or a walk racing this one): no position is right
// for its record, so reach panics rather than point it at another item.
// Caller holds the control mutex.
func (s *selection) reach(it *store.Item, k int, floor vv.VV) int32 {
	if it.Selected() {
		at, ok := s.multi[it]
		if !ok {
			panic(fmt.Sprintf("core: item %q reached from origin %d was selected outside this walk", it.Key, k))
		}
		return at
	}
	it.SetSelected(true)
	at := int32(len(s.items))
	s.items = append(s.items, it)
	recs := it.LogRecords()
	for l := k + 1; l < len(recs); l++ {
		if lr := recs[l]; lr != nil && lr.Seq > floor.Get(l) {
			if s.multi == nil {
				s.multi = make(map[*store.Item]int32)
			}
			s.multi[it] = at
			break
		}
	}
	return at
}

// BuildItems serves full copies of the named items — the second round of a
// delta-mode session, requested by a recipient too far behind to apply some
// shipped deltas, and the fetch of a reconciliation. Each item is read
// under its own shard read-lock; the session's correctness needs only
// per-item consistency here, since every fetched copy is re-compared
// against the recipient's IVV at commit. The payloads share the stored
// values, which are never written in place (every op.Apply returns a fresh
// slice), and carry IVV copies cut from one slab per call, because local
// updates increment IVVs in place.
//
//epi:hotpath
func (r *Replica) BuildItems(keys []string) []ItemPayload {
	items := make([]ItemPayload, 0, len(keys))
	var arena []uint64
	for _, key := range keys {
		r.store.RLockKey(key)
		it := r.store.Get(key)
		if it == nil {
			r.store.RUnlockKey(key)
			continue
		}
		if arena == nil {
			arena = make([]uint64, 0, len(keys)*r.store.Servers())
		}
		var ivv vv.VV
		ivv, arena = it.IVV.CloneInto(arena)
		payload := ItemPayload{
			Key:   it.Key,
			Value: it.Value,
			IVV:   ivv,
		}
		r.store.RUnlockKey(key)
		items = append(items, payload)
		r.met.ItemsSent.Add(1)
		r.met.BytesSent.Add(payload.wireSize())
	}
	r.met.Messages.Add(1)
	r.met.FullFetches.Add(uint64(len(items)))
	return items
}

// NeedFull is the read-only probe of a delta-mode session: it returns the
// keys of shipped deltas this replica cannot apply directly (its copy is
// more than one update behind), for which full copies must be fetched with
// BuildItems before committing via ApplyPropagationWithItems. It returns
// nil for whole-item sessions.
func (r *Replica) NeedFull(p *Propagation) []string {
	if p == nil || !slices.ContainsFunc(p.Items, func(it ItemPayload) bool { return it.IsDelta }) {
		return nil // only a delta's base can be missing
	}
	r.rlockAll()
	defer r.runlockAll()
	return r.needFullLocked(p)
}

// needFullLocked computes the full-copy fetch set. Caller holds at least
// the all-shard read sweep plus the control mutex.
func (r *Replica) needFullLocked(p *Propagation) []string {
	var need []string
	for _, payload := range p.Items {
		if !payload.IsDelta {
			continue
		}
		var local vv.VV
		if it := r.store.Get(payload.Key); it != nil {
			local = it.IVV
		} else {
			local = vv.New(r.n)
		}
		if payload.IVV.Compare(local) == vv.Dominates && chainSuffixAt(payload, local) < 0 {
			need = append(need, payload.Key)
		}
	}
	return need
}

// chainSuffixAt returns the index into payload.Chain from which the chain
// applies to a copy at `local` (len(Chain) means "already at the post
// state"), or -1 when local lies nowhere on the chain's path.
func chainSuffixAt(payload ItemPayload, local vv.VV) int {
	state := payload.Pre.Clone()
	if local.Equal(state) {
		return 0
	}
	for i, link := range payload.Chain {
		state = state.Extended(link.Origin + 1)
		state.Inc(link.Origin)
		if local.Equal(state) {
			return i + 1
		}
	}
	return -1
}

// ApplyPropagation is the recipient side: AcceptPropagation (Fig. 3)
// followed by IntraNodePropagation (Fig. 4) for the items copied. A nil
// Propagation (the "you-are-current" reply) is a no-op.
//
// For every shipped item the recipient compares IVVs: a dominating remote
// copy is adopted (and the DBVV advanced per maintenance rule 3, §4.1); a
// concurrent one is declared in conflict and its log records purged from
// the tails. Remaining tail records are appended with AddLogRecord.
//
// In delta mode a session may ship deltas this replica cannot apply (it is
// more than one update behind). ApplyPropagation then commits NOTHING and
// returns the keys needing full copies: partial application would punch
// holes in the per-origin prefix ordering the correctness proof relies on.
// The caller fetches those copies (BuildItems at the source) and commits
// with ApplyPropagationWithItems; AntiEntropy does this automatically. The
// return value is always nil for whole-item sessions.
//
// The paper proves the remote IVV can never be dominated by the local one
// within a session; under concurrent sessions a fresher copy may have
// arrived between request and apply, so equal or dominated payloads are
// skipped (their log records are filtered out by the recipient's
// pre-session DBVV, which already covers them).
//
// The commit is one atomic node action: it runs under every shard write
// lock plus the control mutex, so no read or update can observe a
// half-applied session, and a concurrent BuildPropagation at this node can
// never ship a DBVV advance whose log records are not yet appended.
func (r *Replica) ApplyPropagation(p *Propagation) []string {
	if p == nil {
		return nil
	}
	r.lockAll()
	defer r.unlockAll()
	if need := r.needFullLocked(p); len(need) > 0 {
		return need
	}
	r.applySessionLocked(p, nil)
	return nil
}

// ApplyPropagationWithItems commits a delta-mode session together with the
// full copies fetched for its inapplicable deltas. It always commits; a
// delta that still cannot apply and has no fetched replacement (possible
// only under a rare interleaving with concurrent sessions) is skipped with
// its log records, which the next session repairs.
func (r *Replica) ApplyPropagationWithItems(p *Propagation, items []ItemPayload) {
	if p == nil {
		return
	}
	var extras map[string]ItemPayload
	if len(items) > 0 {
		extras = make(map[string]ItemPayload, len(items))
		for _, it := range items {
			extras[it.Key] = it
		}
	}
	r.lockAll()
	defer r.unlockAll()
	r.applySessionLocked(p, extras)
}

// applySessionLocked is the committing pass shared by ApplyPropagation,
// ApplyPropagationWithItems and ApplyChunk, and the one place a recipient
// charges the payload it holds to PeakPayloadBytes. Caller holds all shard
// write locks plus the control mutex.
func (r *Replica) applySessionLocked(p *Propagation, extras map[string]ItemPayload) {
	metrics.StoreMax(&r.met.PeakPayloadBytes, p.WireSize())
	// A message mentioning more origin servers than we know means the
	// server set has grown; extend our state first.
	r.maybeGrowFor(p)

	// DBVV snapshot before any adoption: the filter that decides which tail
	// records this node genuinely lacked at session start.
	pre := r.dbvv.Clone()

	// resolved[i] is the local item payload i applied to, and nil where
	// the payload conflicted or was skipped, so that tail records reach
	// their items by position with no store lookup and skip those payloads'
	// records (Fig. 3).
	var fixed [8]*store.Item
	resolved := fixed[:0]
	if len(p.Items) > len(fixed) {
		resolved = make([]*store.Item, 0, len(p.Items))
	}
	var copied []*store.Item
	for i, payload := range p.Items {
		if payload.IsDelta {
			if full, ok := extras[payload.Key]; ok {
				payload = full // fetched replacement: treat as whole-item
			}
		}
		it := r.store.EnsureLean(payload.Key, p.FrameKeys)
		resolved = append(resolved, it)
		r.met.IVVComparisons.Add(1)
		switch payload.IVV.Compare(it.IVV) {
		case vv.Dominates:
			if payload.IsDelta {
				start := chainSuffixAt(payload, it.IVV)
				if start < 0 {
					// Inapplicable and not fetched: a concurrent session
					// moved this copy between probe and commit. Skip the
					// item and purge its records; the next session ships
					// it again.
					r.met.AnomaliesIgnored.Add(1)
					resolved[i] = nil
					continue
				}
				newVal := it.Value
				applyErr := false
				for _, link := range payload.Chain[start:] {
					var err error
					newVal, err = link.Op.Apply(newVal)
					if err != nil {
						applyErr = true
						break
					}
				}
				if applyErr {
					r.met.AnomaliesIgnored.Add(1)
					resolved[i] = nil
					continue
				}
				it.IVV.AccumulateDelta(payload.IVV, r.dbvv)
				it.Value = newVal
				it.IVV = payload.IVV.Clone()
				r.noteChangedLocked(it)
				if r.deltaMode {
					// Retain the whole chain (bounded by our own depth)
					// for forwarding to nodes behind us.
					it.Deltas = it.Deltas[:0]
					state := payload.Pre.Clone()
					for _, link := range payload.Chain {
						it.Deltas = append(it.Deltas, store.Delta{
							Op:     link.Op.Clone(),
							Pre:    state.Clone(),
							Origin: link.Origin,
						})
						state = state.Extended(link.Origin + 1)
						state.Inc(link.Origin)
					}
					if over := len(it.Deltas) - r.deltaDepth; over > 0 {
						it.Deltas = append(it.Deltas[:0], it.Deltas[over:]...)
					}
					trimUneconomicPrefix(it, len(newVal))
				}
				r.met.ItemsCopied.Add(1)
				r.met.DeltasApplied.Add(1)
				copied = append(copied, it)
				continue
			}
			// Adopt the newer copy; advance DBVV by the extra updates the
			// new copy has seen (rule 3).
			it.IVV.AccumulateDelta(payload.IVV, r.dbvv)
			if p.Owned {
				it.Value = payload.Value
				//lint:ignore vvalias an owned propagation transfers its decoded buffers outright (see Propagation.Owned); nothing else aliases this vector
				it.IVV = payload.IVV
			} else {
				it.Value = store.CloneBytes(payload.Value)
				it.IVV = payload.IVV.Clone()
			}
			it.Deltas = nil // a wholesale adoption invalidates any retained chain
			r.noteChangedLocked(it)
			r.met.ItemsCopied.Add(1)
			copied = append(copied, it)
		case vv.Concurrent:
			r.declareConflict(Conflict{
				Key:    payload.Key,
				Local:  it.IVV.Clone(),
				Remote: payload.IVV.Clone(),
				Source: p.Source,
				Stage:  "accept",
			})
			resolved[i] = nil
		case vv.Equal:
			// Already obtained via a concurrent session; nothing to do.
		case vv.DominatedBy:
			// Impossible within a session (§5.1 note 2); reachable only
			// through interleaving with another session that delivered a
			// newer copy first.
			r.met.AnomaliesIgnored.Add(1)
		}
	}

	// Append tails, oldest record first, skipping records covered by the
	// pre-session DBVV and records referring to conflicting items (Fig. 3).
	for k, tail := range p.Tails {
		comp := r.logs.Component(k)
		for _, rec := range tail {
			if uint(rec.Item) >= uint(len(resolved)) {
				// Every record points at an item of its own message (the
				// decoder refuses any other), so this is a protocol bug,
				// surfaced defensively.
				r.met.AnomaliesIgnored.Add(1)
				continue
			}
			it := resolved[rec.Item]
			if rec.Seq <= pre.Get(k) || it == nil {
				continue
			}
			// While no conflict has ever been declared, incoming records
			// always extend the component (every retained record's Seq is
			// covered by the pre-session DBVV). After a conflict the purge
			// above legitimately leaves the DBVV behind the log tail —
			// guarantees for the conflicting item are suspended until
			// manual resolution (§5.1) — so an older record may reappear
			// here; drop it rather than corrupt the component's order.
			if t := comp.Tail(); t != nil && rec.Seq < t.Seq {
				r.met.AnomaliesIgnored.Add(1)
				continue
			}
			comp.Append(it, rec.Seq)
			r.markDirtyLocked(it)
			r.met.LogRecordsApplied.Add(1)
		}
	}

	// Step 3: intra-node propagation over the items just copied.
	for _, it := range copied {
		r.intraNodePropagateLocked(it)
	}
}

// RunIntraNodePropagation runs the intra-node procedure over every item
// holding an auxiliary copy. The paper runs it after AcceptPropagation for
// the copied items and notes it executes in the background (§6); this
// entry point is that background sweep. Candidate keys are collected shard
// by shard, then each item is replayed under its own shard write lock plus
// the control mutex — the sweep never stops the whole node.
func (r *Replica) RunIntraNodePropagation() {
	var keys []string
	r.store.ForEachShard(func(items map[string]*store.Item) {
		for _, it := range items {
			if it.Aux != nil {
				keys = append(keys, it.Key)
			}
		}
	})
	for _, key := range keys {
		r.store.LockKey(key)
		r.ctl.Lock()
		// Re-fetch under the lock: the item may have lost (or even
		// re-gained) its auxiliary copy since the scan.
		if it := r.store.Get(key); it != nil {
			r.intraNodePropagateLocked(it)
		}
		r.ctl.Unlock()
		r.store.UnlockKey(key)
	}
}

// intraNodePropagateLocked is Fig. 4 for a single item. Caller holds the
// item's shard write lock and the control mutex (or the full write sweep).
//
// While the earliest auxiliary record for the item carries exactly the
// regular copy's IVV, its operation is replayed against the regular copy as
// a fresh local update (IVV, DBVV and L_ii all advance). When the auxiliary
// log holds no more records for the item and the regular copy has caught up
// with (or passed) the auxiliary copy, the auxiliary copy is discarded.
func (r *Replica) intraNodePropagateLocked(it *store.Item) {
	if it.Aux == nil {
		return
	}
	for {
		e := r.aux.Earliest(it.Key)
		if e == nil {
			r.met.IVVComparisons.Add(1)
			if it.IVV.DominatesOrEqual(it.Aux.IVV) {
				it.Aux = nil
				r.markDirtyLocked(it)
				r.met.AuxCopiesFreed.Add(1)
			}
			return
		}
		r.met.IVVComparisons.Add(1)
		switch it.IVV.Compare(e.Pre) {
		case vv.Equal:
			newVal, err := e.Op.Apply(it.Value)
			if err != nil {
				// Ops are validated at Update time; failure here indicates
				// corruption. Drop the record defensively.
				r.met.AnomaliesIgnored.Add(1)
				r.aux.Remove(e)
				continue
			}
			if r.deltaMode {
				r.retainDelta(it, store.Delta{Op: e.Op.Clone(), Pre: it.IVV.Clone(), Origin: r.id}, len(newVal))
			}
			it.Value = newVal
			it.IVV = it.IVV.Extended(r.id + 1)
			it.IVV.Inc(r.id)
			r.dbvv.Inc(r.id)
			r.logs.Component(r.id).Append(it, r.dbvv[r.id])
			r.noteChangedLocked(it)
			r.aux.Remove(e)
			r.met.AuxOpsReplayed.Add(1)
		case vv.Concurrent:
			r.declareConflict(Conflict{
				Key:    it.Key,
				Local:  it.IVV.Clone(),
				Remote: e.Pre.Clone(),
				Source: -1,
				Stage:  "intra-node",
			})
			return
		default:
			// e.Pre dominates the regular IVV: wait for more propagation.
			// (The regular IVV can never dominate an auxiliary record's
			// vector, §5.1.)
			return
		}
	}
}
