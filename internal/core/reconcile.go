package core

// Set reconciliation: the catch-up path for replicas whose DBVV predates
// the pruned log prefix.
//
// Once log records have been pruned (prune.go), a pull request from far
// enough in the past cannot be answered from the log — the records that
// would tell the source *which* items the requester lacks are gone. The
// naive fallback is a full-state transfer, O(N) however small the true
// difference. Instead the two replicas reconcile their item sets directly
// with invertible Bloom lookup tables (Goodrich–Mitzenmacher; Eppstein et
// al., "What's the Difference?").
//
// The element being reconciled is the pair (key, IVV), hashed to a digest:
// two replicas hold the same element exactly when they hold the same copy
// of the item. Each replica maintains an unsorted slab of its digests with
// their XOR (the root fingerprint), their count, and the DBVV they reflect
// (the stamp; summary.go). The exchange is client-driven and stateless on
// the server. Every round the client sends its root, and the server
// answers from its own:
//
//	client                                 server
//	  root fp/count + stamp        ---->
//	                               <----   match | "send an m-cell sketch" |
//	                                       "send your strata" | listing
//	  root + strata estimator      ---->
//	                               <----   "send an m-cell sketch" | listing
//	  root + m-cell sketch         ---->
//	                               <----   keys only the server holds |
//	                                       "send a 2m-cell sketch" | listing
//	  root + 2m-cell retry sketch  ---->
//	                               <----   keys only the server holds | listing
//
// and then:
//
//	  fetch differing keys         ---->   full items (BuildItems)
//	  ApplyReconcileItems
//
// The paper's DBVV bounds the difference in advance: two replicas that each
// reflect a prefix of every origin's updates (§4.1) differ in at most
// D = Σ_k |V_s[k] − V_c[k]| items. When a sketch of about 2.8D + c cells
// costs less than listing the server's digests, the server asks for one at
// once. D counts updates, not items, so keys written many times (hot keys)
// make it far larger than the difference. Then the server asks for the
// client's strata estimator, 16 small sketches, stratum i sampling one
// digest in 2^(i+1), and sizes the sketch from the difference it estimates,
// with the estimate's elements taken as items: up to twice the cells the
// estimate needs, the headroom against an estimate that falls short.
// The server subtracts the client's sketch from its own and answers with
// the keys of the digests only it holds. A sketch that does not peel is
// retried once at twice its size. After that, when no sketch would cost
// less, or when the client holds nothing, the server lists every (key,
// digest) of its slab. So D and the estimate never decide what a session
// finds, an honest session ends within four round trips, and nothing is
// sorted on either side.
//
// The client looks every key a reply names up in its own slab by digest
// and fetches those whose digest it does not hold under that key, so only
// the true difference is fetched — this is what keeps the shipped payload
// within a small factor of the diff, as E19 asserts. Fetched items are
// adopted under the ordinary IVV comparison (dominating copies adopted,
// concurrent ones declared in conflict), so reconciliation obeys the same
// correctness rules as AcceptPropagation.
//
// Adopted items advance the DBVV without appending log records (there are
// no records to ship — that is why we are reconciling). The recipient's
// log therefore no longer covers its DBVV, and serving a log-based session
// from it could ship stale tails. ApplyReconcileItems closes this hole by
// raising the recipient's own pruned watermark to its post-adoption DBVV,
// inside the same critical section: any future puller below that watermark
// is itself diverted to reconciliation, and pullers at or above it need
// only records that are still intact.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ring"
	"repro/internal/store"
	"repro/internal/vv"
)

const (
	// reconcileMaxRounds bounds a session's rounds. An honest session ends
	// within four (root, strata estimator, sketch, retry sketch), so a
	// session that reaches the cap has a server that never settles.
	reconcileMaxRounds = 4
	// ReconcileFetchBatch is the number of differing keys fetched per
	// BuildItems round by the reconciliation drivers.
	ReconcileFetchBatch = 256

	// sketchHashes is the number of cells each digest is added to: the
	// sketch is cut into this many equal subtables, one cell in each. With
	// three, two elements that share all their cells stop the peel about
	// once in 40–55 sessions at 10–100 differing items; with four, a sketch
	// of about the same size fails under once in 800 at every size measured.
	sketchHashes = 4
	// toggle is written out for four subtables; this fails to compile
	// for any other count.
	_ = uint(sketchHashes-4) + uint(4-sketchHashes)
	// sketchSlackCells pads every subtable, so that small differences
	// still peel.
	sketchSlackCells = 10
	// strataCount and strataCells shape the strata estimator: stratum i
	// is a sketch of strataCells cells over the digests that hash into it,
	// one in 2^(i+1) (the last stratum takes the rest). A 40-cell stratum
	// peels about 28 elements, so 16 strata span differences up to about
	// 28·2^16 elements.
	strataCount = 16
	strataCells = 40
	// sketchCellBytes and reconcilePairBytes are the wire costs the server
	// weighs a sketch and the estimator against a listing by: a cell is an
	// 8-byte digest sum, a 4-byte check sum and a one-byte count; a listed
	// item is its 8-byte digest and a short key.
	sketchCellBytes    = 13
	reconcilePairBytes = 16
	// sketchCheckSeed keys the check hash apart from the cell indices, and
	// strataSeed keys the stratum apart from both.
	sketchCheckSeed = 0x9e3779b97f4a7c15
	strataSeed      = 0xd1b54a32d192ed03
)

// ReconcileRange is the recipient's summary of its whole item set, which
// it sends every round of a reconciliation session: the fingerprint and
// item count, and the stamp from which the server bounds the difference.
// A later round adds what the server asked for: a sketch of the size it
// named, with Retry set on the one retry after a sketch did not peel, or
// the strata estimator.
//
//epi:notshared wire message value exchanged by one reconciliation session
type ReconcileRange struct {
	Fp     uint64
	Count  uint64
	Stamp  vv.VV
	Sketch []SketchCell
	Retry  bool
	Strata []SketchCell
}

// SketchCell is one cell of an invertible Bloom lookup table over item
// digests: the XOR of the digests added to it, the XOR of their check
// hashes, and their number. Subtracting one replica's table from another's
// cancels every digest both hold; the rest peel out of the cells left
// holding exactly one.
//
//epi:notshared wire message value exchanged by one reconciliation session
type SketchCell struct {
	Sum   uint64
	Check uint32
	Count int64
}

// KeyDigest identifies one item version: the key plus the digest of its
// (key, IVV) pair. Two replicas hold the same copy of the item iff the
// digests are equal.
//
//epi:notshared wire message value exchanged by one reconciliation session
type KeyDigest struct {
	Key string
	Fp  uint64
}

// ReconcileReply answers the root a round sent. Exactly one of four
// forms applies: Match (the fingerprints agree: the sets are equal),
// SketchCells (send the root again with a sketch of that many cells),
// Strata (send the root again with the strata estimator), or Keys: the
// keys and digests a sketch showed only the server holds, or the server's
// whole slab, possibly empty.
//
//epi:notshared wire message value exchanged by one reconciliation session
type ReconcileReply struct {
	Match       bool
	Keys        []KeyDigest
	SketchCells uint64
	Strata      bool
}

// WireSize returns the exact encoded size of one range, term for term
// with the wire codec's encoding.
func (rr *ReconcileRange) WireSize() uint64 {
	size := 1 + 8 + uvarintSize(rr.Count) + cellsWireSize(rr.Sketch) + cellsWireSize(rr.Strata)
	if len(rr.Stamp) > 0 {
		size += uint64(rr.Stamp.BinarySize())
	}
	return size
}

func cellsWireSize(cells []SketchCell) uint64 {
	if len(cells) == 0 {
		return 0
	}
	size := uvarintSize(uint64(len(cells)))
	for _, c := range cells {
		size += 8 + 4 + varintSize(c.Count)
	}
	return size
}

// wireSize returns the protocol-shape byte estimate for one reply: the
// flags, the retired split count (always zero), the keys, and the sketch
// size when one is asked for.
func (rp ReconcileReply) wireSize() uint64 {
	size := uint64(1) + 1 + uvarintSize(uint64(len(rp.Keys)))
	for _, kd := range rp.Keys {
		size += stringWireSize(len(kd.Key)) + 8
	}
	if rp.SketchCells > 0 {
		size += uvarintSize(rp.SketchCells)
	}
	return size
}

// FNV-1a 64 constants, hand-rolled so itemDigest stays allocation-free:
// hash/fnv returns its state behind the hash.Hash64 interface, which heap-
// allocates per call — unacceptable for a function run once per changed
// item per reconciliation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// itemDigest hashes one (key, IVV) pair with FNV-1a 64, finalized with
// splitmix64. The digest covers every non-zero IVV component with its
// index, so vectors of different (grown) lengths that are component-wise
// equal digest identically.
//
// The finalizer is what makes XOR fingerprints and sketch cells sound.
// Raw FNV-1a ends in a xor-then-multiply per byte, so when two versions of
// an item differ only in a trailing counter byte, the XOR of their digests
// is decided mostly by carries in the low bits of the state before that
// byte: across keys like item-000017, item-000033, ... it takes
// comparatively few values. Two items changed alike then cancel often, and
// a fingerprint or cell reports "equal" while both copies differ. Full
// avalanche makes each item's change an independent 64-bit value. internal/ring finalizes the
// same hash for the same reason.
//
//epi:hotpath
func itemDigest(key string, ivv vv.VV) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	var buf [20]byte
	for i, c := range ivv {
		if c == 0 {
			continue
		}
		n := putUvarint(buf[:], uint64(i))
		n += putUvarint(buf[n:], c)
		for j := 0; j < n; j++ {
			h = (h ^ uint64(buf[j])) * fnvPrime64
		}
	}
	return ring.Mix64(h)
}

// putUvarint is binary.PutUvarint without the import churn.
func putUvarint(buf []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}

// noteChangedLocked queues an item whose regular copy just changed for the
// next patch of the maintained summary. Every in-place change to a regular
// copy calls it under the control mutex: Update, delta and full adoption in
// a session, intra-node replay, and reconcile adoption. Until the replica
// first reconciles there is nothing to patch, so on a node that never
// reconciles this is one nil check. The item's flag admits it once, so the
// queue never holds more entries than the store has items.
func (r *Replica) noteChangedLocked(it *store.Item) {
	r.markDirtyLocked(it)
	if r.sum.index.cells == nil || it.Queued() {
		return
	}
	it.SetQueued(true)
	r.changed = append(r.changed, it)
}

// zeroState reports an item still in the initial zero state (materialized
// but never updated). Such items are "absent" for convergence purposes
// (Snapshot.Equivalent) and must not perturb fingerprints.
func zeroState(it *store.Item) bool {
	return it.IVV.Sum() == 0 && len(it.Value) == 0
}

// syncDigests brings the maintained summary up to date with the item set.
// A current summary costs one check under the control mutex. Otherwise the
// read sweep holds every item still while the first call digests them all
// and every later one only the queued items.
//
// The DBVV moves only with a queued change: every in-place change to a
// regular copy folds a positive delta into it and queues the item in one
// critical section, restore builds a fresh replica, and Grow only extends
// the vector (digests ignore zero components). So after a patch under the
// sweep, the summary reflects exactly the stamp it records.
func (r *Replica) syncDigests() {
	r.ctl.Lock()
	current := r.sum.index.cells != nil && len(r.changed) == 0
	r.ctl.Unlock()
	if current {
		return
	}
	r.rlockAll()
	defer r.runlockAll()
	if r.sum.index.cells == nil {
		r.sum.index.reset(r.store.Len())
		r.store.ForEach(func(it *store.Item) {
			if !zeroState(it) {
				r.sum.add(it, itemDigest(it.Key, it.IVV))
			}
		})
		r.digests.Add(uint64(len(r.sum.fps)))
	}
	r.patchDigestsLocked()
}

// patchDigestsLocked digests each queued item and moves the summary from
// its old digest to the new one, in O(1) per item. A queued item new to
// the slab is appended; none is in the zero state, since a queued item's
// regular copy has moved. Caller holds the all-shard read sweep plus the
// control mutex.
//
//epi:hotpath
func (r *Replica) patchDigestsLocked() {
	for _, it := range r.changed {
		it.SetQueued(false)
		g := itemDigest(it.Key, it.IVV)
		if s := it.Slot(); s == 0 {
			r.sum.add(it, g)
		} else {
			r.sum.move(s-1, g)
		}
	}
	r.digests.Add(uint64(len(r.changed)))
	r.changed = r.changed[:0]
	r.sum.stamp = r.dbvv.Clone()
}

// rootRange returns the root as this replica summarizes it: the maintained
// fingerprint, item count and stamp, all of one state. From the same state
// it adds the m-cell sketch when m > 0 and the replica's own items justify
// that many cells (sketchFits, the cap a replica puts on the sketch a peer
// asks it to build), and the strata estimator when strata is set.
func (r *Replica) rootRange(m uint64, strata bool) ReconcileRange {
	r.syncDigests()
	r.ctl.Lock()
	defer r.ctl.Unlock()
	root := ReconcileRange{Fp: r.sum.root, Count: uint64(len(r.sum.fps)), Stamp: r.sum.stamp}
	if m > 0 && sketchFits(m, root.Count) {
		root.Sketch = r.sum.sketch(int(m))
	}
	if strata {
		root.Strata = r.sum.strata()
	}
	return root
}

// stampDistance is D = Σ_k |a[k] − b[k]|, saturating: the most items two
// replicas stamped a and b can differ in, when each reflects a prefix of
// every origin's updates.
func stampDistance(a, b vv.VV) uint64 {
	var d uint64
	for k := 0; k < max(len(a), len(b)); k++ {
		x, y := a.Get(k), b.Get(k)
		if x < y {
			x, y = y, x
		}
		if d += x - y; d < x-y {
			return math.MaxUint64
		}
	}
	return d
}

// sketchCells is the sketch length for a difference of at most d items:
// each differing item is at most two elements (the server's copy and the
// client's), and a four-hash table peels at 1.4 cells per element, 0.7
// cells per subtable per item.
func sketchCells(d uint64) uint64 {
	return sketchHashes * ((7*d+9)/10 + sketchSlackCells)
}

// sketchPays reports whether an m-cell sketch costs less on the wire than
// listing count items.
func sketchPays(m, count uint64) bool {
	return m*sketchCellBytes < count*reconcilePairBytes
}

// sketchSize returns the sketch length for a server holding ours items to
// ask for when the replicas differ in at most d items and the client holds
// theirs, or 0 when a sketch would not cost less than listing. It asks only
// for a sketch the client's own items justify, retry included (sketchFits),
// so never for one from a client that holds nothing.
func sketchSize(d, ours, theirs uint64) uint64 {
	if d >= ours || d >= theirs || !sketchPays(sketchCells(d), ours) {
		return 0
	}
	return sketchCells(d)
}

// sketchFits reports whether an m-cell sketch is well formed and no longer
// than the retry of a sketch for a difference of d items: the cap each
// side puts on a sketch the other side asked for or sent.
func sketchFits(m, d uint64) bool {
	return m > 0 && m%sketchHashes == 0 && m <= 2*sketchCells(d)
}

// sketchCheck is a digest's check hash: a cell holds exactly one digest
// when its count is ±1 and its check sum is that digest's check hash.
func sketchCheck(g uint64) uint32 {
	return uint32(ring.Mix64(g ^ sketchCheckSeed))
}

// sketchIndex returns the digest's cell in subtable i of s cells. Digests
// are finalized hashes, so the top bits of four rotations of one digest
// place it independently in each subtable.
func sketchIndex(g uint64, i, s int) int {
	hi, _ := bits.Mul64(bits.RotateLeft64(g, 16*i), uint64(s))
	return i*s + int(hi)
}

// stratum returns the stratum of digest g: the trailing zeros of a keyed
// hash of g, so that stratum i samples one digest in 2^(i+1), capped at
// the last stratum.
func stratum(g uint64) int {
	return min(bits.TrailingZeros64(ring.Mix64(g^strataSeed)), strataCount-1)
}

// toggle adds (n = 1) or removes (n = −1) digest g, with check hash chk, in
// its cell of each of the four subtables. The four are written out: a
// sketch build toggles every digest of the slab, and a loop over the
// subtables makes it about 1.4 times slower.
func toggle(cells []SketchCell, g uint64, chk uint32, n int64) {
	s := len(cells) / sketchHashes
	c0, c1 := &cells[sketchIndex(g, 0, s)], &cells[sketchIndex(g, 1, s)]
	c2, c3 := &cells[sketchIndex(g, 2, s)], &cells[sketchIndex(g, 3, s)]
	c0.Sum, c0.Check, c0.Count = c0.Sum^g, c0.Check^chk, c0.Count+n
	c1.Sum, c1.Check, c1.Count = c1.Sum^g, c1.Check^chk, c1.Count+n
	c2.Sum, c2.Check, c2.Count = c2.Sum^g, c2.Check^chk, c2.Count+n
	c3.Sum, c3.Check, c3.Count = c3.Sum^g, c3.Check^chk, c3.Count+n
}

// subtract removes the peer's cells from ours, cell by cell: what is left
// holds the digests only one side added.
func subtract(ours, theirs []SketchCell) {
	for j, t := range theirs {
		ours[j].Sum ^= t.Sum
		ours[j].Check ^= t.Check
		ours[j].Count -= t.Count
	}
}

func (c *SketchCell) pure() bool {
	return (c.Count == 1 || c.Count == -1) && c.Check == sketchCheck(c.Sum)
}

// peel decodes a difference sketch (this side's cells minus the peer's) in
// place. It returns the digests only this side holds and the number of
// digests decoded on both sides. It fails when the cells do not peel to
// empty, and stops after 3m extractions whatever the peer sent.
func peel(cells []SketchCell) (ours []uint64, decoded int, ok bool) {
	queue := make([]int, 0, len(cells))
	for j := range cells {
		if cells[j].pure() {
			queue = append(queue, j)
		}
	}
	for len(queue) > 0 {
		c := cells[queue[len(queue)-1]]
		queue = queue[:len(queue)-1]
		if !c.pure() {
			continue
		}
		if decoded++; decoded > 3*len(cells) {
			return nil, 0, false
		}
		if c.Count == 1 {
			ours = append(ours, c.Sum)
		}
		toggle(cells, c.Sum, c.Check, -c.Count)
		s := len(cells) / sketchHashes
		for i := 0; i < sketchHashes; i++ {
			if j := sketchIndex(c.Sum, i, s); cells[j].pure() {
				queue = append(queue, j)
			}
		}
	}
	for _, c := range cells {
		if c != (SketchCell{}) {
			return nil, 0, false
		}
	}
	return ours, decoded, true
}

// estimate reads the size of a difference from a difference strata
// estimator (this side's strata minus the peer's), as Eppstein et al. do:
// it peels the strata from the sparsest down, and at the first that does
// not peel it scales the count decoded so far by the share of digests the
// strata above it sample, 2^(i+1). It saturates when not even the
// sparsest stratum peels. It counts elements, digests decoded on either
// side: an item both replicas hold in different copies is two, an item
// only one holds is one.
func estimate(cells []SketchCell) uint64 {
	var count uint64
	for i := strataCount - 1; i >= 0; i-- {
		_, n, ok := peel(cells[i*strataCells : (i+1)*strataCells])
		if !ok {
			if count == 0 {
				return math.MaxUint64
			}
			return count << (i + 1)
		}
		count += uint64(n)
	}
	return count
}

// lacking appends to need each listed key whose digest this replica does
// not hold under that key: the key is absent here, its copy differs, or
// several items hold the digest and the index names none of them (the
// fetch then finds such a copy Equal and skips it).
func (r *Replica) lacking(need []string, keys []KeyDigest) []string {
	r.syncDigests()
	r.ctl.Lock()
	defer r.ctl.Unlock()
	for _, kd := range keys {
		if i, ok := r.sum.index.lookup(kd.Fp, r.sum.fps); !ok || r.sum.items[i].Key != kd.Key {
			need = append(need, kd.Key)
		}
	}
	return need
}

// ServeReconcile answers one round of a reconciliation session, as the
// package comment lays out: one root, one reply. A request of any other
// range count gets none, since a reply may list the whole slab and one per
// range would multiply that. Stateless: each call answers from one state
// of the current item set, under the control mutex, so rounds interleave
// safely with updates and other sessions (a mutation between rounds at
// worst makes a sketch fail or leaves a difference for the next session).
func (r *Replica) ServeReconcile(ranges []ReconcileRange) []ReconcileReply {
	if len(ranges) != 1 {
		return nil
	}
	r.syncDigests()
	r.ctl.Lock()
	reply := r.sum.answer(&ranges[0])
	r.ctl.Unlock()
	r.met.Messages.Add(1)
	r.met.ReconcileBytes.Add(uvarintSize(1) + reply.wireSize())
	return []ReconcileReply{reply}
}

// answer is ServeReconcile's reply to one root. The stamp is recomputed
// into D every round: the server keeps no session state. D and both item
// counts cap the sketch it builds; a writer between the rounds only makes
// D larger than the sketch was sized for, and the peel decides.
//
// D bounds differing items, but the strata estimate E counts elements;
// passing E to sketchCells as items is deliberate. Each differing item is
// one or two elements, so for rewritten (hot) keys the sketch gets twice
// the cells E needs: the headroom against a short estimate (DESIGN §4h).
//
//epi:requires ctl read
func (s *digestSummary) answer(rr *ReconcileRange) ReconcileReply {
	count := uint64(len(s.fps))
	if rr.Fp == s.root && rr.Count == count {
		return ReconcileReply{Match: true}
	}
	d := uint64(math.MaxUint64)
	if len(rr.Stamp) > 0 {
		d = stampDistance(s.stamp, rr.Stamp)
	}
	var m uint64 // the sketch to ask for, if any
	switch sent := uint64(len(rr.Sketch)); {
	case sent > 0:
		if !sketchFits(sent, min(d, count, rr.Count)) {
			break
		}
		if keys, ok := s.sketchKeys(rr.Sketch); ok {
			return ReconcileReply{Keys: keys}
		}
		if !rr.Retry && sketchPays(2*sent, count) {
			m = 2 * sent
		}
	case len(rr.Strata) == strataCount*strataCells:
		cells := s.strata()
		subtract(cells, rr.Strata)
		m = sketchSize(min(d, estimate(cells)), count, rr.Count)
	case len(rr.Strata) == 0:
		m = sketchSize(d, count, rr.Count)
		if m == 0 && rr.Count > 0 && sketchPays(strataCount*strataCells, count) {
			return ReconcileReply{Strata: true}
		}
	}
	if m > 0 {
		return ReconcileReply{SketchCells: m}
	}
	return ReconcileReply{Keys: s.list()}
}

// Reconciler drives the client (recipient) side of one reconciliation
// session. Obtain one with StartReconcile, then loop: Next gives the
// round's root to send, Handle ingests its reply; when Next returns nil
// the fingerprint phase is over. If Err is then nil, NeedKeys lists the
// keys whose copies differ, to be fetched as full items and committed
// with ApplyReconcileItems; otherwise the session stopped short and its
// difference is incomplete. Not safe for concurrent use.
//
//epi:notshared session cursor documented not safe for concurrent use; driven by one goroutine
type Reconciler struct {
	r        *Replica
	next     *ReconcileRange // the root the next round sends; nil once settled
	needKeys []string
	rounds   int
	err      error
}

// StartReconcile opens a reconciliation session (this replica is the
// recipient). The root carries the summary's stamp, so the source can
// bound the difference. Charges one ReconcileSessions.
func (r *Replica) StartReconcile() *Reconciler {
	root := r.rootRange(0, false)
	r.met.ReconcileSessions.Add(1)
	return &Reconciler{r: r, next: &root}
}

// Next returns the round's request, the one root to send (nil when the
// fingerprint phase is complete), and charges its traffic. A session that
// reaches reconcileMaxRounds with a root still to send stops with an error
// (Err).
func (rc *Reconciler) Next() []ReconcileRange {
	if rc.next == nil || rc.err != nil {
		return nil
	}
	if rc.rounds >= reconcileMaxRounds {
		rc.err = fmt.Errorf("core: reconciliation stopped after %d rounds unsettled", rc.rounds)
		return nil
	}
	rc.rounds++
	root := *rc.next
	rc.next = nil
	rc.r.met.ReconcileRoundTrips.Add(1)
	rc.r.met.Messages.Add(1)
	rc.r.met.ReconcileBytes.Add(uvarintSize(1) + root.WireSize())
	return []ReconcileRange{root}
}

// Handle ingests the reply to the root Next returned. A request for a
// sketch or for the strata estimator re-sends the root with it, and the
// keys of a reply are checked against the local copies, the genuinely
// differing ones accumulating into NeedKeys. A round that is not one root
// and one reply, or a sketch larger than this replica's own items justify,
// ends the session with an error, which Err reports from then on.
func (rc *Reconciler) Handle(sent []ReconcileRange, replies []ReconcileReply) error {
	if len(sent) != 1 || len(replies) != 1 {
		return rc.fail(fmt.Errorf("core: reconcile round answered %d replies to %d roots", len(replies), len(sent)))
	}
	switch rp := replies[0]; {
	case rp.Match:
		// Settled.
	case rp.SketchCells > 0 || rp.Strata:
		next := rc.r.rootRange(rp.SketchCells, rp.Strata)
		if rp.SketchCells > 0 && next.Sketch == nil {
			return rc.fail(fmt.Errorf("core: source asked for a %d-cell sketch of %d items", rp.SketchCells, next.Count))
		}
		// A sketch asked for after one was sent is the retry.
		next.Retry = len(next.Sketch) > 0 && len(sent[0].Sketch) > 0
		rc.next = &next
	default:
		// Keys only we hold need nothing — reconciliation, like
		// propagation, moves data from source to recipient only.
		rc.needKeys = rc.r.lacking(rc.needKeys, rp.Keys)
	}
	return nil
}

func (rc *Reconciler) fail(err error) error {
	rc.err, rc.next = err, nil
	return err
}

// Rounds returns the number of fingerprint round trips driven so far.
func (rc *Reconciler) Rounds() int { return rc.rounds }

// Err reports why the session stopped short: a round answered with the
// wrong number of replies or an oversized sketch request, or the round cap
// reached unsettled. A session with an error must not fetch or
// commit its partial NeedKeys.
func (rc *Reconciler) Err() error { return rc.err }

// NeedKeys returns the keys whose copies differ from the source's —
// the session's computed difference set, to be fetched as full items.
func (rc *Reconciler) NeedKeys() []string { return rc.needKeys }

// ApplyReconcileItems commits fetched items under the ordinary acceptance
// rules: a dominating remote copy is adopted (DBVV advanced by rule 3,
// §4.1), a concurrent one is declared in conflict (stage "reconcile"),
// equal and dominated copies are skipped. Returns the number adopted.
// An adopted copy keeps the payload's value slice: values are never written
// in place, and payloads hold either a decoder's copies or, in process, the
// source's own values. Its IVV is cloned, because Update increments IVVs
// in place.
//
// When anything was adopted, the replica's own pruned watermark is raised
// to its post-adoption DBVV inside the same critical section: the adopted
// updates have no log records here, so log-based sessions must not serve
// pullers whose DBVV predates this point (they are diverted to reconcile
// in turn; see the package comment).
func (r *Replica) ApplyReconcileItems(items []ItemPayload, source int) int {
	if len(items) == 0 {
		return 0
	}
	r.lockAll()
	defer r.unlockAll()

	// Growth: an item fetched from a larger cluster mentions more origins.
	need := r.n
	for _, payload := range items {
		if l := payload.IVV.Len(); l > need {
			need = l
		}
	}
	if need > r.n {
		r.growLocked(need)
	}

	adopted := 0
	for _, payload := range items {
		it := r.store.EnsureLean(payload.Key, false)
		r.met.IVVComparisons.Add(1)
		switch payload.IVV.Compare(it.IVV) {
		case vv.Dominates:
			it.IVV.AccumulateDelta(payload.IVV, r.dbvv)
			it.Value = payload.Value
			it.IVV = payload.IVV.Clone()
			it.Deltas = nil
			r.noteChangedLocked(it)
			r.met.ItemsCopied.Add(1)
			adopted++
			r.intraNodePropagateLocked(it)
		case vv.Concurrent:
			r.declareConflict(Conflict{
				Key:    payload.Key,
				Local:  it.IVV.Clone(),
				Remote: payload.IVV.Clone(),
				Source: source,
				Stage:  "reconcile",
			})
		case vv.Equal, vv.DominatedBy:
			// The local copy is already at least as new — the digest
			// mismatch was one-sided (we are ahead, or raced an update).
		}
	}
	if adopted > 0 {
		r.pruned = r.pruned.Extended(r.n)
		r.pruned.Merge(r.dbvv)
	}
	return adopted
}
