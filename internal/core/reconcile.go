package core

// Range-based set reconciliation: the catch-up path for replicas whose
// DBVV predates the pruned log prefix.
//
// Once log records have been pruned (prune.go), a pull request from far
// enough in the past cannot be answered from the log — the records that
// would tell the source *which* items the requester lacks are gone. The
// naive fallback is a full-state transfer, O(N) however small the true
// difference. Instead the two replicas reconcile their item sets directly,
// following the recursive-partition scheme of Minsky–Trachtenberg ("Tree
// algorithms for set reconciliation") in the range-fingerprint formulation
// of Meyer ("Range-Based Set Reconciliation"): the key space is compared as
// nested ranges, each summarized by a fingerprint that any store can
// compute from an order-statistics view of its items, and only ranges
// whose fingerprints differ are split further. Equal subtrees — however
// large — cost one fingerprint exchange; the items actually shipped are
// O(diff), and the control traffic O(diff · log N).
//
// The element being reconciled is the pair (key, IVV): two replicas hold
// the same element exactly when they hold the same copy of the item, so a
// fingerprint mismatch localizes precisely the keys where the copies
// differ. The exchange is client-driven and stateless on the server:
//
//	client                                server
//	  ranges with local fp/count  ---->
//	                              <----   per range: match | splits | key digests
//	  (recurse on mismatches)     ---->
//	  ...
//
// or, when the DBVVs bound the difference tightly enough:
//
//	  root fp/count + stamp       ---->
//	                              <----   "send an m-cell sketch"
//	  root + m-cell sketch        ---->
//	                              <----   key digests only the server holds
//
// and then, either way:
//
//	  fetch differing keys        ---->   full items (BuildItems)
//	  ApplyReconcileItems
//
// A leaf reply carries per-key digests, not items: the client filters out
// keys whose local copy already matches (its side of an equal pair), so
// only the true difference is fetched — this is what keeps the shipped
// payload within a small factor of the diff, as E19 asserts. Fetched items
// are adopted under the ordinary IVV comparison (dominating copies
// adopted, concurrent ones declared in conflict), so reconciliation obeys
// the same correctness rules as AcceptPropagation.
//
// The recursion pays a (key, digest) pair per item of every mismatching
// leaf, and when the differences are scattered nearly every leaf
// mismatches. The root round therefore carries the client's stamp — the
// DBVV its digests reflect — and the paper's DBVV bounds the
// difference in advance: two replicas that each reflect a prefix of every
// origin's updates (§4.1) differ in at most D = Σ_k |V_s[k] − V_c[k]|
// items. When a sketch of about 2.8D + c cells costs less than listing
// the root's digests, the server asks for one instead of splitting, and
// the second round is a subtraction of invertible Bloom lookup tables
// (Goodrich–Mitzenmacher; Eppstein et al., "What's the Difference?"): the
// server peels the server-only digests out and answers with their keys, a
// leaf reply like any other. D only sizes the sketch. A sketch that does not
// peel, or a D too large for one to pay, falls back to the split, so the
// bound never decides what the session finds.
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
	"slices"
	"strings"

	"repro/internal/ring"
	"repro/internal/store"
	"repro/internal/vv"
)

const (
	// reconcileBranch is the fan-out when a mismatching range splits: the
	// range is cut at order statistics into this many sub-ranges. Depth is
	// log_b(N), so 16 keeps round counts small without bloating replies.
	reconcileBranch = 16
	// reconcileLeafItems is the server-side range size at or below which a
	// reply carries per-key digests instead of splitting further.
	reconcileLeafItems = 32
	// reconcileMaxRounds bounds a session's fingerprint exchanges
	// defensively; log_16 of any realistic store is far below it.
	reconcileMaxRounds = 64
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
	// sketchCellBytes and reconcilePairBytes are the wire costs the choice
	// between sketch and split compares: a cell is an 8-byte digest sum, a
	// 4-byte check sum and a one-byte count; a listed item is its 8-byte
	// digest and a short key.
	sketchCellBytes    = 13
	reconcilePairBytes = 16
	// sketchCheckSeed keys the check hash apart from the cell indices.
	sketchCheckSeed = 0x9e3779b97f4a7c15
)

// ReconcileRange is one key range [Lo, Hi) under comparison, summarized by
// the sender's fingerprint and item count over it. HiInf marks an
// unbounded upper end (the range runs to the end of the key space); the
// initial request is the single range ["", +inf).
//
// The root range also carries the client's stamp, from which the
// server bounds the difference, and in the second round the client's
// sketch of the range when the server asked for one.
//
//epi:notshared wire message value exchanged by one reconciliation session
type ReconcileRange struct {
	Lo     string
	Hi     string
	HiInf  bool
	Fp     uint64
	Count  uint64
	Stamp  vv.VV
	Sketch []SketchCell
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

// ReconcileReply answers one requested range, in request order. Exactly
// one of the four forms applies: Match (fingerprints agree — the whole
// range is settled), Splits (sub-ranges with the server's fingerprints,
// for the client to recurse on), Keys (a leaf: the server's per-key
// digests over the range, possibly empty, or the ones a sketch showed only
// the server holds), or SketchCells (send the range again with a sketch of
// that many cells).
//
//epi:notshared wire message value exchanged by one reconciliation session
type ReconcileReply struct {
	Match       bool
	Splits      []ReconcileRange
	Keys        []KeyDigest
	IsLeaf      bool
	SketchCells uint64
}

// WireSize returns the exact encoded size of one range, term for term
// with the wire codec's encoding.
func (rr *ReconcileRange) WireSize() uint64 {
	size := 1 + stringWireSize(len(rr.Lo)) + stringWireSize(len(rr.Hi)) +
		8 + uvarintSize(rr.Count)
	if len(rr.Stamp) > 0 {
		size += uint64(rr.Stamp.BinarySize())
	}
	if len(rr.Sketch) > 0 {
		size += uvarintSize(uint64(len(rr.Sketch)))
		for _, c := range rr.Sketch {
			size += 8 + 4 + varintSize(c.Count)
		}
	}
	return size
}

// wireSize returns the protocol-shape byte estimate for one reply.
func (rp ReconcileReply) wireSize() uint64 {
	size := uint64(1) + uvarintSize(uint64(len(rp.Splits))) + uvarintSize(uint64(len(rp.Keys)))
	for i := range rp.Splits {
		size += rp.Splits[i].WireSize()
	}
	for _, kd := range rp.Keys {
		size += stringWireSize(len(kd.Key)) + 8
	}
	if rp.SketchCells > 0 {
		size += uvarintSize(rp.SketchCells)
	}
	return size
}

func reconcileRangesWireSize(ranges []ReconcileRange) uint64 {
	size := uvarintSize(uint64(len(ranges)))
	for i := range ranges {
		size += ranges[i].WireSize()
	}
	return size
}

func reconcileRepliesWireSize(replies []ReconcileReply) uint64 {
	size := uvarintSize(uint64(len(replies)))
	for _, rp := range replies {
		size += rp.wireSize()
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
// The finalizer is what makes XOR range fingerprints sound. Raw FNV-1a ends
// in a xor-then-multiply per byte, so when two versions of an item differ
// only in a trailing counter byte, the XOR of their digests is decided
// mostly by carries in the low bits of the state before that byte: across
// keys like item-000017, item-000033, ... it takes comparatively few
// values. Two items changed alike in one range then cancel often, and the
// range reports "match" while both copies differ. Full avalanche makes each
// item's change an independent 64-bit value. internal/ring finalizes the
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

// The reconciliation state of a replica has two parts. The maintained
// summary (digestSummary, summary.go) answers the root range, which is all
// a session whose stamps bound the difference ever asks about. It is
// patched at session time from the changed-item queue, so a session
// digests only the items changed since the last one, and a node that
// never reconciles pays one nil check per change. The sorted view
// (digestView) answers every other range: the range split and its leaves
// need keys in order. It is built only when a session falls back to the
// split, from the slab, and rebuilt once a patch has moved the summary.

// digestView is an order-statistics view of one replica's item set: keys
// sorted ascending with the matching (key, IVV) digests. Range
// fingerprints are XORs of item digests, so they compose over any
// partition of a range and are insensitive to order — the
// range-summarizable property the recursion relies on.
//
// A view is published through Replica.view and never written afterwards:
// every session holding it reads it with no lock, and a newer item set
// gets a new view rather than an edit of this one. A newer view with the
// same key set shares this one's keys slice.
type digestView struct {
	keys  []string //epi:immutable
	fps   []uint64 //epi:immutable
	slots []int32  //epi:immutable each key's position in the summary's slab
}

// noteChangedLocked queues an item whose regular copy just changed for the
// next patch of the maintained summary. Every in-place change to a regular
// copy calls it under the control mutex: Update, delta and full adoption in
// a session, intra-node replay, and reconcile adoption. Until the replica
// first reconciles there is nothing to patch, so on a node that never
// reconciles this is one nil check. The item's flag admits it once, so the
// queue never holds more entries than the store has items.
func (r *Replica) noteChangedLocked(it *store.Item) {
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

func compareItemKeys(a, b *store.Item) int { return strings.Compare(a.Key, b.Key) }

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
		r.viewDigests.Add(uint64(len(r.sum.fps)))
	}
	r.patchDigestsLocked()
}

// patchDigestsLocked digests each queued item and moves the summary from
// its old digest to the new one, in O(1) per item. A queued item new to
// the slab is appended; none is in the zero state, since a queued item's
// regular copy has moved. Each item is also listed for the sorted view's
// next patch once a view exists. Caller holds the all-shard read sweep
// plus the control mutex.
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
	if len(r.changed) > 0 {
		r.viewStale = true
	}
	r.viewDigests.Add(uint64(len(r.changed)))
	r.changed = r.changed[:0]
	r.sum.stamp = r.dbvv.Clone()
}

// rootRange returns the root range as this replica summarizes it: the
// maintained fingerprint, item count and stamp, all of one state, plus
// the m-cell root sketch when m > 0 and the replica's own items
// justify that many cells (sketchFits) — the cap a replica puts on the
// sketch a peer asks it to build.
func (r *Replica) rootRange(m uint64) ReconcileRange {
	r.syncDigests()
	r.ctl.Lock()
	defer r.ctl.Unlock()
	root := ReconcileRange{HiInf: true, Fp: r.sum.root, Count: uint64(len(r.sum.fps)), Stamp: r.sum.stamp}
	if m > 0 && sketchFits(m, root.Count) {
		root.Sketch = r.sum.sketch(int(m))
	}
	return root
}

// reconcileView returns the sorted view of the replica's current item
// set, reusing the published one while the summary has not moved since.
func (r *Replica) reconcileView() *digestView {
	r.syncDigests()
	r.ctl.Lock()
	defer r.ctl.Unlock()
	if r.view == nil || r.viewStale {
		r.view, r.viewStale = r.digestViewLocked(), false
	}
	return r.view
}

// digestViewLocked builds the sorted view from the maintained slab. The
// slab only grows, so the entries past the published view's are the
// items new since it: they alone are sorted and merged into its order
// (on the first build, every entry is new). Every digest is then read
// from the slab through the view's slab positions. A rebuild thus costs
// O(a log a) for a new items plus O(N) sequential work. Caller holds the
// control mutex, with the summary just synced.
//
//epi:hotpath
func (r *Replica) digestViewLocked() *digestView {
	r.viewBuilds.Add(1)
	old := r.view
	if old == nil {
		old = &digestView{}
	}
	added := make([]int32, 0, len(r.sum.items)-len(old.slots))
	for i := len(old.slots); i < len(r.sum.items); i++ {
		added = append(added, int32(i))
	}
	slices.SortFunc(added, func(a, b int32) int { return compareItemKeys(r.sum.items[a], r.sum.items[b]) })
	// Views are immutable, so one whose key set did not change shares the
	// old keys and positions.
	v := &digestView{keys: old.keys, slots: old.slots}
	if len(added) > 0 {
		n := len(old.keys) + len(added)
		v.keys, v.slots = make([]string, 0, n), make([]int32, 0, n)
		i := 0
		for _, s := range added {
			key := r.sum.items[s].Key
			j, _ := slices.BinarySearch(old.keys[i:], key)
			v.keys = append(append(v.keys, old.keys[i:i+j]...), key)
			v.slots = append(append(v.slots, old.slots[i:i+j]...), s)
			i += j
		}
		v.keys = append(v.keys, old.keys[i:]...)
		v.slots = append(v.slots, old.slots[i:]...)
	}
	v.fps = make([]uint64, len(v.slots))
	for j, s := range v.slots {
		v.fps[j] = r.sum.fps[s]
	}
	return v
}

// bounds returns the index interval [lo, hi) of keys inside the range.
func (v *digestView) bounds(rr ReconcileRange) (int, int) {
	lo, _ := slices.BinarySearch(v.keys, rr.Lo)
	hi := len(v.keys)
	if !rr.HiInf {
		hi, _ = slices.BinarySearch(v.keys, rr.Hi)
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// summarize returns the fingerprint and count over [lo, hi).
func (v *digestView) summarize(lo, hi int) (fp uint64, count uint64) {
	for i := lo; i < hi; i++ {
		fp ^= v.fps[i]
	}
	return fp, uint64(hi - lo)
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

// sketchSize returns the sketch length to ask for on a range of count
// items whose replicas differ in at most d items, or 0 when a sketch would
// not cost less than listing the range's digests.
func sketchSize(d, count uint64) uint64 {
	if d >= count {
		return 0
	}
	if m := sketchCells(d); m*sketchCellBytes < count*reconcilePairBytes {
		return m
	}
	return 0
}

// sketchFits reports whether an m-cell sketch is well formed and no longer
// than a difference of d items needs: the cap each side puts on a sketch
// the other side asked for or sent.
func sketchFits(m, d uint64) bool {
	return m > 0 && m%sketchHashes == 0 && m <= sketchCells(d)
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

func (c *SketchCell) pure() bool {
	return (c.Count == 1 || c.Count == -1) && c.Check == sketchCheck(c.Sum)
}

// peel decodes a difference sketch (this side's cells minus the peer's) in
// place and returns the digests only this side holds. It fails when the
// cells do not peel to empty, and stops after 3m extractions whatever the
// peer sent.
func peel(cells []SketchCell) ([]uint64, bool) {
	queue := make([]int, 0, len(cells))
	for j := range cells {
		if cells[j].pure() {
			queue = append(queue, j)
		}
	}
	var ours []uint64
	for steps := 0; len(queue) > 0; {
		c := cells[queue[len(queue)-1]]
		queue = queue[:len(queue)-1]
		if !c.pure() {
			continue
		}
		if steps++; steps > 3*len(cells) {
			return nil, false
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
			return nil, false
		}
	}
	return ours, true
}

// sketchKeys subtracts the peer's root sketch from this replica's, peels
// it, and returns the keys and digests only this replica holds: the leaf
// reply the split recursion would have narrowed down to. The decoded
// digests resolve to keys through the maintained index, and everything
// runs in one hold of the control mutex, so the sketch and the index are
// of one state. ok is false when the sketch does not decode or names a
// digest that not exactly one of this replica's items holds.
func (r *Replica) sketchKeys(theirs []SketchCell) (keys []KeyDigest, ok bool) {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	cells := r.sum.sketch(len(theirs))
	for j, t := range theirs {
		cells[j].Sum ^= t.Sum
		cells[j].Check ^= t.Check
		cells[j].Count -= t.Count
	}
	ours, ok := peel(cells)
	if !ok {
		return nil, false
	}
	return r.sum.keysOf(ours)
}

// ServeReconcile answers one round of a reconciliation session: for each
// requested range, either confirm the fingerprint matches, split it into
// sub-ranges with this replica's fingerprints, or — at leaf size — return
// the per-key digests. A stamped root whose difference the two stamps
// bound tightly enough is answered with the size of the sketch to send
// instead, and a sketched root with the keys the sketch shows only this
// replica holds, or with the split when it does not decode. The root is
// answered from the maintained summary; only the split and its leaves
// read the sorted view. Stateless: each call answers from a consistent
// state of the current item set, so rounds interleave safely with updates
// and other sessions (a mutation between rounds at worst re-opens a range
// that the next round settles).
func (r *Replica) ServeReconcile(ranges []ReconcileRange) []ReconcileReply {
	root := r.rootRange(0)
	var sorted *digestView
	view := func() *digestView {
		if sorted == nil {
			sorted = r.reconcileView()
		}
		return sorted
	}
	replies := make([]ReconcileReply, len(ranges))
	for i, rr := range ranges {
		// Only the root is sketched: it is the only range an honest
		// client stamps.
		isRoot := rr.Lo == "" && rr.HiInf
		fp, count := root.Fp, root.Count
		if !isRoot {
			fp, count = view().summarize(view().bounds(rr))
		}
		if fp == rr.Fp && count == rr.Count {
			replies[i] = ReconcileReply{Match: true}
			continue
		}
		// The stamp is recomputed into D every round: the server keeps no
		// session state. In the second round D and the own item count cap
		// the sketch it will build; a writer between the rounds only makes
		// D larger than the sketch was sized for, and the peel decides.
		d := uint64(math.MaxUint64)
		if len(rr.Stamp) > 0 {
			d = stampDistance(root.Stamp, rr.Stamp)
		}
		if isRoot && len(rr.Sketch) > 0 && sketchFits(uint64(len(rr.Sketch)), min(d, count)) {
			if keys, ok := r.sketchKeys(rr.Sketch); ok {
				replies[i] = ReconcileReply{Keys: keys, IsLeaf: true}
				continue
			}
		} else if isRoot && len(rr.Sketch) == 0 && count > reconcileLeafItems {
			if m := sketchSize(d, count); m > 0 {
				replies[i] = ReconcileReply{SketchCells: m}
				continue
			}
		}
		v := view()
		lo, hi := v.bounds(rr)
		if hi-lo <= reconcileLeafItems {
			keys := make([]KeyDigest, 0, hi-lo)
			for j := lo; j < hi; j++ {
				keys = append(keys, KeyDigest{Key: v.keys[j], Fp: v.fps[j]})
			}
			replies[i] = ReconcileReply{Keys: keys, IsLeaf: true}
			continue
		}
		// Split at order statistics: near-equal item counts per sub-range,
		// boundaries at actual keys so empty sub-ranges cannot occur.
		n := hi - lo
		b := reconcileBranch
		if b > n {
			b = n
		}
		splits := make([]ReconcileRange, 0, b)
		prevLo, prevIdx := rr.Lo, lo
		for s := 1; s <= b; s++ {
			endIdx := lo + n*s/b
			sub := ReconcileRange{Lo: prevLo}
			if s == b {
				sub.Hi, sub.HiInf = rr.Hi, rr.HiInf
			} else {
				sub.Hi = v.keys[endIdx]
			}
			sub.Fp, sub.Count = v.summarize(prevIdx, endIdx)
			splits = append(splits, sub)
			prevLo, prevIdx = sub.Hi, endIdx
		}
		replies[i] = ReconcileReply{Splits: splits}
	}

	r.met.Messages.Add(1)
	r.met.ReconcileBytes.Add(reconcileRepliesWireSize(replies))
	return replies
}

// Reconciler drives the client (recipient) side of one reconciliation
// session. Obtain one with StartReconcile, then loop: Next gives the
// ranges to send, Handle ingests the matching replies; when Next returns
// nil the fingerprint phase is over. If Err is then nil, NeedKeys lists
// the keys whose copies differ, to be fetched as full items and committed
// with ApplyReconcileItems; otherwise the session stopped short and its
// difference is incomplete. Not safe for concurrent use.
//
//epi:notshared session cursor documented not safe for concurrent use; driven by one goroutine
type Reconciler struct {
	r        *Replica
	pending  []ReconcileRange
	needKeys []string
	rounds   int
	err      error
}

// StartReconcile opens a reconciliation session (this replica is the
// recipient). The root range carries the summary's stamp, so the source
// can bound the difference. Charges one ReconcileSessions.
func (r *Replica) StartReconcile() *Reconciler {
	root := r.rootRange(0)
	r.met.ReconcileSessions.Add(1)
	return &Reconciler{r: r, pending: []ReconcileRange{root}}
}

// Next returns the ranges to send this round (nil when the fingerprint
// phase is complete) and charges the round's request traffic. A session
// that reaches reconcileMaxRounds with ranges still pending stops with an
// error (Err).
func (rc *Reconciler) Next() []ReconcileRange {
	if len(rc.pending) == 0 || rc.err != nil {
		return nil
	}
	if rc.rounds >= reconcileMaxRounds {
		rc.err = fmt.Errorf("core: reconciliation stopped after %d rounds with %d ranges pending", rc.rounds, len(rc.pending))
		return nil
	}
	rc.rounds++
	out := rc.pending
	rc.pending = nil
	rc.r.met.ReconcileRoundTrips.Add(1)
	rc.r.met.Messages.Add(1)
	rc.r.met.ReconcileBytes.Add(reconcileRangesWireSize(out))
	return out
}

// Handle ingests one round of replies (aligned by index with the ranges
// Next returned). Mismatching splits become next round's ranges with this
// replica's own fingerprints; leaf digests are compared against the local
// copies and genuinely differing keys accumulate into NeedKeys; a sketch
// request re-sends its range with this replica's sketch. A reply count
// that differs from the ranges sent ends the session with an error, which
// Err reports from then on.
func (rc *Reconciler) Handle(sent []ReconcileRange, replies []ReconcileReply) error {
	if len(replies) != len(sent) {
		rc.err = fmt.Errorf("core: reconcile round answered %d of %d ranges", len(replies), len(sent))
		rc.pending = nil
		return rc.err
	}
	// The sorted view is read only for split and leaf replies.
	var sorted *digestView
	view := func() *digestView {
		if sorted == nil {
			sorted = rc.r.reconcileView()
		}
		return sorted
	}
	for i, rp := range replies {
		switch {
		case rp.Match:
			// Settled.
		case rp.IsLeaf:
			// The server's elements over this range: fetch every key whose
			// local digest is absent or different. Keys only we hold need
			// nothing — reconciliation, like propagation, moves data from
			// source to recipient only.
			if len(sent[i].Sketch) > 0 {
				// Decoded from our sketch: each digest is one we did not
				// hold when we built it, so every key differs.
				for _, kd := range rp.Keys {
					rc.needKeys = append(rc.needKeys, kd.Key)
				}
				continue
			}
			v := view()
			for _, kd := range rp.Keys {
				j, found := slices.BinarySearch(v.keys, kd.Key)
				if !found || v.fps[j] != kd.Fp {
					rc.needKeys = append(rc.needKeys, kd.Key)
				}
			}
		case rp.SketchCells > 0:
			// The source bounded the difference: send the root again with
			// a sketch of the size it asked for. A size this replica's own
			// items cannot justify, or a sketch of any other range, is
			// refused by dropping the stamp, which asks for the split
			// instead.
			sub := ReconcileRange{Lo: sent[i].Lo, Hi: sent[i].Hi, HiInf: sent[i].HiInf}
			if sub.Lo == "" && sub.HiInf {
				sub = rc.r.rootRange(rp.SketchCells)
				if sub.Sketch == nil {
					sub.Stamp = nil
				}
			} else {
				v := view()
				sub.Fp, sub.Count = v.summarize(v.bounds(sub))
			}
			rc.pending = append(rc.pending, sub)
		default:
			v := view()
			for _, sub := range rp.Splits {
				fp, count := v.summarize(v.bounds(sub))
				if fp == sub.Fp && count == sub.Count {
					continue
				}
				sub.Fp, sub.Count = fp, count
				rc.pending = append(rc.pending, sub)
			}
		}
	}
	return nil
}

// Rounds returns the number of fingerprint round trips driven so far.
func (rc *Reconciler) Rounds() int { return rc.rounds }

// Err reports why the session stopped short: a round answered with the
// wrong number of replies, or the round cap reached with ranges pending.
// A session with an error must not fetch or commit its partial NeedKeys.
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
