package core

import (
	"repro/internal/store"
	"repro/internal/vv"
)

// digestSummary is a replica's maintained summary of its item set, from
// which both sides of a reconciliation answer (reconcile.go): a dense,
// unsorted slab with one (item, digest) entry per item out of the zero
// state, the XOR of the slab's digests (the root fingerprint), the DBVV
// the slab reflects (the stamp), and a digest → entry index. The replica
// patches it at session time from its changed-item queue; every change
// moves the root and the index in O(1). A root sketch is not kept: its
// size follows the difference a session bounds, which moves between
// sessions, so each one is built in one sequential pass over the slab
// (sketch), as are the strata estimator and the listing. Nothing in it is
// sorted. It is guarded by the replica's control mutex.
type digestSummary struct {
	items []*store.Item //epi:guard ctl
	fps   []uint64      //epi:guard ctl
	root  uint64        //epi:guard ctl
	stamp vv.VV         //epi:guard ctl
	index digestIndex   //epi:guard ctl
}

// add appends an item with digest g.
//
//epi:requires ctl
func (s *digestSummary) add(it *store.Item, g uint64) {
	i := int32(len(s.fps))
	s.items = append(s.items, it)
	s.fps = append(s.fps, g)
	it.SetSlot(i + 1)
	s.root ^= g
	s.index.add(g, i)
}

// move replaces entry i's digest with g.
//
//epi:requires ctl
func (s *digestSummary) move(i int32, g uint64) {
	old := s.fps[i]
	s.fps[i] = g
	s.root ^= old ^ g
	s.index.remove(old, i)
	s.index.add(g, i)
}

// sketch returns a new m-cell sketch of every digest in the slab.
//
//epi:requires ctl read
func (s *digestSummary) sketch(m int) []SketchCell {
	cells := make([]SketchCell, m)
	for _, g := range s.fps {
		toggle(cells, g, sketchCheck(g), 1)
	}
	return cells
}

// strata returns a new strata estimator of every digest in the slab:
// strataCount sketches of strataCells cells, each digest toggled into the
// one of its stratum.
//
//epi:requires ctl read
func (s *digestSummary) strata() []SketchCell {
	cells := make([]SketchCell, strataCount*strataCells)
	for _, g := range s.fps {
		i := stratum(g) * strataCells
		toggle(cells[i:i+strataCells], g, sketchCheck(g), 1)
	}
	return cells
}

// list returns every entry's key and digest, in slab order.
//
//epi:requires ctl read
func (s *digestSummary) list() []KeyDigest {
	keys := make([]KeyDigest, len(s.items))
	for i, it := range s.items {
		keys[i] = KeyDigest{Key: it.Key, Fp: s.fps[i]}
	}
	return keys
}

// sketchKeys subtracts the peer's sketch from one of this slab, peels it,
// and returns the keys and digests only this slab holds, resolved through
// the index. ok is false when the sketch does not decode or names a digest
// that not exactly one entry holds.
//
//epi:requires ctl read
func (s *digestSummary) sketchKeys(theirs []SketchCell) (keys []KeyDigest, ok bool) {
	cells := s.sketch(len(theirs))
	subtract(cells, theirs)
	ours, _, ok := peel(cells)
	if !ok {
		return nil, false
	}
	keys = make([]KeyDigest, 0, len(ours))
	for _, g := range ours {
		i, found := s.index.lookup(g, s.fps)
		if !found {
			return nil, false
		}
		keys = append(keys, KeyDigest{Key: s.items[i].Key, Fp: g})
	}
	return keys, true
}

// digestIndex maps item digests to entries of a digestSummary's slab, so
// that the digests a sketch decodes resolve to keys
// without a pass over the items. It is an open-addressed table with linear
// probing, kept at most half full: one cell per slab entry, holding the low
// half of the entry's current digest and its position. A removal shifts
// the cells after it back instead of leaving a tombstone, so the
// delete-and-insert churn of patching never fills the table. (A Go map
// under the same churn keeps growing: its tombstones are dropped only when
// a table grows.)
type digestIndex struct {
	cells []digestCell //epi:guard ctl
	n     int          //epi:guard ctl
}

// digestCell is one occupied or empty cell. lo, the digest's low 32 bits,
// gives the cell's home; the slab holds the full digest.
type digestCell struct {
	lo   uint32 //epi:guard ctl
	slot int32  //epi:guard ctl slab position + 1; 0 marks an empty cell
}

// reset empties the index and sizes it for n entries.
//
//epi:requires ctl
func (x *digestIndex) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	x.cells, x.n = make([]digestCell, size), 0
}

func (x *digestIndex) home(lo uint32) int { return int(lo) & (len(x.cells) - 1) }

// add indexes slab entry i under digest g.
//
//epi:requires ctl
func (x *digestIndex) add(g uint64, i int32) {
	if 2*(x.n+1) > len(x.cells) {
		old := x.cells
		x.reset(x.n + 1)
		for _, c := range old {
			if c.slot != 0 {
				x.insert(c)
			}
		}
	}
	x.insert(digestCell{lo: uint32(g), slot: i + 1})
}

//epi:requires ctl
func (x *digestIndex) insert(c digestCell) {
	j := x.home(c.lo)
	for x.cells[j].slot != 0 {
		j = (j + 1) & (len(x.cells) - 1)
	}
	x.cells[j] = c
	x.n++
}

// remove drops slab entry i, indexed under digest g.
//
//epi:requires ctl
func (x *digestIndex) remove(g uint64, i int32) {
	mask := len(x.cells) - 1
	j := x.home(uint32(g))
	for x.cells[j].slot != i+1 {
		if x.cells[j].slot == 0 {
			return
		}
		j = (j + 1) & mask
	}
	// Shift back every later cell of the run whose home does not lie
	// cyclically in (j, k]: the hole at j sits on its probe path.
	for k := (j + 1) & mask; x.cells[k].slot != 0; k = (k + 1) & mask {
		h := x.home(x.cells[k].lo)
		if (j < k && (h <= j || h > k)) || (j > k && h <= j && h > k) {
			x.cells[j] = x.cells[k]
			j = k
		}
	}
	x.cells[j] = digestCell{}
	x.n--
}

// lookup returns the slab position of the one entry whose digest in fps is
// g. It reports false when no entry holds g, and when several do: a digest
// two items share names neither.
//
//epi:requires ctl read
func (x *digestIndex) lookup(g uint64, fps []uint64) (int32, bool) {
	if len(x.cells) == 0 {
		return 0, false
	}
	found := int32(-1)
	for j := x.home(uint32(g)); x.cells[j].slot != 0; j = (j + 1) & (len(x.cells) - 1) {
		if c := x.cells[j]; c.lo == uint32(g) && fps[c.slot-1] == g {
			if found >= 0 {
				return 0, false
			}
			found = c.slot - 1
		}
	}
	return found, found >= 0
}
