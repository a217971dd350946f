// Package logvec implements the log vector L_i of §4.2 and Figure 1.
//
// Node i keeps one log component L_ij per origin server j. Component L_ij
// records, for updates performed by j that are reflected at i, only the
// *latest* update per data item: a record is the pair (x, m) where x is the
// item and m the sequence number the update had on j (the value of V_jj
// including that update). Records carry no redo information — they
// register only the fact that an item changed.
//
// The component is a doubly-linked list ordered by m ascending. As in
// Figure 1, the per-item pointers P_j(x) live on the item itself
// (store.Item.LogRecord), and each record points back at its item, so
// AddLogRecord is O(1) pointer work with no lookup by key: the superseded
// record for the same item is unlinked and the new record appended at the
// tail. Consequently each component holds at most one record per item and
// the whole vector at most n·N records, independent of the number of
// updates ever performed (§4.2).
//
// Because records are appended in increasing m and supersession moves an
// item's record to the tail, every component remains sorted by m. The tail
// of records with m > s is therefore a suffix, and TailAfter extracts it in
// time linear in the number of records selected (§6).
//
// A component used on its own, outside a replica, can also be driven by
// key (Add, Lookup): it then keeps the items it has been given in a map of
// its own. The replica never does; its records name the store's items.
//
// Every method that reads or moves records requires the owning replica's
// control mutex, which guards the records' links and the items' P_j(x)
// pointers.
package logvec

import (
	"fmt"

	"repro/internal/store"
)

// Record is one log entry (x, m): item x was updated by this component's
// origin server, and m is that server's update sequence number (its own
// DBVV component at the time of the update, inclusive). It is defined in
// package store, beside the item it points at.
type Record = store.LogRecord

// Component is one log L_ij: updates by a single origin server, newest at
// the tail.
type Component struct {
	origin int // j: the P_j(x) pointer this component maintains
	list   store.LogList
	size   int

	// keyed holds the items of a component driven by key (Add, Lookup);
	// nil until the first such call.
	keyed map[string]*store.Item
}

// NewComponent returns an empty log component for origin 0, to be used
// on its own.
func NewComponent() *Component { return &Component{} }

// Len returns the number of records (≤ number of distinct items).
func (c *Component) Len() int { return c.size }

// Head returns the oldest record, or nil if the component is empty.
//
//epi:requires ctl read
func (c *Component) Head() *Record { return c.list.Head() }

// Tail returns the newest record, or nil if the component is empty.
//
//epi:requires ctl read
func (c *Component) Tail() *Record { return c.list.Tail() }

// Holds reports whether rec is one of the component's live records.
//
//epi:requires ctl read
func (c *Component) Holds(rec *Record) bool { return c.list.Linked(rec) }

// Append is the paper's AddLogRecord procedure (§4.2) for item it: link a
// new record (it, seq) at the tail, unlink the item's existing record if
// any, and repoint P_j(it) at the new record. O(1), with no lookup.
//
// Sequence numbers must be non-decreasing across calls for the component to
// stay sorted; the protocol guarantees this (each new record's m exceeds
// every m the node has already seen from this origin). Append panics if the
// invariant would be violated, since that indicates a protocol bug.
//
//epi:requires ctl
func (c *Component) Append(it *store.Item, seq uint64) *Record {
	if t := c.list.Tail(); t != nil && seq < t.Seq {
		panic(fmt.Sprintf("logvec: out-of-order add: seq %d after tail seq %d (key %q)", seq, t.Seq, it.Key))
	}
	if old := it.LogRecord(c.origin); old != nil {
		c.list.Remove(old)
		c.size--
	}
	rec := &Record{Item: it, Seq: seq}
	c.list.PushBack(rec)
	it.SetLogRecord(c.origin, rec)
	c.size++
	return rec
}

// Add is Append by key, for a component used on its own: the record names
// the component's own item for key, made on the key's first record, so a
// superseding record keeps the key string the item's first record had.
//
//epi:requires ctl
func (c *Component) Add(key string, seq uint64) *Record {
	it := c.keyed[key]
	if it == nil {
		if c.keyed == nil {
			c.keyed = make(map[string]*store.Item)
		}
		it = &store.Item{Key: key}
		c.keyed[key] = it
	}
	return c.Append(it, seq)
}

// Lookup returns the live record for key of a component driven by Add, or
// nil.
//
//epi:requires ctl read
func (c *Component) Lookup(key string) *Record {
	if it := c.keyed[key]; it != nil {
		return it.LogRecord(c.origin)
	}
	return nil
}

// TruncateBefore drops every record with Seq <= floor and returns how many
// were removed. Because the component is sorted by Seq ascending, the
// covered records are exactly a prefix: the loop pops from the head and
// stops at the first surviving record, so the cost is linear in the number
// of records dropped, never in the component length — and TailAfter stays
// O(m) afterwards since the suffix structure is untouched. Each dropped
// record's item loses its P_j pointer.
//
// This is the log-pruning primitive: a record (x, m) with m <= floor is
// safe to forget once every configured peer's acked DBVV covers m, because
// no future propagation session will need to select it.
//
//epi:requires ctl
func (c *Component) TruncateBefore(floor uint64) int {
	n := 0
	for rec := c.list.Head(); rec != nil && rec.Seq <= floor; rec = c.list.Head() {
		c.list.Remove(rec)
		rec.Item.SetLogRecord(c.origin, nil)
		c.size--
		n++
	}
	return n
}

// TailStart returns the oldest record with Seq > seq — the first record of
// the tail D_k of Figure 2 — or nil when the tail is empty. It walks
// backwards from the tail to find the boundary, so its cost is linear in
// the tail's length (plus one), never in the component length; callers
// walk the tail forward with Next and may stop early.
//
//epi:requires ctl read
func (c *Component) TailStart(seq uint64) *Record {
	start := c.list.Tail()
	if start == nil || start.Seq <= seq {
		return nil
	}
	for p := start.Prev(); p != nil && p.Seq > seq; p = start.Prev() {
		start = p
	}
	return start
}

// TailAfter visits, oldest first, every record with Seq > seq — the tail
// D_k of Figure 2 — at a cost linear in the number of records visited
// (plus one), never in the component length.
//
// The returned count is the number of records visited. If visit is nil the
// records are only counted.
//
//epi:requires ctl read
func (c *Component) TailAfter(seq uint64, visit func(*Record)) int {
	n := 0
	for rec := c.TailStart(seq); rec != nil; rec = rec.Next() {
		n++
		if visit != nil {
			visit(rec)
		}
	}
	return n
}

// CheckInvariants verifies structural invariants: list links consistent,
// sequence numbers ascending, and every record's item pointing back at it
// through P_j — which also makes records of one item unique. For a
// component driven by key it checks the converse too: every item with a
// live P_j pointer is linked here. (A replica's items live in its store;
// core checks the converse there.) Intended for tests.
//
//epi:requires ctl read
func (c *Component) CheckInvariants() error {
	var prev *Record
	n := 0
	for rec := c.list.Head(); rec != nil; rec = rec.Next() {
		n++
		if n > c.size {
			return fmt.Errorf("logvec: list longer than size %d (cycle?)", c.size)
		}
		if rec.Item == nil {
			return fmt.Errorf("logvec: record with seq %d names no item", rec.Seq)
		}
		if rec.Prev() != prev {
			return fmt.Errorf("logvec: broken prev link at %q", rec.Item.Key)
		}
		if prev != nil && rec.Seq < prev.Seq {
			return fmt.Errorf("logvec: order violated: %d after %d", rec.Seq, prev.Seq)
		}
		if rec.Item.LogRecord(c.origin) != rec {
			return fmt.Errorf("logvec: P_%d pointer of %q does not point at its record", c.origin, rec.Item.Key)
		}
		prev = rec
	}
	if n != c.size {
		return fmt.Errorf("logvec: size %d but %d records linked", c.size, n)
	}
	if c.list.Tail() != prev {
		return fmt.Errorf("logvec: tail pointer stale")
	}
	live := 0
	for key, it := range c.keyed {
		if rec := it.LogRecord(c.origin); rec != nil {
			if !c.list.Linked(rec) || rec.Item != it {
				return fmt.Errorf("logvec: P_%d pointer of %q names a record not linked here", c.origin, key)
			}
			live++
		}
	}
	if c.keyed != nil && live != c.size {
		return fmt.Errorf("logvec: %d keyed items have records, size %d", live, c.size)
	}
	return nil
}

// Vector is node i's complete log vector L_i: one component per origin
// server.
type Vector struct {
	comps []*Component
}

// NewVector returns a log vector for n servers, all components empty.
func NewVector(n int) *Vector {
	v := &Vector{}
	v.Grow(n)
	return v
}

// Servers returns the number of components n.
func (v *Vector) Servers() int { return len(v.comps) }

// Component returns L_ij for origin j.
func (v *Vector) Component(j int) *Component { return v.comps[j] }

// Grow adds empty components for newly admitted origin servers. Items get
// P_j pointers for a new origin on their first record there.
func (v *Vector) Grow(n int) {
	for len(v.comps) < n {
		v.comps = append(v.comps, &Component{origin: len(v.comps)})
	}
}

// Len returns the total number of records across all components. Bounded by
// n·N regardless of how many updates were ever performed.
func (v *Vector) Len() int {
	total := 0
	for _, c := range v.comps {
		total += c.Len()
	}
	return total
}

// TruncateBefore drops, in every component j, the records covered by
// floor[j] (Seq <= floor[j]; missing components are treated as zero) and
// returns the total number removed. floor is any component-wise watermark —
// in the pruning protocol, the minimum acked DBVV across configured peers.
//
//epi:requires ctl
func (v *Vector) TruncateBefore(floor []uint64) int {
	total := 0
	for j, c := range v.comps {
		if j < len(floor) && floor[j] > 0 {
			total += c.TruncateBefore(floor[j])
		}
	}
	return total
}

// CheckInvariants verifies every component. Intended for tests.
//
//epi:requires ctl read
func (v *Vector) CheckInvariants() error {
	for j, c := range v.comps {
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("component %d: %w", j, err)
		}
	}
	return nil
}
