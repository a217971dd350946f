// Package logvec implements the log vector L_i of §4.2 and Figure 1.
//
// Node i keeps one log component L_ij per origin server j. Component L_ij
// records, for updates performed by j that are reflected at i, only the
// *latest* update per data item: a record is the pair (x, m) where x is the
// item name and m the sequence number the update had on j (the value of
// V_jj including that update). Records carry no redo information — they
// register only the fact that an item changed.
//
// The component is a doubly-linked list ordered by m ascending, with a
// per-item pointer (the paper's P_j(x) array) so that AddLogRecord runs in
// O(1): the superseded record for the same item is unlinked and the new
// record appended at the tail. Consequently each component holds at most
// one record per item and the whole vector at most n·N records, independent
// of the number of updates ever performed (§4.2).
//
// Because records are appended in increasing m and supersession moves an
// item's record to the tail, every component remains sorted by m. The tail
// of records with m > s is therefore a suffix, and TailAfter extracts it in
// time linear in the number of records selected (§6).
package logvec

import "fmt"

// Record is one log entry (x, m): item x was updated by this component's
// origin server, and m is that server's update sequence number (its own
// DBVV component at the time of the update, inclusive).
type Record struct {
	Key string
	Seq uint64

	prev, next *Record
}

// Next returns the record after r in its component (m ascending), or nil.
func (r *Record) Next() *Record { return r.next }

// Prev returns the record before r in its component, or nil.
func (r *Record) Prev() *Record { return r.prev }

// Component is one log L_ij: updates by a single origin server, newest at
// the tail.
type Component struct {
	head, tail *Record
	byKey      map[string]*Record // the paper's P_j(x) pointers
	size       int
}

// NewComponent returns an empty log component.
func NewComponent() *Component {
	return &Component{byKey: make(map[string]*Record)}
}

// Len returns the number of records (≤ number of distinct items).
func (c *Component) Len() int { return c.size }

// Head returns the oldest record, or nil if the component is empty.
func (c *Component) Head() *Record { return c.head }

// Tail returns the newest record, or nil if the component is empty.
func (c *Component) Tail() *Record { return c.tail }

// Lookup returns the record for key, or nil (the P_j(x) pointer).
func (c *Component) Lookup(key string) *Record { return c.byKey[key] }

// Add is the paper's AddLogRecord procedure (§4.2): link a new record
// (key, seq) at the tail, unlink the existing record for the same item if
// any, and repoint P_j(key) at the new record. O(1). A record that
// supersedes another keeps the old record's key string, so a key that is
// a slice of a larger buffer (a decoded frame) is kept only by an item's
// first record.
//
// Sequence numbers must be non-decreasing across calls for the component to
// stay sorted; the protocol guarantees this (each new record's m exceeds
// every m the node has already seen from this origin). Add panics if the
// invariant would be violated, since that indicates a protocol bug.
func (c *Component) Add(key string, seq uint64) *Record {
	if c.tail != nil && seq < c.tail.Seq {
		panic(fmt.Sprintf("logvec: out-of-order add: seq %d after tail seq %d (key %q)", seq, c.tail.Seq, key))
	}
	if old := c.byKey[key]; old != nil {
		c.unlink(old)
		c.size--
		key = old.Key
	}
	rec := &Record{Key: key, Seq: seq}
	c.append(rec)
	c.byKey[key] = rec
	c.size++
	return rec
}

func (c *Component) append(rec *Record) {
	rec.prev = c.tail
	rec.next = nil
	if c.tail != nil {
		c.tail.next = rec
	} else {
		c.head = rec
	}
	c.tail = rec
}

func (c *Component) unlink(rec *Record) {
	if rec.prev != nil {
		rec.prev.next = rec.next
	} else {
		c.head = rec.next
	}
	if rec.next != nil {
		rec.next.prev = rec.prev
	} else {
		c.tail = rec.prev
	}
	rec.prev, rec.next = nil, nil
}

// TruncateBefore drops every record with Seq <= floor and returns how many
// were removed. Because the component is sorted by Seq ascending, the
// covered records are exactly a prefix: the loop pops from the head and
// stops at the first surviving record, so the cost is linear in the number
// of records dropped, never in the component length — and TailAfter stays
// O(m) afterwards since the suffix structure is untouched.
//
// This is the log-pruning primitive: a record (x, m) with m <= floor is
// safe to forget once every configured peer's acked DBVV covers m, because
// no future propagation session will need to select it.
func (c *Component) TruncateBefore(floor uint64) int {
	n := 0
	for c.head != nil && c.head.Seq <= floor {
		rec := c.head
		c.unlink(rec)
		delete(c.byKey, rec.Key)
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
func (c *Component) TailStart(seq uint64) *Record {
	start := c.tail
	if start == nil || start.Seq <= seq {
		return nil
	}
	for start.prev != nil && start.prev.Seq > seq {
		start = start.prev
	}
	return start
}

// TailAfter visits, oldest first, every record with Seq > seq — the tail
// D_k of Figure 2 — at a cost linear in the number of records visited
// (plus one), never in the component length.
//
// The returned count is the number of records visited. If visit is nil the
// records are only counted.
func (c *Component) TailAfter(seq uint64, visit func(*Record)) int {
	n := 0
	for rec := c.TailStart(seq); rec != nil; rec = rec.next {
		n++
		if visit != nil {
			visit(rec)
		}
	}
	return n
}

// CheckInvariants verifies structural invariants: list links consistent,
// sequence numbers strictly ascending, byKey pointers exact, at most one
// record per item. Intended for tests.
func (c *Component) CheckInvariants() error {
	seen := make(map[string]bool, c.size)
	var prev *Record
	n := 0
	for rec := c.head; rec != nil; rec = rec.next {
		n++
		if n > c.size {
			return fmt.Errorf("logvec: list longer than size %d (cycle?)", c.size)
		}
		if rec.prev != prev {
			return fmt.Errorf("logvec: broken prev link at %q", rec.Key)
		}
		if prev != nil && rec.Seq < prev.Seq {
			return fmt.Errorf("logvec: order violated: %d after %d", rec.Seq, prev.Seq)
		}
		if seen[rec.Key] {
			return fmt.Errorf("logvec: duplicate record for item %q", rec.Key)
		}
		seen[rec.Key] = true
		if c.byKey[rec.Key] != rec {
			return fmt.Errorf("logvec: byKey pointer stale for %q", rec.Key)
		}
		prev = rec
	}
	if n != c.size {
		return fmt.Errorf("logvec: size %d but %d records linked", c.size, n)
	}
	if c.tail != prev {
		return fmt.Errorf("logvec: tail pointer stale")
	}
	if len(c.byKey) != c.size {
		return fmt.Errorf("logvec: byKey has %d entries, size %d", len(c.byKey), c.size)
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
	v := &Vector{comps: make([]*Component, n)}
	for i := range v.comps {
		v.comps[i] = NewComponent()
	}
	return v
}

// Servers returns the number of components n.
func (v *Vector) Servers() int { return len(v.comps) }

// Component returns L_ij for origin j.
func (v *Vector) Component(j int) *Component { return v.comps[j] }

// Grow adds empty components for newly admitted origin servers.
func (v *Vector) Grow(n int) {
	for len(v.comps) < n {
		v.comps = append(v.comps, NewComponent())
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
func (v *Vector) CheckInvariants() error {
	for j, c := range v.comps {
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("component %d: %w", j, err)
		}
	}
	return nil
}
