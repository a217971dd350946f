package store

// LogRecord is one record (x, m) of a log component L_ij (§4.2, Fig. 1):
// Item is the data item x, Seq the sequence number m origin j gave the
// update. Neither changes once the record is made, only its links do:
// superseding it links a fresh record at the component's tail and unlinks
// this one.
//
// The type lives beside Item because the two point at each other. The item
// holds the paper's P_j(x) pointers — its live record in every origin's
// component (Item.LogRecord) — and the record names its item, so appending,
// superseding and walking a record cost no key lookup. Package logvec owns
// the components and calls this type logvec.Record; LogList is the bare
// list it builds them on.
type LogRecord struct {
	Item *Item  //epi:immutable
	Seq  uint64 //epi:immutable

	prev, next *LogRecord //epi:guard ctl
}

// Next returns the record after r in its component (m ascending), or nil.
//
//epi:requires ctl read
func (r *LogRecord) Next() *LogRecord { return r.next }

// Prev returns the record before r in its component, or nil.
//
//epi:requires ctl read
func (r *LogRecord) Prev() *LogRecord { return r.prev }

// LogList is a doubly-linked list of log records, oldest first: the links
// of one log component. It keeps no count and no item pointers; package
// logvec maintains both around it.
type LogList struct {
	head, tail *LogRecord //epi:guard ctl
}

// Head returns the first record, or nil if the list is empty.
//
//epi:requires ctl read
func (l *LogList) Head() *LogRecord { return l.head }

// Tail returns the last record, or nil if the list is empty.
//
//epi:requires ctl read
func (l *LogList) Tail() *LogRecord { return l.tail }

// PushBack links rec, which must not be linked anywhere, at the tail.
//
//epi:requires ctl
func (l *LogList) PushBack(rec *LogRecord) {
	rec.prev = l.tail
	rec.next = nil
	if l.tail != nil {
		l.tail.next = rec
	} else {
		l.head = rec
	}
	l.tail = rec
}

// Remove unlinks rec, which must be linked in l.
//
//epi:requires ctl
func (l *LogList) Remove(rec *LogRecord) {
	if rec.prev != nil {
		rec.prev.next = rec.next
	} else {
		l.head = rec.next
	}
	if rec.next != nil {
		rec.next.prev = rec.prev
	} else {
		l.tail = rec.prev
	}
	rec.prev, rec.next = nil, nil
}

// Linked reports whether rec, a record of l's component, is still linked
// in l. O(1): an unlinked record has no neighbours and is no list's head.
//
//epi:requires ctl read
func (l *LogList) Linked(rec *LogRecord) bool {
	return rec.prev != nil || l.head == rec
}
