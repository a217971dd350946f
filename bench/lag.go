package main

import "sync"

// lagTracker measures propagation lag from outside the system, without
// polling it: the time from a write's acknowledgement at its origin to the
// moment every other owner of its key reflects it.
//
// It rests on the paper's prefix property. A stream is one origin's writes
// into one partition (the whole database on an unpartitioned node). The
// benchmark gives every stream exactly one writer, which issues its writes
// one after another, so the stream's i-th write carries sequence number
// base+i+1, and a recipient whose DBVV component for that origin reads s
// reflects exactly the first s-base writes. The driver reads a recipient's
// DBVV when a pull into it returns and calls covered; the write lanes call
// acked. Nothing here looks inside a node.
//
// A write is fully visible when the slowest of its stream's recipients
// covers it. Coverage is a prefix per recipient, so "covered everywhere" is
// the minimum over recipients, and the call that advances that minimum
// past a write is the instant it became visible.
type lagTracker struct {
	mu      sync.Mutex
	streams []lagStream

	lag              windowed // ns, one per write that has been acked and seen everywhere
	visibleBeforeAck int      // writes some pull shipped before their own ack (apply-before-fsync)
	lagDeadline      int64    // a lag above this misses its deadline
	lagMisses        int
}

type lagStream struct {
	base    uint64   // origin's sequence number when tracking began
	covered []uint64 // per recipient: writes of this stream it reflects
	acks    []int64  // ack times of writes not yet emitted, oldest first
	acked   int      // writes acked so far
	emitted int      // writes whose lag has been recorded
}

// addStream registers a stream whose origin's DBVV component currently
// reads base and which the given number of other owners must come to
// reflect. It returns the stream's id.
func (t *lagTracker) addStream(base uint64, recipients int) int {
	t.streams = append(t.streams, lagStream{base: base, covered: make([]uint64, recipients)})
	return len(t.streams) - 1
}

// acked records that the stream's next write was acknowledged at time at.
func (t *lagTracker) acked(stream int, at int64) {
	t.mu.Lock()
	s := &t.streams[stream]
	if uint64(s.acked) < s.everywhere() {
		// Every recipient already reflects this write: a pull shipped it
		// between its apply and the end of its fsync wait.
		t.emit(at, 0, true)
		s.emitted++
	} else {
		s.acks = append(s.acks, at)
	}
	s.acked++
	t.mu.Unlock()
}

// covered records that, at time at, recipient slot r of the stream was seen
// to reflect the origin's updates up to sequence number seq.
func (t *lagTracker) covered(stream, r int, seq uint64, at int64) {
	t.mu.Lock()
	s := &t.streams[stream]
	var n uint64
	if seq > s.base {
		n = seq - s.base
	}
	if n > s.covered[r] {
		s.covered[r] = n
		upto := int(s.everywhere())
		if upto > s.acked {
			upto = s.acked
		}
		k := upto - s.emitted
		for _, ackAt := range s.acks[:max(k, 0)] {
			t.emit(at, at-ackAt, false)
		}
		if k > 0 {
			s.acks = s.acks[:copy(s.acks, s.acks[k:])]
			s.emitted = upto
		}
	}
	t.mu.Unlock()
}

// everywhere is the number of the stream's writes every recipient reflects.
func (s *lagStream) everywhere() uint64 {
	low := ^uint64(0)
	for _, c := range s.covered {
		if c < low {
			low = c
		}
	}
	return low
}

func (t *lagTracker) emit(at, lag int64, early bool) {
	if lag <= 0 {
		// Seen at or before the ack's own timestamp: clamp, and count it.
		lag, early = 0, true
	}
	if early {
		t.visibleBeforeAck++
	}
	if t.lagDeadline > 0 && lag > t.lagDeadline {
		t.lagMisses++
	}
	t.lag.add(at, lag)
}

// pending returns how many acked writes are not yet visible everywhere.
func (t *lagTracker) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.streams {
		n += t.streams[i].acked - t.streams[i].emitted
	}
	return n
}

// pendingSince returns how many writes acknowledged at or after time since
// are not yet visible everywhere.
func (t *lagTracker) pendingSince(since int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.streams {
		for _, at := range t.streams[i].acks {
			if at >= since {
				n++
			}
		}
	}
	return n
}
