package wal

// Group commit: the batched-fsync write path under internal/durable.
//
// The seed WAL synced once per record while the durable replica held its
// write-ahead ordering lock across encode → append → apply, so every
// durable action paid a full disk flush and concurrent writers queued
// behind it. Group commit splits the append in two: Stage places the
// framed record into an in-memory pending batch (cheap, called under the
// caller's ordering lock so batch order always equals apply order), and
// Ticket.Wait blocks until a committer has written the whole batch and
// issued ONE fsync covering every record in it. The first waiter whose
// records are still pending becomes the leader for the round; everyone
// staged while the previous round was flushing rides the next sync for
// free. No acknowledgement is released before its record is on stable
// storage, so the durability contract is unchanged — only the number of
// flushes per acknowledged action drops from 1 to 1/batch-size.
//
// One Committer may be shared by several WALs (a partitioned durable node
// gives every partition its own log but one committer): a commit round
// drains every attached WAL's pending batch, writes each batch to its own
// segment in one write call, and syncs each dirty file once — k dirty
// partitions cost k fsyncs per round instead of k·records, and records of
// one partition still amortize into a single flush exactly as on a
// one-partition node.

import (
	"runtime"
	"sync"
	"time"
)

// BatchBuckets is the number of power-of-two histogram buckets the
// committer keeps: bucket i counts commit rounds whose record count fell
// in [2^i, 2^(i+1)), with the last bucket absorbing everything larger.
const BatchBuckets = 8

// CommitterStats is a snapshot of a committer's accounting.
//
//epi:notshared value snapshot returned to one caller
type CommitterStats struct {
	Fsyncs         uint64 // file syncs issued (one per dirty WAL per round)
	Batches        uint64 // commit rounds completed
	BatchedRecords uint64 // records made durable through group commit
	Waiters        uint64 // stages that joined a batch already being formed
	MaxBatch       uint64 // largest single round, in records
	// BatchHist buckets rounds by record count: [1], [2,3], [4,7], ...
	BatchHist [BatchBuckets]uint64
}

// Committer batches staged WAL records and flushes them with one fsync
// per dirty file per round. Safe for concurrent use; one committer may
// serve many WALs.
type Committer struct {
	// Delay, when positive, is how long a commit leader lingers before
	// sealing its batch, trading acknowledgement latency for larger
	// batches under light concurrency. Read-only after construction.
	delay time.Duration //epi:immutable

	mu   sync.Mutex
	cond *sync.Cond //epi:immutable broadcast on every completed round

	// epoch numbers the batch currently accepting stages; committed is
	// the newest epoch whose records are on stable storage. A ticket from
	// epoch e is durable once committed >= e.
	epoch     uint64 //epi:guard mu
	committed uint64 //epi:guard mu
	// committing marks a round in flight: its leader owns every attached
	// WAL's file handle until it re-acquires mu and broadcasts.
	committing bool   //epi:guard mu
	wals       []*WAL //epi:guard mu WALs with staged bytes this epoch

	stats CommitterStats //epi:guard mu
}

// NewCommitter returns a committer whose leaders linger for delay before
// sealing a batch (zero commits immediately — batching then comes only
// from writers that arrive while a previous round is flushing, which is
// the usual steady state under concurrency).
func NewCommitter(delay time.Duration) *Committer {
	// Epoch 0 is never open for staging: with committed starting at 0, a
	// ticket from epoch 0 would look durable before any round ran.
	c := &Committer{delay: delay, epoch: 1}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Ticket identifies one staged record; Wait blocks until it is durable.
//
//epi:notshared handed to the one staging goroutine; fields set before the ticket is returned
type Ticket struct {
	w     *WAL
	epoch uint64
}

// Stage frames payload into w's pending batch and returns a ticket for
// the commit notification. The payload bytes are copied, so the caller's
// buffer may be reused immediately. Callers that need log order to match
// apply order must stage under the same lock that serializes applies (the
// durable layer's wmu contract); Stage itself is safe for concurrent use.
func (w *WAL) Stage(payload []byte) (Ticket, error) {
	c := w.com
	c.mu.Lock()
	if w.closed {
		c.mu.Unlock()
		return Ticket{}, errClosed
	}
	if len(w.pend) == 0 {
		c.wals = append(c.wals, w)
	} else {
		c.stats.Waiters++
	}
	w.pend = appendFrame(w.pend, payload)
	w.pendRecs++
	t := Ticket{w: w, epoch: c.epoch}
	c.mu.Unlock()
	return t, nil
}

// Wait blocks until the ticket's record (and the whole batch before it)
// is on stable storage, returning the batch's write or sync error if it
// failed. The first waiter of a pending batch becomes the round's leader
// and performs the I/O for everyone.
func (t Ticket) Wait() error {
	c := t.w.com
	c.mu.Lock()
	// Return as soon as this epoch is committed, even while a LATER round
	// is still flushing: the ticket's own round has published its error
	// state, and waiting out unrelated rounds would lock-step writers into
	// one-record batches (each returning waiter must be free to stage its
	// next record into the round currently forming).
	for c.committed < t.epoch {
		if c.committing {
			// A round is in flight; it either covers this epoch or the
			// next wake-up will elect a leader that does.
			c.cond.Wait()
			continue
		}
		c.commitRoundLocked()
	}
	err := t.w.errFor(t.epoch)
	c.mu.Unlock()
	return err
}

// Flush commits everything currently staged on every attached WAL and
// returns w's error state, waiting out any round already in flight. The
// durable layer calls it (under its ordering lock) before cutting the log
// for a snapshot, so no staged record can land beyond the cut.
func (w *WAL) Flush() error {
	c := w.com
	c.mu.Lock()
	for {
		if c.committing {
			c.cond.Wait()
			continue
		}
		if w.pendRecs == 0 {
			break
		}
		c.commitRoundLocked()
	}
	err := t0ErrLocked(w)
	c.mu.Unlock()
	return err
}

// t0ErrLocked returns w's sticky error as of the current committed epoch.
//
//epi:requires mu
func t0ErrLocked(w *WAL) error {
	return w.errFor(w.com.committed)
}

// commitRoundLocked runs one commit round with the caller as leader:
// seals the open batch, releases mu for the I/O, re-acquires it to
// publish the results, and broadcasts. Called with mu held and
// committing false; returns with mu held and committing false.
//
//epi:requires mu
func (c *Committer) commitRoundLocked() {
	c.committing = true
	// Linger with mu released so late writers can stage into the batch
	// this round is about to seal. Without a configured delay the linger
	// is a single cooperative yield: writers released by the previous
	// round's broadcast are already runnable and only microseconds from
	// staging — sealing before they land would flush a singleton batch and
	// make rounds alternate one-record/full, doubling the fsync rate. The
	// yield costs well under a microsecond when nothing else is runnable.
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	} else {
		runtime.Gosched()
	}
	c.mu.Lock()
	sealed := c.epoch
	c.epoch++
	batch := c.wals
	c.wals = nil
	var records uint64
	for _, w := range batch {
		w.takePending()
		records += uint64(w.writeRecs)
	}
	c.mu.Unlock()

	// The I/O section: mu is free, committing guards the file handles.
	for _, w := range batch {
		w.commitTaken(sealed)
	}

	c.mu.Lock()
	c.committed = sealed
	c.committing = false
	for _, w := range batch {
		c.stats.Fsyncs += w.syncsTaken
		w.records += w.wroteRecs
		if w.wroteRecs > 0 {
			w.segRecs[w.wroteSeq] += w.wroteRecs
		}
	}
	if records > 0 {
		c.stats.Batches++
		c.stats.BatchedRecords += records
		c.stats.MaxBatch = max(c.stats.MaxBatch, records)
		c.stats.BatchHist[batchBucket(records)]++
	}
	c.cond.Broadcast()
}

// batchBucket maps a round's record count to its histogram bucket.
func batchBucket(records uint64) int {
	b := 0
	for records > 1 && b < BatchBuckets-1 {
		records >>= 1
		b++
	}
	return b
}

// Stats returns a snapshot of the committer's accounting.
func (c *Committer) Stats() CommitterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// quiesce waits until no round is in flight and w has nothing staged;
// callers must prevent new stages on w (the durable layer holds its
// ordering lock). Other WALs sharing the committer may keep staging.
func (w *WAL) quiesce() {
	c := w.com
	c.mu.Lock()
	for {
		if c.committing {
			c.cond.Wait()
			continue
		}
		if w.pendRecs == 0 {
			break
		}
		c.commitRoundLocked()
	}
	c.mu.Unlock()
}
