// Package durable makes a replica crash-recoverable: every state-mutating
// protocol action — user update, accepted propagation, adopted out-of-bound
// copy — is written to a write-ahead log before it is acknowledged, and the
// full replica state is periodically snapshotted so the log stays short.
// Recovery loads the last snapshot and replays the log; because every
// protocol action is deterministic given the state it is applied to, replay
// reproduces the pre-crash replica exactly.
//
// Writes go through group commit (internal/wal): an action stages its
// encoded record and applies under the write-ahead ordering lock (so log
// order always equals apply order), then waits for the commit notification
// outside it. Concurrent writers batch into one fsync instead of queueing
// behind one flush each; no action is acknowledged before its record is on
// stable storage.
//
// Durability matters more for this protocol than for a plain KV store: a
// replica that forgot its DBVV or log vector after a restart could neither
// answer "what am I missing" correctly nor keep the per-origin prefix
// ordering the correctness proof relies on. Re-joining from scratch would
// mean re-copying the whole database.
package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/wal"
	"repro/internal/wire"
)

const (
	// Floor-named snapshots: snapshot-NNNNNNNN.bin supersedes every WAL
	// segment below NNNNNNNN. Publishing a snapshot and discarding the
	// superseded segments are two steps; naming the floor into the file
	// makes a crash between them safe (recovery discards, then replays
	// only segments at or above the floor — never a pre-snapshot record
	// onto post-snapshot state).
	snapshotPrefix = "snapshot-"
	snapshotSuffix = ".bin"
	walDir         = "wal"
)

// Record kinds in the WAL.
const (
	recUpdate uint8 = iota + 1
	recPropagation
	recOOB
	recReconcile
	recPrune
)

// Options configures a durable replica.
//
//epi:notshared options value copied at Open
type Options struct {
	// SnapshotEvery snapshots after this many logged actions (then drops
	// the superseded log prefix). Zero means 1024.
	SnapshotEvery int
	// NoSync disables fsync on the WAL (tests/benchmarks).
	NoSync bool
	// Committer, when non-nil, is a shared group committer — the
	// per-partition replicas of one node stage into one commit stream so k
	// partitions still amortize into one fsync sequence. Nil gives the
	// replica's WAL a private committer.
	Committer *wal.Committer
	// CommitDelay is how long a commit leader lingers before sealing its
	// batch (larger batches, higher ack latency). Used when Committer is
	// nil.
	CommitDelay time.Duration
	// Core options (conflict handlers) applied at create and recover.
	CoreOptions []core.Option
}

// Replica is a crash-recoverable core.Replica rooted in a directory. All
// durable mutation methods are safe for concurrent use: wmu serializes the
// stage-then-apply pair of every action, so the WAL order always matches
// the apply order — the property replay's exactness depends on. The wait
// for the commit notification happens after wmu is released, which is what
// lets concurrent actions share a flush. (Reads through Core() hit the
// underlying replica's own locks and never need wmu.)
//
// An action is applied in memory before its record is durable; its
// acknowledgement still waits for the fsync, so a crash loses nothing a
// caller was told succeeded (the in-memory lead is exactly the state a
// crash wipes anyway).
type Replica struct {
	dir  string  //epi:immutable
	opts Options //epi:immutable

	// wmu is the write-ahead ordering lock: held across "stage record,
	// apply action" so no two actions can log in one order and apply in
	// the other. Outermost — the underlying replica's locks are taken and
	// released inside it.
	wmu      sync.Mutex
	snapCond *sync.Cond    //epi:immutable signals snapping falling; waits on wmu
	replica  *core.Replica //epi:immutable
	// log is set once at Open; the WAL synchronizes its own state (staging
	// under its committer's mutex, file I/O under the leader handoff), so
	// only the stage/apply *ordering* needs wmu, not the pointer itself.
	log    *wal.WAL //epi:immutable
	since  int      //epi:guard wmu logged actions since last snapshot cut
	encBuf []byte   //epi:guard wmu record-encode scratch (Stage copies)
	// snapping marks a captured snapshot not yet published: the capture
	// happened under wmu, the serialize+sync+rename runs outside it, and
	// no second capture may start until the first publishes.
	snapping bool  //epi:guard wmu
	snapErr  error //epi:guard wmu first failed background snapshot publish
}

// Open creates or recovers the durable replica in dir for server id of n.
// If the directory holds prior state, id and n must match it.
func Open(dir string, id, n int, opts Options) (*Replica, error) {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 1024
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: mkdir: %w", err)
	}

	replica, floor, err := restoreSnapshot(dir, id, n, opts)
	if err != nil {
		return nil, err
	}
	if replica.ID() != id || replica.Servers() != n {
		return nil, fmt.Errorf("durable: directory holds replica %d/%d, asked for %d/%d",
			replica.ID(), replica.Servers(), id, n)
	}

	log, err := wal.Open(filepath.Join(dir, walDir), wal.Options{
		NoSync:      opts.NoSync,
		Committer:   opts.Committer,
		CommitDelay: opts.CommitDelay,
	})
	if err != nil {
		return nil, err
	}
	if floor > 0 {
		// A crash may have landed between publishing the snapshot and
		// discarding the segments it superseded; finish the discard so
		// replay cannot re-apply pre-snapshot records.
		if err := log.DiscardBefore(floor); err != nil {
			log.Close()
			return nil, err
		}
	}
	d := &Replica{dir: dir, opts: opts, replica: replica, log: log}
	d.snapCond = sync.NewCond(&d.wmu)
	if err := d.replay(floor); err != nil {
		log.Close()
		return nil, err
	}
	return d, nil
}

// restoreSnapshot loads the newest floor-named snapshot in dir or builds a
// fresh replica, returning the WAL floor replay must start from.
func restoreSnapshot(dir string, id, n int, opts Options) (*core.Replica, uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: readdir: %w", err)
	}
	path := ""
	var floor uint64
	for _, e := range entries {
		var f uint64
		if _, err := fmt.Sscanf(e.Name(), snapshotPrefix+"%08d"+snapshotSuffix, &f); err != nil {
			continue
		}
		if f >= floor {
			floor, path = f, filepath.Join(dir, e.Name())
		}
	}
	if path == "" {
		return core.NewReplica(id, n, opts.CoreOptions...), 0, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: read snapshot: %w", err)
	}
	replica, err := core.ReadState(bytes.NewReader(data), opts.CoreOptions...)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: restore snapshot %s: %w", filepath.Base(path), err)
	}
	return replica, floor, nil
}

// replay re-applies every logged action at or above floor to the restored
// snapshot. A record that does not decode — wrong magic included — fails
// recovery: skipping it would let the replica diverge from what it
// acknowledged.
//
//epi:init recovery runs inside Open before the replica is published
func (d *Replica) replay(floor uint64) error {
	var rec wire.WALRecord
	return d.log.ReplayFrom(floor, func(payload []byte) error {
		if err := wire.DecodeWALRecord(payload, &rec); err != nil {
			return fmt.Errorf("durable: decode wal record: %w", err)
		}
		switch rec.Kind {
		case recUpdate:
			if err := d.replica.Update(rec.Key, rec.Op); err != nil {
				return fmt.Errorf("durable: replay update: %w", err)
			}
		case recPropagation:
			d.replica.ApplyPropagationWithItems(rec.Prop, rec.Items)
		case recOOB:
			if rec.OOB != nil {
				d.replica.ApplyOOB(*rec.OOB, rec.Source)
			}
		case recReconcile:
			d.replica.ApplyReconcileItems(rec.Items, rec.Source)
		case recPrune:
			d.replica.ConfigurePruning(rec.PrunePeers)
			d.replica.SetLogCap(rec.LogCap)
			d.replica.RestoreAcks(rec.Acked)
			d.replica.Prune()
		default:
			return fmt.Errorf("durable: unknown wal record kind %d", rec.Kind)
		}
		d.since++
		return nil
	})
}

// stageLocked encodes rec and stages it for group commit, returning the
// ticket the action's acknowledgement must wait on.
//
//epi:requires wmu
//epi:hotpath
func (d *Replica) stageLocked(rec *wire.WALRecord) (wal.Ticket, error) {
	d.encBuf = wire.AppendWALRecord(d.encBuf[:0], rec)
	t, err := d.log.Stage(d.encBuf)
	if err != nil {
		return wal.Ticket{}, err
	}
	d.since++
	return t, nil
}

// pendingSnap is a snapshot captured under wmu, to be serialized and
// published outside it.
//
//epi:notshared owned by the capturing goroutine once returned
type pendingSnap struct {
	state *core.State
	floor uint64
}

// maybeCaptureLocked captures a snapshot when the log has grown past the
// configured threshold and no capture is already in flight.
//
//epi:requires wmu
func (d *Replica) maybeCaptureLocked() *pendingSnap {
	if d.since < d.opts.SnapshotEvery || d.snapping {
		return nil
	}
	snap, _ := d.captureLocked()
	return snap
}

// captureLocked cuts the WAL at the current point and clones the replica
// state as of the cut. Everything staged so far is flushed to stable
// storage by the cut, so the snapshot supersedes exactly the segments
// below the returned floor. Writers resume as soon as this returns; the
// expensive serialize+sync+publish runs outside wmu (publishSnap).
//
//epi:requires wmu
func (d *Replica) captureLocked() (*pendingSnap, error) {
	cut, err := d.log.CutForSnapshot()
	if err != nil {
		return nil, err
	}
	d.snapping = true
	d.since = 0
	return &pendingSnap{state: d.replica.CaptureState(), floor: cut.Floor}, nil
}

// publishSnap serializes, syncs and atomically publishes a captured
// snapshot, then discards the WAL segments it superseded. Runs outside
// wmu; only one publish is in flight at a time (the snapping flag).
func (d *Replica) publishSnap(s *pendingSnap) error {
	err := d.writeSnapFile(s)
	d.wmu.Lock()
	d.snapping = false
	d.wmu.Unlock()
	d.snapCond.Broadcast()
	return err
}

func (d *Replica) writeSnapFile(s *pendingSnap) error {
	name := fmt.Sprintf("%s%08d%s", snapshotPrefix, s.floor, snapshotSuffix)
	// One fixed temp name: the snapping flag keeps publishes one at a
	// time, and a stale temp from a crash is harmlessly overwritten.
	tmp := filepath.Join(d.dir, "snapshot.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create snapshot: %w", err)
	}
	if err := s.state.Encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: write snapshot: %w", err)
	}
	if !d.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("durable: sync snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		return fmt.Errorf("durable: publish snapshot: %w", err)
	}
	// The snapshot is durable and named with its floor: everything below
	// it — older snapshots, superseded segments — is now garbage. A crash
	// anywhere in this cleanup recovers correctly (Open picks the highest
	// floor and re-discards).
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("durable: readdir after publish: %w", err)
	}
	for _, e := range entries {
		var f uint64
		if _, err := fmt.Sscanf(e.Name(), snapshotPrefix+"%08d"+snapshotSuffix, &f); err == nil && f < s.floor {
			os.Remove(filepath.Join(d.dir, e.Name()))
		}
	}
	return d.log.DiscardBefore(s.floor)
}

// finish completes a durable action begun under wmu: release the ordering
// lock, wait for the group commit covering the staged record, and publish
// any snapshot the action triggered.
func (d *Replica) finish(t wal.Ticket, snap *pendingSnap) error {
	d.wmu.Unlock()
	err := t.Wait()
	if snap != nil {
		// A failed background publish does not fail the action (its record
		// is durable); it is reported through Close (snapErr).
		if perr := d.publishSnap(snap); perr != nil {
			d.wmu.Lock()
			if d.snapErr == nil {
				d.snapErr = perr
			}
			d.wmu.Unlock()
		}
	}
	return err
}

// Core exposes the underlying replica for reads and inspection. Mutations
// must go through the durable methods below or they will be lost on crash.
func (d *Replica) Core() *core.Replica { return d.replica }

// Update durably applies a user update: staged, applied, acknowledged
// after the covering group commit.
func (d *Replica) Update(key string, o op.Op) error {
	if err := o.Validate(); err != nil {
		return err
	}
	d.wmu.Lock()
	t, err := d.stageLocked(&wire.WALRecord{Kind: recUpdate, Key: key, Op: o, HasOp: true})
	if err != nil {
		d.wmu.Unlock()
		return err
	}
	aerr := d.replica.Update(key, o)
	snap := d.maybeCaptureLocked()
	if err := d.finish(t, snap); err != nil {
		return err
	}
	return aerr
}

// ApplyPropagation durably applies a propagation message. In delta mode,
// sessions needing a second-round fetch must use ApplyPropagationWithItems
// (AntiEntropyFrom handles this automatically).
func (d *Replica) ApplyPropagation(p *core.Propagation) error {
	if p == nil {
		return nil
	}
	if need := d.replica.NeedFull(p); len(need) > 0 {
		return fmt.Errorf("durable: session needs full copies of %d items; use ApplyPropagationWithItems", len(need))
	}
	return d.ApplyPropagationWithItems(p, nil)
}

// ApplyPropagationWithItems durably commits a propagation session together
// with any second-round full copies.
func (d *Replica) ApplyPropagationWithItems(p *core.Propagation, items []core.ItemPayload) error {
	if p == nil {
		return nil
	}
	d.wmu.Lock()
	t, err := d.stageLocked(&wire.WALRecord{Kind: recPropagation, Prop: p, Items: items})
	if err != nil {
		d.wmu.Unlock()
		return err
	}
	d.replica.ApplyPropagationWithItems(p, items)
	snap := d.maybeCaptureLocked()
	return d.finish(t, snap)
}

// ApplyOOB durably adopts an out-of-bound reply.
func (d *Replica) ApplyOOB(reply core.OOBReply, source int) (bool, error) {
	d.wmu.Lock()
	t, err := d.stageLocked(&wire.WALRecord{Kind: recOOB, OOB: &reply, Source: source})
	if err != nil {
		d.wmu.Unlock()
		return false, err
	}
	adopted := d.replica.ApplyOOB(reply, source)
	snap := d.maybeCaptureLocked()
	if err := d.finish(t, snap); err != nil {
		return false, err
	}
	return adopted, nil
}

// ApplyReconcileItems durably commits the fetched difference of a set-
// reconciliation session: staged, then applied (which also raises the
// pruned watermark when anything is adopted — see core). Returns the number
// of items adopted.
func (d *Replica) ApplyReconcileItems(items []core.ItemPayload, source int) (int, error) {
	if len(items) == 0 {
		return 0, nil
	}
	d.wmu.Lock()
	t, err := d.stageLocked(&wire.WALRecord{Kind: recReconcile, Items: items, Source: source})
	if err != nil {
		d.wmu.Unlock()
		return 0, err
	}
	adopted := d.replica.ApplyReconcileItems(items, source)
	snap := d.maybeCaptureLocked()
	if err := d.finish(t, snap); err != nil {
		return 0, err
	}
	return adopted, nil
}

// Prune durably runs one log-pruning pass: the pass's inputs (ack table,
// peer set, log cap) are logged so replay reproduces the same floor against
// the rebuilt log, then the pass runs. Returns the records dropped.
func (d *Replica) Prune() (int, error) {
	d.wmu.Lock()
	t, err := d.stageLocked(&wire.WALRecord{
		Kind:       recPrune,
		Acked:      d.replica.AckTable(),
		PrunePeers: d.replica.PrunePeers(),
		LogCap:     d.replica.LogCap(),
	})
	if err != nil {
		d.wmu.Unlock()
		return 0, err
	}
	dropped := d.replica.Prune()
	snap := d.maybeCaptureLocked()
	if err := d.finish(t, snap); err != nil {
		return 0, err
	}
	return dropped, nil
}

// AntiEntropyFrom durably performs one propagation session pulling from an
// in-process source replica, including the second-round fetch of a
// delta-mode session. Returns whether data was shipped.
func (d *Replica) AntiEntropyFrom(source *core.Replica) (bool, error) {
	req := d.replica.PropagationRequest()
	p := source.BuildPropagation(req)
	if p == nil {
		return false, nil
	}
	var items []core.ItemPayload
	if need := d.replica.NeedFull(p); len(need) > 0 {
		items = source.BuildItems(need)
	}
	return true, d.ApplyPropagationWithItems(p, items)
}

// Snapshot writes the full replica state and drops the superseded log
// prefix. Writers pause only for the in-memory capture; the serialize,
// sync and publish run after wmu is released.
func (d *Replica) Snapshot() error {
	d.wmu.Lock()
	for d.snapping {
		d.snapCond.Wait()
	}
	snap, err := d.captureLocked()
	d.wmu.Unlock()
	if err != nil {
		return err
	}
	return d.publishSnap(snap)
}

// WALStats returns the group committer's accounting (fsyncs, batches,
// batch-size histogram) for this replica's log.
func (d *Replica) WALStats() wal.CommitterStats {
	return d.log.Committer().Stats()
}

// WALRecords returns the number of actions in the log (those not yet
// superseded by a snapshot).
func (d *Replica) WALRecords() int {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.log.Records()
}

// Close snapshots and releases the WAL.
func (d *Replica) Close() error {
	d.wmu.Lock()
	for d.snapping {
		d.snapCond.Wait()
	}
	snap, err := d.captureLocked()
	firstErr := d.snapErr
	d.wmu.Unlock()
	if err != nil && firstErr == nil {
		firstErr = err
	}
	if snap != nil {
		if err := d.publishSnap(snap); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if err := d.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// CloseWithoutSnapshot releases the WAL without snapshotting — recovery
// will replay the log. Used by crash tests; real shutdowns prefer Close.
func (d *Replica) CloseWithoutSnapshot() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	for d.snapping {
		d.snapCond.Wait()
	}
	return d.log.Close()
}
