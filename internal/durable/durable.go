// Package durable makes a replica crash-recoverable: every state-mutating
// protocol action — user update, accepted propagation, adopted out-of-bound
// copy — is written to a write-ahead log before it is acknowledged, and
// every SnapshotEvery actions a checkpoint lets the log drop its prefix.
// Recovery loads the checkpoints and replays the log; because every
// protocol action is deterministic given the state it is applied to, replay
// reproduces the pre-crash replica exactly.
//
// A checkpoint is a delta: the control state plus full images of only the
// items changed since the previous checkpoint (core's dirty list), taken
// under the write-ahead ordering lock in O(changed items) and written as
// delta-<floor>.ckpt, where floor is the first WAL segment it does not
// cover. Once the deltas' bytes reach the base's, a background goroutine
// folds base-<floor>.ckpt and its deltas, read back from the files, into a
// new base. Disk use stays under twice the base's size plus the WAL, and
// recovery reads at most about two images' worth of checkpoint bytes: the
// newest base, then every delta above it in floor order (a later image of
// an item wins), then the WAL from the newest floor.
//
// Each step of a checkpoint leaves a directory recovery reads correctly:
//   - a crash after delta.tmp is written, before its rename, leaves the
//     previous chain and the WAL segments it needs;
//   - after the rename, before the WAL discard, recovery discards the
//     superseded segments itself;
//   - after base.tmp is written, before its rename, the old base and its
//     deltas are intact;
//   - after the base's rename, before the superseded files are removed,
//     recovery ignores and removes them.
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
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The directory layout: checkpoint files named by their WAL floor, the
// temporary files they are written through, and the WAL.
const (
	basePrefix  = "base-"
	deltaPrefix = "delta-"
	ckptSuffix  = ".ckpt"
	baseTemp    = "base.tmp"
	deltaTemp   = "delta.tmp"
	walDir      = "wal"
	// gobPrefix names the full gob snapshots of earlier releases, which
	// this one refuses rather than ignores.
	gobPrefix = "snapshot-"
)

// ckptName names the checkpoint file of prefix at floor.
func ckptName(prefix string, floor uint64) string {
	return fmt.Sprintf("%s%08d%s", prefix, floor, ckptSuffix)
}

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
	// SnapshotEvery checkpoints after this many logged actions (then drops
	// the superseded log prefix). Zero means 1024.
	SnapshotEvery int
	// NoSync disables fsync on the WAL and the checkpoint files
	// (tests/benchmarks).
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

	// crash, set by crash tests only, reports whether a checkpoint stops
	// at a point as if the process died there.
	crash func(crashPoint) bool
}

// CheckpointStats counts a replica's checkpoint work since Open.
//
//epi:notshared value copy returned to one caller
type CheckpointStats struct {
	Checkpoints   int   // deltas captured
	ItemsCaptured int   // item images those deltas held
	DeltaBytes    int64 // bytes of the deltas published
	BaseBytes     int64 // size of the newest base (0: none yet)
}

// crashPoint names a step of a checkpoint after which a crash test may
// stop it.
type crashPoint int

const (
	deltaWritten crashPoint = iota // delta.tmp synced, not renamed
	deltaRenamed                   // delta renamed, WAL not discarded
	baseWritten                    // base.tmp synced, not renamed
	baseRenamed                    // base renamed, superseded files kept
)

// errCrashed is what a checkpoint step returns when a crash test stops it.
var errCrashed = errors.New("durable: checkpoint stopped by a simulated crash")

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
	wmu sync.Mutex
	// idle signals snapping or compacting falling; waits on wmu.
	idle    *sync.Cond    //epi:immutable
	replica *core.Replica //epi:immutable
	// log is set once at Open; the WAL synchronizes its own state (staging
	// under its committer's mutex, file I/O under the leader handoff), so
	// only the stage/apply *ordering* needs wmu, not the pointer itself.
	log    *wal.WAL //epi:immutable
	since  int      //epi:guard wmu logged actions since last checkpoint cut
	encBuf []byte   //epi:guard wmu record-encode scratch (Stage copies)
	// snapping marks a captured checkpoint not yet published: the capture
	// happened under wmu, the encode+sync+rename runs outside it, and no
	// second capture may start until the first publishes. compacting
	// marks a compaction in flight, also one at a time.
	snapping   bool            //epi:guard wmu
	compacting bool            //epi:guard wmu
	snapErr    error           //epi:guard wmu first failed cut, publish or compaction no caller was told of
	stats      CheckpointStats //epi:guard wmu
	// head is the floor of the newest published checkpoint (0: none);
	// deltaBytes sums the deltas published above the base, whose size is
	// stats.BaseBytes.
	head       uint64 //epi:guard wmu
	deltaBytes int64  //epi:guard wmu
}

// Open creates or recovers the durable replica in dir for server id of n.
// If the directory holds prior state, id must match it, and n must not
// exceed its server count: a replica grown past n reopens grown.
func Open(dir string, id, n int, opts Options) (*Replica, error) {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 1024
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: mkdir: %w", err)
	}

	replica, head, baseBytes, deltaBytes, err := restoreChain(dir, id, n, opts)
	if err != nil {
		return nil, err
	}
	if replica.ID() != id {
		return nil, fmt.Errorf("durable: directory holds replica %d/%d, asked for %d/%d",
			replica.ID(), replica.Servers(), id, n)
	}
	// Replayed actions land on the dirty list: the next checkpoint is the
	// first to cover them.
	replica.TrackCheckpoints()

	log, err := wal.Open(filepath.Join(dir, walDir), wal.Options{
		NoSync:      opts.NoSync,
		Committer:   opts.Committer,
		CommitDelay: opts.CommitDelay,
	})
	if err != nil {
		return nil, err
	}
	if head > 0 {
		// A crash may have landed between publishing the checkpoint and
		// discarding the segments it superseded; finish the discard so
		// replay cannot re-apply covered records.
		if err := log.DiscardBefore(head); err != nil {
			log.Close()
			return nil, err
		}
	}
	d := &Replica{dir: dir, opts: opts, replica: replica, log: log, head: head, deltaBytes: deltaBytes}
	d.stats.BaseBytes = baseBytes
	d.idle = sync.NewCond(&d.wmu)
	if err := d.replay(head); err != nil {
		log.Close()
		return nil, err
	}
	// A replica that grew past n (an epidemic Grow) reopens grown; one
	// holding fewer servers than asked for is somebody else's.
	if replica.Servers() < n {
		log.Close()
		return nil, fmt.Errorf("durable: directory holds replica %d/%d, asked for %d/%d",
			replica.ID(), replica.Servers(), id, n)
	}
	// Close publishes its delta without compacting; the next life folds
	// the deltas the rule says are due.
	if deltaBytes > 0 && deltaBytes >= baseBytes {
		d.compacting = true
		go d.compact(head)
	}
	return d, nil
}

// scanChain reads dir's checkpoint file names: the floor of the newest
// base (0: none), the floors of the deltas above it, ascending, and the
// names of superseded checkpoints and temporary files. A gob snapshot of
// an earlier release fails the scan: this release cannot read it, and
// ignoring it would start the replica empty.
func scanChain(dir string) (base uint64, deltas []uint64, stale []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("durable: readdir: %w", err)
	}
	var bases, all []uint64
	for _, e := range entries {
		name := e.Name()
		var f uint64
		switch {
		case strings.HasPrefix(name, gobPrefix):
			return 0, nil, nil, fmt.Errorf("durable: %s is a gob snapshot of an earlier release; this one reads only base-/delta- checkpoints",
				filepath.Join(dir, name))
		case name == baseTemp || name == deltaTemp:
			stale = append(stale, name)
		case parseFloor(name, basePrefix, &f):
			bases = append(bases, f)
			base = max(base, f)
		case parseFloor(name, deltaPrefix, &f):
			all = append(all, f)
		}
	}
	for _, f := range bases {
		if f < base {
			stale = append(stale, ckptName(basePrefix, f))
		}
	}
	for _, f := range all {
		if f <= base {
			stale = append(stale, ckptName(deltaPrefix, f))
		} else {
			deltas = append(deltas, f)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
	return base, deltas, stale, nil
}

// parseFloor reports whether name is prefix's checkpoint file, setting
// *floor from it.
func parseFloor(name, prefix string, floor *uint64) bool {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ckptSuffix) {
		return false
	}
	_, err := fmt.Sscanf(name, prefix+"%08d"+ckptSuffix, floor)
	return err == nil
}

// loadChain decodes the base at floor base (none when 0) and the deltas
// at or below upTo, oldest first, checking that each follows the
// checkpoint before it. It returns the base's size and the deltas'.
func loadChain(dir string, base uint64, deltas []uint64, upTo uint64) (cps []*core.Checkpoint, baseBytes, deltaBytes int64, err error) {
	read := func(name string, floor, prev uint64) (int64, error) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, fmt.Errorf("durable: read checkpoint: %w", err)
		}
		c, err := wire.DecodeCheckpoint(data)
		if err != nil {
			return 0, fmt.Errorf("durable: checkpoint %s: %w", name, err)
		}
		if c.Floor != floor || c.Prev != prev {
			return 0, fmt.Errorf("durable: checkpoint %s is labelled floor %d after %d, want %d after %d", name, c.Floor, c.Prev, floor, prev)
		}
		cps = append(cps, c)
		return int64(len(data)), nil
	}
	if base > 0 {
		if baseBytes, err = read(ckptName(basePrefix, base), base, 0); err != nil {
			return nil, 0, 0, err
		}
	}
	prev := base
	for _, f := range deltas {
		if f > upTo {
			break
		}
		size, err := read(ckptName(deltaPrefix, f), f, prev)
		if err != nil {
			return nil, 0, 0, err
		}
		deltaBytes += size
		prev = f
	}
	return cps, baseBytes, deltaBytes, nil
}

// restoreChain rebuilds the replica from dir's newest base and the deltas
// above it, or builds a fresh one, after removing the files a crash left
// superseded. head is the floor of the newest checkpoint, where WAL replay
// starts.
func restoreChain(dir string, id, n int, opts Options) (r *core.Replica, head uint64, baseBytes, deltaBytes int64, err error) {
	base, deltas, stale, err := scanChain(dir)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	for _, name := range stale {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("durable: remove superseded %s: %w", name, err)
		}
	}
	if base == 0 && len(deltas) == 0 {
		return core.NewReplica(id, n, opts.CoreOptions...), 0, 0, 0, nil
	}
	cps, baseBytes, deltaBytes, err := loadChain(dir, base, deltas, ^uint64(0))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	head = cps[len(cps)-1].Floor
	if r, err = core.RestoreCheckpoint(core.MergeCheckpoints(cps...), opts.CoreOptions...); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("durable: restore checkpoints: %w", err)
	}
	return r, head, baseBytes, deltaBytes, nil
}

// replay re-applies every logged action at or above floor to the restored
// checkpoints. A record that does not decode — wrong magic included — fails
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

// captureLocked cuts the WAL at the current point and captures a delta
// checkpoint as of the cut: the control state and the items changed since
// the previous capture. Everything staged so far is flushed by the cut, so
// the checkpoint supersedes exactly the segments below its floor. Writers
// resume as soon as this returns; the encode+sync+publish runs outside
// wmu (publish).
//
//epi:requires wmu
func (d *Replica) captureLocked() (*core.Checkpoint, error) {
	cut, err := d.log.CutForSnapshot()
	if err != nil {
		return nil, err
	}
	d.snapping = true
	d.since = 0
	c := d.replica.CaptureCheckpoint(false)
	c.Floor, c.Prev = cut.Floor, d.head
	d.stats.Checkpoints++
	d.stats.ItemsCaptured += len(c.Items)
	return c, nil
}

// waitIdleLocked waits out the publish and the compaction in flight.
//
//epi:requires wmu
func (d *Replica) waitIdleLocked() {
	for d.snapping || d.compacting {
		d.idle.Wait()
	}
}

// publish writes a captured checkpoint as a delta file and discards the
// WAL segments it supersedes. When compact is set and the deltas have
// grown as large as the base, it starts a compaction in the background.
// Runs outside wmu; only one publish is in flight at a time (snapping). A
// delta that never reached its name puts its items back on the dirty
// list, so the next checkpoint covers them.
func (d *Replica) publish(c *core.Checkpoint, compact bool) error {
	size, renamed, err := d.writeDelta(c)
	d.wmu.Lock()
	d.snapping = false
	if renamed {
		d.head = c.Floor
		d.deltaBytes += size
		d.stats.DeltaBytes += size
		if compact && !d.compacting && d.deltaBytes >= d.stats.BaseBytes {
			d.compacting = true
			go d.compact(c.Floor)
		}
	} else {
		d.replica.RequeueCheckpoint(c)
	}
	d.wmu.Unlock()
	d.idle.Broadcast()
	return err
}

// writeDelta publishes c as delta-<floor>, then discards the WAL segments
// below that floor. renamed reports whether the file reached its name.
func (d *Replica) writeDelta(c *core.Checkpoint) (size int64, renamed bool, err error) {
	data := wire.AppendCheckpoint(nil, c)
	size = int64(len(data))
	if renamed, err = d.writeFile(deltaTemp, ckptName(deltaPrefix, c.Floor), data, deltaWritten); err != nil {
		return size, renamed, err
	}
	if d.crashed(deltaRenamed) {
		return size, true, errCrashed
	}
	return size, true, d.log.DiscardBefore(c.Floor)
}

// crashed reports whether a crash test stops the checkpoint at p.
func (d *Replica) crashed(p crashPoint) bool { return d.opts.crash != nil && d.opts.crash(p) }

// writeFile writes data to the temporary file tmp, syncs it, renames it
// to name and syncs the directory; renamed reports whether the rename
// happened. One fixed temporary name per file kind is enough: publishes
// run one at a time, and so do compactions.
func (d *Replica) writeFile(tmp, name string, data []byte, written crashPoint) (renamed bool, err error) {
	path := filepath.Join(d.dir, tmp)
	f, err := os.Create(path)
	if err != nil {
		return false, fmt.Errorf("durable: create checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return false, fmt.Errorf("durable: write checkpoint: %w", err)
	}
	if !d.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(path)
			return false, fmt.Errorf("durable: sync checkpoint: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return false, fmt.Errorf("durable: close checkpoint: %w", err)
	}
	if d.crashed(written) {
		return false, errCrashed
	}
	if err := os.Rename(path, filepath.Join(d.dir, name)); err != nil {
		return false, fmt.Errorf("durable: publish checkpoint: %w", err)
	}
	if d.opts.NoSync {
		return true, nil
	}
	// The rename must be on disk before the WAL segments or checkpoints
	// it supersedes are removed, or a power cut could keep the removals
	// and lose the name.
	dir, err := os.Open(d.dir)
	if err != nil {
		return true, fmt.Errorf("durable: open directory: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return true, fmt.Errorf("durable: sync directory: %w", err)
	}
	return true, nil
}

// compact folds the base and the deltas up to floor upTo into a new base,
// working from the files, never from the replica: no lock is held while
// it reads, merges and writes. Runs on its own goroutine, one at a time;
// the deltas above upTo keep coming meanwhile. A failure is reported
// through Close (snapErr).
func (d *Replica) compact(upTo uint64) {
	size, folded, err := d.compactFiles(upTo)
	d.wmu.Lock()
	if err == nil {
		d.stats.BaseBytes = size
		d.deltaBytes -= folded
	} else if d.snapErr == nil {
		d.snapErr = err
	}
	d.compacting = false
	d.wmu.Unlock()
	d.idle.Broadcast()
}

// compactFiles writes base-<upTo> from the newest base and the deltas up
// to upTo, then removes the files it supersedes. It returns the new
// base's size and the folded deltas'.
func (d *Replica) compactFiles(upTo uint64) (size, folded int64, err error) {
	base, deltas, _, err := scanChain(d.dir)
	if err != nil {
		return 0, 0, err
	}
	cps, _, folded, err := loadChain(d.dir, base, deltas, upTo)
	if err != nil {
		return 0, 0, err
	}
	merged := core.MergeCheckpoints(cps...)
	if merged.Floor != upTo {
		return 0, 0, fmt.Errorf("durable: compaction reached floor %d, want %d", merged.Floor, upTo)
	}
	merged.Prev = 0
	data := wire.AppendCheckpoint(nil, merged)
	if _, err := d.writeFile(baseTemp, ckptName(basePrefix, upTo), data, baseWritten); err != nil {
		return 0, 0, err
	}
	if d.crashed(baseRenamed) {
		return 0, 0, errCrashed
	}
	// The new base is durable: the old one and the deltas it folded in
	// are garbage, and a crash anywhere in this cleanup recovers
	// correctly (Open removes what is left).
	var stale []string
	if base > 0 {
		stale = append(stale, ckptName(basePrefix, base))
	}
	for _, f := range deltas {
		if f <= upTo {
			stale = append(stale, ckptName(deltaPrefix, f))
		}
	}
	for _, name := range stale {
		if err := os.Remove(filepath.Join(d.dir, name)); err != nil {
			return 0, 0, fmt.Errorf("durable: remove superseded %s: %w", name, err)
		}
	}
	return int64(len(data)), folded, nil
}

// logged is one durable action: stage rec and run apply under wmu, so log
// order is apply order, then release wmu and wait for the group commit that
// covers the record. An action that takes the log past SnapshotEvery, with
// no capture in flight, captures a checkpoint under wmu and publishes it
// after the wait. A failed cut or publish does not fail the action (its
// record is durable); the first one is reported through Close (snapErr).
func (d *Replica) logged(rec *wire.WALRecord, apply func()) error {
	d.wmu.Lock()
	t, err := d.stageLocked(rec)
	if err != nil {
		d.wmu.Unlock()
		return err
	}
	apply()
	var cp *core.Checkpoint
	if d.since >= d.opts.SnapshotEvery && !d.snapping {
		var cerr error
		if cp, cerr = d.captureLocked(); cerr != nil && d.snapErr == nil {
			d.snapErr = cerr
		}
	}
	d.wmu.Unlock()
	err = t.Wait()
	if cp != nil {
		if perr := d.publish(cp, true); perr != nil {
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
	var aerr error
	rec := &wire.WALRecord{Kind: recUpdate, Key: key, Op: o, HasOp: true}
	if err := d.logged(rec, func() { aerr = d.replica.Update(key, o) }); err != nil {
		return err
	}
	return aerr
}

// ApplyPropagation durably applies a propagation message. In delta mode,
// sessions needing a second-round fetch must use ApplyPropagationWithItems
// (AntiEntropyFrom handles this automatically).
func (d *Replica) ApplyPropagation(p *core.Propagation) error {
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
	rec := &wire.WALRecord{Kind: recPropagation, Prop: p, Items: items}
	return d.logged(rec, func() { d.replica.ApplyPropagationWithItems(p, items) })
}

// ApplyChunk durably commits one streamed chunk as an ordinary propagation
// record, which replay applies like any other. Chunks end on per-origin
// prefix boundaries, so the chunks a crash leaves in the log recover to a
// valid DBVV, and the next pull ships only the rest.
func (d *Replica) ApplyChunk(p *core.Propagation) error {
	if p == nil {
		return nil
	}
	rec := &wire.WALRecord{Kind: recPropagation, Prop: p}
	return d.logged(rec, func() { d.replica.ApplyChunk(p) })
}

// ApplyOOB durably adopts an out-of-bound reply.
func (d *Replica) ApplyOOB(reply core.OOBReply, source int) (adopted bool, err error) {
	rec := &wire.WALRecord{Kind: recOOB, OOB: &reply, Source: source}
	if err = d.logged(rec, func() { adopted = d.replica.ApplyOOB(reply, source) }); err != nil {
		return false, err
	}
	return adopted, nil
}

// ApplyReconcileItems durably commits the fetched difference of a set-
// reconciliation session: staged, then applied (which also raises the
// pruned watermark when anything is adopted — see core). Returns the number
// of items adopted.
func (d *Replica) ApplyReconcileItems(items []core.ItemPayload, source int) (adopted int, err error) {
	if len(items) == 0 {
		return 0, nil
	}
	rec := &wire.WALRecord{Kind: recReconcile, Items: items, Source: source}
	if err = d.logged(rec, func() { adopted = d.replica.ApplyReconcileItems(items, source) }); err != nil {
		return 0, err
	}
	return adopted, nil
}

// Prune durably runs one log-pruning pass: the pass's inputs (ack table,
// peer set, log cap) are logged so replay reproduces the same floor against
// the rebuilt log, then the pass runs. Returns the records dropped.
func (d *Replica) Prune() (dropped int, err error) {
	rec := &wire.WALRecord{
		Kind:       recPrune,
		Acked:      d.replica.AckTable(),
		PrunePeers: d.replica.PrunePeers(),
		LogCap:     d.replica.LogCap(),
	}
	if err = d.logged(rec, func() { dropped = d.replica.Prune() }); err != nil {
		return 0, err
	}
	return dropped, nil
}

// AntiEntropyFrom durably performs one propagation session pulling from an
// in-process source replica: core.AntiEntropy's session with this replica
// as the sink, so it takes the same divert, re-probe and fetch decisions —
// a source that pruned past this replica is reconciled first, each fetched
// batch write-ahead logged. Returns whether data was shipped.
func (d *Replica) AntiEntropyFrom(source *core.Replica) (bool, error) {
	return core.PullReplica(d, source)
}

// Snapshot takes a checkpoint now and drops the superseded log prefix.
// Writers pause only for the capture of the changed items; the encode,
// sync and publish run after wmu is released.
func (d *Replica) Snapshot() error {
	d.wmu.Lock()
	for d.snapping {
		d.idle.Wait()
	}
	c, err := d.captureLocked()
	d.wmu.Unlock()
	if err != nil {
		return err
	}
	return d.publish(c, true)
}

// CheckpointStats returns the replica's checkpoint accounting.
func (d *Replica) CheckpointStats() CheckpointStats {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.stats
}

// WALStats returns the group committer's accounting (fsyncs, batches,
// batch-size histogram) for this replica's log.
func (d *Replica) WALStats() wal.CommitterStats {
	return d.log.Committer().Stats()
}

// WALRecords returns the number of actions in the log (those not yet
// superseded by a checkpoint).
func (d *Replica) WALRecords() int {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.log.Records()
}

// Close checkpoints and releases the WAL, reporting the first failed
// cut, publish or compaction since Open.
func (d *Replica) Close() error {
	d.wmu.Lock()
	d.waitIdleLocked()
	c, err := d.captureLocked()
	firstErr := d.snapErr
	d.wmu.Unlock()
	if err != nil && firstErr == nil {
		firstErr = err
	}
	if c != nil {
		if err := d.publish(c, false); err != nil && firstErr == nil {
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

// CloseWithoutSnapshot releases the WAL without checkpointing — recovery
// will replay the log. Used by crash tests; real shutdowns prefer Close.
func (d *Replica) CloseWithoutSnapshot() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.waitIdleLocked()
	return d.log.Close()
}
