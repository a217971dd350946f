package core

import (
	"fmt"
	"sort"

	"repro/internal/op"
	"repro/internal/store"
	"repro/internal/vv"
)

// Checkpoints of replica state. A replica's protocol state — DBVV, item
// IVVs, log vector, auxiliary structures, pruning state — must survive
// restarts exactly: a replica that forgot its version vectors would either
// re-fetch the whole database or, worse, mis-order updates.
//
// A checkpoint is the control state plus full images of some items. The
// durable layer takes one every SnapshotEvery logged actions, imaging only
// the items changed since the previous one (the dirty list below), so a
// checkpoint costs O(changed items) under its ordering lock, not O(N). A
// base is a checkpoint holding every item; MergeCheckpoints folds deltas
// into one, and RestoreCheckpoint rebuilds a replica from it.
//
// The log vector is not stored as lists: each image carries the seqs of
// its item's live records, one per origin, and restore re-links each
// component from the seqs above that origin's truncation floor, in seq
// order. That is exact because a component is sorted by seq, holds at most
// one record per item, and loses a record in only two ways: supersession,
// which re-images the item, and pruning, which only drops records at or
// below a floor the control state keeps (Trunc). The pruned watermark is
// not that floor: reconcile adoption raises it without dropping anything.

// ItemImage is one item's complete state at a checkpoint.
//
//epi:notshared codec value assembled or decoded by one goroutine
type ItemImage struct {
	Key      string
	Value    []byte
	IVV      vv.VV
	HasAux   bool
	AuxValue []byte
	AuxIVV   vv.VV
	Deltas   []store.Delta
	// Seqs[j] is the seq of the item's record in origin j's log component,
	// 0 when it has none there (seqs start at 1).
	Seqs []uint64
}

// AuxRecord is one auxiliary log entry: an update made to an auxiliary
// copy, with the auxiliary IVV it was made against.
//
//epi:notshared codec value assembled or decoded by one goroutine
type AuxRecord struct {
	Key string
	Pre vv.VV
	Op  op.Op
}

// Checkpoint is a replica's control state plus full images of some of its
// items: all of them in a base, the ones changed since the previous
// checkpoint in a delta. Every buffer is the checkpoint's own, so encoding
// it happens entirely outside the replica's locks.
//
//epi:notshared captured clone owned by the checkpointing goroutine
type Checkpoint struct {
	// Floor and Prev label the checkpoint's place in a chain: the durable
	// layer sets Floor to the WAL position the checkpoint supersedes and
	// Prev to the Floor of the checkpoint it follows (0: none). Core
	// carries them and never reads them.
	Floor, Prev uint64

	ID, N int
	DBVV  vv.VV
	// Pruned is the pruned watermark; Trunc, at or below it, is the join
	// of the floors the log was truncated by.
	Pruned     vv.VV
	Trunc      vv.VV
	Acked      []vv.VV // indexed by peer id; nil: nothing learned
	PrunePeers []int
	LogCap     int
	Conflicted bool
	Delta      bool // record-shipping mode enabled
	Aux        []AuxRecord
	Items      []ItemImage

	// imaged holds the replica's items whose images a delta captured, so
	// that RequeueCheckpoint can put them back on the dirty list.
	imaged []*store.Item
}

// TrackCheckpoints starts the dirty list: from now on every item whose
// image changes is listed, once, until the next CaptureCheckpoint. A
// replica nothing checkpoints never calls it, and marking then costs one
// flag check.
//
//epi:init the durable layer enables tracking before the replica is published
func (r *Replica) TrackCheckpoints() { r.tracking = true }

// markDirtyLocked lists it for the next checkpoint. Called wherever an
// item's value, IVV, auxiliary copy, delta chain or log pointers change,
// except pruning, whose drops the truncation floors account for.
//
//epi:requires ctl
func (r *Replica) markDirtyLocked(it *store.Item) {
	if !r.tracking || it.Dirty() {
		return
	}
	it.SetDirty(true)
	r.dirty = append(r.dirty, it)
}

// CaptureCheckpoint clones, under the all-shard read sweep plus the
// control mutex, the control state and the images of the items changed
// since the previous delta capture, and empties the dirty list; that costs
// O(changed items), plus the control state. With all set it images every
// item instead and leaves the dirty list as it is: a full capture is a
// view, and the deltas that follow it still cover what it saw.
func (r *Replica) CaptureCheckpoint(all bool) *Checkpoint {
	r.rlockAll()
	defer r.runlockAll()
	c := r.checkpointLocked(all)
	if !all {
		for _, it := range r.dirty {
			it.SetDirty(false)
		}
		r.dirty = nil
	}
	return c
}

// checkpointLocked clones the control state plus every item's image (all)
// or the dirty items' images. Caller holds the all-shard read sweep plus
// the control mutex.
func (r *Replica) checkpointLocked(all bool) *Checkpoint {
	c := &Checkpoint{
		ID:     r.id,
		N:      r.n,
		DBVV:   r.dbvv.Clone(),
		Pruned: r.pruned.Clone(),
		Trunc:  r.trunc.Clone(),
		LogCap: r.logCap,
		Delta:  r.deltaMode,
	}
	if len(r.prunePeers) > 0 {
		c.PrunePeers = append([]int(nil), r.prunePeers...)
	}
	if len(r.acked) > 0 {
		c.Acked = make([]vv.VV, len(r.acked))
		for j, v := range r.acked {
			c.Acked[j] = v.Clone()
		}
	}
	for rec := r.aux.Head(); rec != nil; rec = rec.Next() {
		c.Aux = append(c.Aux, AuxRecord{Key: rec.Key, Pre: rec.Pre.Clone(), Op: rec.Op.Clone()})
	}
	if all {
		c.Items = make([]ItemImage, 0, r.store.Len())
		r.store.ForEach(func(it *store.Item) { c.Items = append(c.Items, imageOf(it)) })
	} else {
		c.Items = make([]ItemImage, 0, len(r.dirty))
		for _, it := range r.dirty {
			c.Items = append(c.Items, imageOf(it))
		}
		c.imaged = r.dirty
	}
	r.confMu.Lock()
	c.Conflicted = r.conflicted
	r.confMu.Unlock()
	return c
}

// imageOf clones one item's state. Caller holds the item's shard lock and
// the control mutex.
//
//epi:requires ctl read
func imageOf(it *store.Item) ItemImage {
	img := ItemImage{
		Key:   it.Key,
		Value: store.CloneBytes(it.Value),
		IVV:   it.IVV.Clone(),
	}
	if it.Aux != nil {
		img.HasAux = true
		img.AuxValue = store.CloneBytes(it.Aux.Value)
		img.AuxIVV = it.Aux.IVV.Clone()
	}
	for _, d := range it.Deltas {
		img.Deltas = append(img.Deltas, store.Delta{Op: d.Op.Clone(), Pre: d.Pre.Clone(), Origin: d.Origin})
	}
	for j, rec := range it.LogRecords() {
		if rec == nil {
			continue
		}
		if img.Seqs == nil {
			img.Seqs = make([]uint64, len(it.LogRecords()))
		}
		img.Seqs[j] = rec.Seq
	}
	return img
}

// RequeueCheckpoint puts the items a delta imaged back on the dirty list,
// for a checkpoint that could not be published: the next capture images
// them again, as they are then.
func (r *Replica) RequeueCheckpoint(c *Checkpoint) {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	for _, it := range c.imaged {
		r.markDirtyLocked(it)
	}
}

// MergeCheckpoints folds checkpoints, oldest first, into one: the control
// state and labels of the last, and for each key the image of the latest
// checkpoint holding it. Merging a base with every delta that follows it
// gives a base. The result shares the inputs' buffers.
func MergeCheckpoints(cps ...*Checkpoint) *Checkpoint {
	if len(cps) == 0 {
		return nil
	}
	last := cps[len(cps)-1]
	out := *last
	out.imaged = nil
	n := 0
	for _, c := range cps {
		n += len(c.Items)
	}
	out.Items = make([]ItemImage, 0, n)
	at := make(map[string]int, n)
	for _, c := range cps {
		for _, img := range c.Items {
			if i, ok := at[img.Key]; ok {
				out.Items[i] = img
				continue
			}
			at[img.Key] = len(out.Items)
			out.Items = append(out.Items, img)
		}
	}
	return &out
}

// RestoreCheckpoint builds a replica from a checkpoint holding every item
// (a base, or a merge of one with its deltas). Options (conflict handlers)
// apply as in NewReplica. The replica takes over c's buffers.
//
//epi:init durable recovery installs checkpoint state into an unpublished replica
func RestoreCheckpoint(c *Checkpoint, opts ...Option) (*Replica, error) {
	if c.N <= 0 || c.ID < 0 || c.ID >= c.N {
		return nil, fmt.Errorf("core: checkpoint has invalid identity %d of %d", c.ID, c.N)
	}
	if c.DBVV.Len() != c.N {
		return nil, fmt.Errorf("core: checkpoint DBVV has %d components for %d servers", c.DBVV.Len(), c.N)
	}
	if c.Trunc.Len() > c.N || c.Pruned.Len() > c.N {
		return nil, fmt.Errorf("core: checkpoint floors are longer than its %d servers", c.N)
	}

	// The replica is not yet shared, but the restore mutates both planes;
	// take the full sweep for form so the lock annotations stay honest.
	r := NewReplica(c.ID, c.N, opts...)
	r.lockAll()
	defer r.unlockAll()

	r.deltaMode = r.deltaMode || c.Delta
	r.dbvv = c.DBVV.Clone()
	// byOrigin[j] collects the live records of origin j's component.
	type entry struct {
		seq uint64
		it  *store.Item
	}
	byOrigin := make([][]entry, c.N)
	for i := range c.Items {
		img := &c.Items[i]
		if len(img.Seqs) > c.N {
			return nil, fmt.Errorf("core: checkpoint item %q has records at %d origins of %d", img.Key, len(img.Seqs), c.N)
		}
		if r.store.Get(img.Key) != nil {
			return nil, fmt.Errorf("core: checkpoint holds item %q twice", img.Key)
		}
		it := r.store.EnsureLean(img.Key, false)
		it.Value = img.Value
		it.IVV = img.IVV
		if img.HasAux {
			it.Aux = &store.AuxCopy{Value: img.AuxValue, IVV: img.AuxIVV}
		}
		it.Deltas = img.Deltas
		for j, s := range img.Seqs {
			if s > c.Trunc.Get(j) {
				byOrigin[j] = append(byOrigin[j], entry{s, it})
			}
		}
	}
	for j, recs := range byOrigin {
		sort.Slice(recs, func(a, b int) bool { return recs[a].seq < recs[b].seq })
		comp := r.logs.Component(j)
		for i, e := range recs {
			if i > 0 && e.seq == recs[i-1].seq {
				return nil, fmt.Errorf("core: checkpoint log %d holds seq %d for %q and %q", j, e.seq, recs[i-1].it.Key, e.it.Key)
			}
			comp.Append(e.it, e.seq)
		}
	}
	for _, rec := range c.Aux {
		r.aux.Append(rec.Key, rec.Pre, rec.Op)
	}
	r.pruned = c.Pruned.Clone()
	r.trunc = c.Trunc.Clone()
	r.logCap = c.LogCap
	r.confMu.Lock()
	r.conflicted = c.Conflicted
	r.confMu.Unlock()
	if len(c.PrunePeers) > 0 {
		r.prunePeers = append([]int(nil), c.PrunePeers...)
	}
	for j, v := range c.Acked {
		if v != nil && j != r.id {
			r.noteAckLocked(j, v)
		}
	}
	return r, nil
}
