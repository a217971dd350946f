package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/auxlog"
	"repro/internal/logvec"
	"repro/internal/op"
	"repro/internal/store"
	"repro/internal/vv"
)

// Snapshot/restore of complete replica state. A replica's protocol state —
// DBVV, item IVVs, log vector, auxiliary structures — must survive restarts
// byte-exactly: a replica that forgot its version vectors would either
// re-fetch the whole database or, worse, mis-order updates. The encoding is
// gob with a versioned header, written atomically by callers (write to a
// temporary file, rename).

const (
	persistMagic = 0x45504944 // "EPID"
	// Version history: 1 = through PR 6; 2 adds the pruning state (ack
	// table, watermark, peer set, log cap). Version-1 snapshots are still
	// accepted — their pruning state is simply empty, which is safe (an
	// unknown ack pins the prune floor at zero).
	persistVersion = 2
)

//epi:notshared gob codec value assembled or decoded by one goroutine
type persistItem struct {
	Key      string
	Value    []byte
	IVV      vv.VV
	HasAux   bool
	AuxValue []byte
	AuxIVV   vv.VV

	Deltas []persistDelta
}

//epi:notshared gob codec value assembled or decoded by one goroutine
type persistDelta struct {
	Op     op.Op
	Pre    vv.VV
	Origin int
}

//epi:notshared gob codec value assembled or decoded by one goroutine
type persistLogRec struct {
	Key string
	Seq uint64
}

//epi:notshared gob codec value assembled or decoded by one goroutine
type persistAuxRec struct {
	Key string
	Pre vv.VV
	Op  op.Op
}

//epi:notshared gob codec value assembled or decoded by one goroutine
type persistState struct {
	Magic   uint32
	Version uint16
	ID      int
	N       int
	DBVV    vv.VV
	Items   []persistItem
	Logs    [][]persistLogRec // indexed by origin, oldest first
	Aux     []persistAuxRec   // global arrival order, oldest first
	Delta   bool              // record-shipping mode enabled

	// Pruning state (version >= 2): the acked-DBVV table (indexed by peer
	// id, nil = nothing learned), the pruned watermark, the configured
	// peer set and the per-component log cap. Persisting the watermark is
	// a correctness requirement, not an optimization: a restarted replica
	// that forgot its records were pruned would serve log-based sessions
	// with silent gaps.
	Acked      []vv.VV
	Pruned     vv.VV
	PrunePeers []int
	LogCap     int

	// Conflicted: a conflict was declared (Replica.conflicted). Older
	// snapshots decode it as false.
	Conflicted bool
}

// State is a captured, self-contained copy of a replica's complete
// protocol state: every buffer and vector is cloned, so encoding it
// happens entirely outside the replica's locks. The durable layer
// captures under its write-ahead ordering lock and serializes after
// releasing it, so writers pause only for the clone, not for the gob
// encode and disk I/O of a snapshot.
//
//epi:notshared captured clone owned by the snapshotting goroutine
type State struct {
	st persistState
}

// Encode serializes the captured state to w (the WriteState format).
func (s *State) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(&s.st)
}

// WriteState serializes the replica's complete protocol state to w. The
// replica remains usable; the snapshot is consistent — it is cloned under
// the all-shard read sweep plus the control mutex, so concurrent reads
// proceed and updates wait only for the clone, not for the encoding, which
// happens after the locks are released.
func (r *Replica) WriteState(w io.Writer) error {
	return r.CaptureState().Encode(w)
}

// CaptureState clones the replica's complete protocol state under the
// all-shard read sweep plus the control mutex and returns it for encoding
// outside the locks.
func (r *Replica) CaptureState() *State {
	r.rlockAll()
	st := persistState{
		Magic:   persistMagic,
		Version: persistVersion,
		ID:      r.id,
		N:       r.n,
		DBVV:    r.dbvv.Clone(),
		Logs:    make([][]persistLogRec, r.n),
		Delta:   r.deltaMode,
		Pruned:  r.pruned.Clone(),
		LogCap:  r.logCap,
	}
	if len(r.prunePeers) > 0 {
		st.PrunePeers = make([]int, len(r.prunePeers))
		copy(st.PrunePeers, r.prunePeers)
	}
	if len(r.acked) > 0 {
		st.Acked = make([]vv.VV, len(r.acked))
		for j, v := range r.acked {
			st.Acked[j] = v.Clone()
		}
	}
	r.store.ForEach(func(it *store.Item) {
		pi := persistItem{
			Key:   it.Key,
			Value: store.CloneBytes(it.Value),
			IVV:   it.IVV.Clone(),
		}
		if it.Aux != nil {
			pi.HasAux = true
			pi.AuxValue = store.CloneBytes(it.Aux.Value)
			pi.AuxIVV = it.Aux.IVV.Clone()
		}
		for _, d := range it.Deltas {
			pi.Deltas = append(pi.Deltas, persistDelta{
				Op: d.Op.Clone(), Pre: d.Pre.Clone(), Origin: d.Origin,
			})
		}
		st.Items = append(st.Items, pi)
	})
	for k := 0; k < r.n; k++ {
		comp := r.logs.Component(k)
		recs := make([]persistLogRec, 0, comp.Len())
		for rec := comp.Head(); rec != nil; rec = rec.Next() {
			recs = append(recs, persistLogRec{Key: rec.Item.Key, Seq: rec.Seq})
		}
		st.Logs[k] = recs
	}
	for rec := r.aux.Head(); rec != nil; rec = rec.Next() {
		st.Aux = append(st.Aux, persistAuxRec{Key: rec.Key, Pre: rec.Pre.Clone(), Op: rec.Op.Clone()})
	}
	r.confMu.Lock()
	st.Conflicted = r.conflicted
	r.confMu.Unlock()
	r.runlockAll()

	return &State{st: st}
}

// ReadState reconstructs a replica from a snapshot written by WriteState.
// Options (conflict handlers) are applied as in NewReplica.
//
//epi:init durable recovery installs snapshot state into an unpublished replica
func ReadState(rd io.Reader, opts ...Option) (*Replica, error) {
	var st persistState
	if err := gob.NewDecoder(rd).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if st.Magic != persistMagic {
		return nil, fmt.Errorf("core: bad snapshot magic %#x", st.Magic)
	}
	if st.Version != 1 && st.Version != persistVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", st.Version)
	}
	if st.N <= 0 || st.ID < 0 || st.ID >= st.N {
		return nil, fmt.Errorf("core: snapshot has invalid identity %d of %d", st.ID, st.N)
	}
	if len(st.Logs) != st.N {
		return nil, fmt.Errorf("core: snapshot has %d log components for %d servers", len(st.Logs), st.N)
	}

	// The replica is not yet shared, but the restore mutates both planes;
	// take the full sweep for form so the lock annotations stay honest.
	r := NewReplica(st.ID, st.N, opts...)
	r.lockAll()
	defer r.unlockAll()

	r.deltaMode = r.deltaMode || st.Delta
	r.dbvv = st.DBVV.Clone()
	if r.dbvv.Len() != st.N {
		return nil, fmt.Errorf("core: snapshot DBVV has %d components for %d servers", r.dbvv.Len(), st.N)
	}
	for _, pi := range st.Items {
		it := r.store.Ensure(pi.Key)
		it.Value = store.CloneBytes(pi.Value)
		it.IVV = pi.IVV.Clone()
		if pi.HasAux {
			it.Aux = &store.AuxCopy{
				Value: store.CloneBytes(pi.AuxValue),
				IVV:   pi.AuxIVV.Clone(),
			}
		}
		for _, d := range pi.Deltas {
			it.Deltas = append(it.Deltas, store.Delta{
				Op: d.Op.Clone(), Pre: d.Pre.Clone(), Origin: d.Origin,
			})
		}
	}
	r.logs = logvec.NewVector(st.N)
	for k, recs := range st.Logs {
		comp := r.logs.Component(k)
		for _, rec := range recs {
			it := r.store.Get(rec.Key)
			if it == nil {
				return nil, fmt.Errorf("core: snapshot log %d holds a record for %q, which it has no item for", k, rec.Key)
			}
			if t := comp.Tail(); t != nil && rec.Seq < t.Seq {
				return nil, fmt.Errorf("core: snapshot log %d is out of order at %q", k, rec.Key)
			}
			comp.Append(it, rec.Seq)
		}
	}
	r.aux = auxlog.New()
	for _, rec := range st.Aux {
		r.aux.Append(rec.Key, rec.Pre, rec.Op)
	}
	r.pruned = st.Pruned.Clone()
	r.logCap = st.LogCap
	r.confMu.Lock()
	r.conflicted = st.Conflicted
	r.confMu.Unlock()
	if len(st.PrunePeers) > 0 {
		r.prunePeers = make([]int, len(st.PrunePeers))
		copy(r.prunePeers, st.PrunePeers)
	}
	for j, v := range st.Acked {
		if v != nil && j != r.id {
			r.noteAckLocked(j, v)
		}
	}
	return r, nil
}
