package core

import (
	"repro/internal/store"
	"repro/internal/vv"
)

// OOBReply carries one data item served out-of-bound: the source's
// auxiliary copy if it has one (never older than its regular copy, §5.2),
// otherwise the regular copy. Found is false when the source has never
// seen the item, in which case the other fields are zero.
//
//epi:notshared value reply built under one shard read lock and returned to one caller
type OOBReply struct {
	Key   string
	Value []byte
	IVV   vv.VV
	Found bool
}

// WireSize estimates the reply's serialized size.
func (o OOBReply) WireSize() uint64 {
	return uint64(len(o.Key)) + uint64(len(o.Value)) + uint64(8*o.IVV.Len()) + 8
}

// ServeOOB handles an out-of-bound request for key at the source node
// (§5.2): it returns the auxiliary copy when present, else the regular
// copy, with the matching IVV. No log records travel with the reply and no
// source state changes. O(1) beyond accessing the item itself (§6) — and
// entirely inside the data plane: only the item's shard read-lock is
// taken, so serving hot items never touches the control mutex.
func (r *Replica) ServeOOB(key string) OOBReply {
	r.met.Messages.Add(1)
	r.store.RLockKey(key)
	it := r.store.Get(key)
	if it == nil {
		r.store.RUnlockKey(key)
		reply := OOBReply{Key: key}
		r.met.BytesSent.Add(reply.WireSize())
		return reply
	}
	reply := OOBReply{
		Key:   key,
		Value: store.CloneBytes(it.CurrentValue()),
		IVV:   it.CurrentIVV().Clone(),
		Found: true,
	}
	r.store.RUnlockKey(key)
	r.met.BytesSent.Add(reply.WireSize())
	return reply
}

// ApplyOOB installs an out-of-bound reply at the requesting node (§5.2).
// The received IVV is compared against the local auxiliary IVV if an
// auxiliary copy exists, else the regular IVV:
//
//   - received dominates: the data is adopted as the new auxiliary copy and
//     auxiliary IVV. The DBVV, the log vector and the auxiliary log are all
//     left untouched — out-of-bound data lives entirely in the parallel
//     auxiliary structures.
//   - received equal or dominated: the local copy is at least as new; no
//     action.
//   - concurrent: inconsistency between copies of the item is declared.
//
// It returns true when the reply was adopted. Because out-of-bound data
// lives entirely in the item's auxiliary structures, the whole operation
// holds only the item's shard write lock — the control plane is involved
// only if a conflict must be recorded.
func (r *Replica) ApplyOOB(reply OOBReply, source int) bool {
	r.met.OOBRequests.Add(1)
	if !reply.Found {
		return false
	}
	r.store.LockKey(reply.Key)
	defer r.store.UnlockKey(reply.Key)
	it := r.store.Ensure(reply.Key)
	local := it.CurrentIVV()
	r.met.IVVComparisons.Add(1)
	switch reply.IVV.Compare(local) {
	case vv.Dominates:
		it.Aux = &store.AuxCopy{
			Value: store.CloneBytes(reply.Value),
			IVV:   reply.IVV.Clone(),
		}
		if r.tracking {
			r.ctl.Lock()
			r.markDirtyLocked(it)
			r.ctl.Unlock()
		}
		r.met.OOBAdopted.Add(1)
		return true
	case vv.Concurrent:
		r.declareConflict(Conflict{
			Key:    reply.Key,
			Local:  local.Clone(),
			Remote: reply.IVV.Clone(),
			Source: source,
			Stage:  "oob",
		})
		return false
	default:
		// Equal or dominated: received data is not newer; take no action.
		return false
	}
}
