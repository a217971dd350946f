package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/store"
	"repro/internal/vv"
)

// ItemState is a point-in-time copy of one data item's replica state, for
// tests, tools and the simulator.
//
//epi:notshared value type inside a Snapshot; deep-copied from the store
type ItemState struct {
	Key      string
	Value    []byte
	IVV      vv.VV
	HasAux   bool
	AuxValue []byte
	AuxIVV   vv.VV
}

// Snapshot is a deep copy of a replica's externally observable state.
//
//epi:notshared value snapshot built under the full read sweep and returned to one caller
type Snapshot struct {
	ID         int
	DBVV       vv.VV
	Items      []ItemState // sorted by key
	LogRecords int
	AuxRecords int
}

// Snapshot captures the replica's current state, cloned under the
// all-shard read sweep plus the control mutex for a consistent cut.
func (r *Replica) Snapshot() Snapshot {
	r.rlockAll()
	defer r.runlockAll()
	return r.snapshotLocked()
}

// snapshotLocked clones the replica's state. Caller holds at least the
// all-shard read sweep plus the control mutex (Partitioned.Snapshot holds
// the sweep for several partition replicas at once, ascending by pid).
func (r *Replica) snapshotLocked() Snapshot {
	s := Snapshot{
		ID:         r.id,
		DBVV:       r.dbvv.Clone(),
		LogRecords: r.logs.Len(),
		AuxRecords: r.aux.Len(),
	}
	r.store.ForEach(func(it *store.Item) {
		is := ItemState{
			Key:   it.Key,
			Value: store.CloneBytes(it.Value),
			IVV:   it.IVV.Clone(),
		}
		if it.Aux != nil {
			is.HasAux = true
			is.AuxValue = store.CloneBytes(it.Aux.Value)
			is.AuxIVV = it.Aux.IVV.Clone()
		}
		s.Items = append(s.Items, is)
	})
	sort.Slice(s.Items, func(i, j int) bool { return s.Items[i].Key < s.Items[j].Key })
	return s
}

// ItemIVV returns the regular copy's version vector for key. It implements
// history.Inspector for the test oracle.
func (r *Replica) ItemIVV(key string) (vv.VV, bool) {
	r.store.RLockKey(key)
	defer r.store.RUnlockKey(key)
	it := r.store.Get(key)
	if it == nil {
		return nil, false
	}
	return it.IVV.Clone(), true
}

// ItemValue returns the regular copy's value for key (unlike Read, it never
// consults the auxiliary copy). It implements history.Inspector.
func (r *Replica) ItemValue(key string) ([]byte, bool) {
	r.store.RLockKey(key)
	defer r.store.RUnlockKey(key)
	it := r.store.Get(key)
	if it == nil {
		return nil, false
	}
	return store.CloneBytes(it.Value), true
}

// CheckInvariants verifies the replica's structural and protocol
// invariants. It is the oracle the test suite and simulator rely on:
//
//  1. DBVV accounting: V_i equals the component-wise sum of all item IVVs —
//     the property that makes DBVV comparison equivalent to comparing every
//     item at once (§4.1).
//  2. Log structure: every component is a well-formed list sorted by
//     sequence number, and the per-item pointers P_j(x) are exact both
//     ways: every record's item points back at it, every pointer an item
//     holds names a record linked in that origin's component, and each
//     component holds as many records as its origin has pointers
//     (§4.2, Fig. 1).
//  3. Log coverage: the newest record in L_ik has Seq <= V_i[k] — the node
//     never logs an update it has not counted.
//  4. IsSelected flags are all clear outside SendPropagation (§6).
//  5. Auxiliary log structure is well-formed, and every auxiliary record
//     refers to an item that still has an auxiliary copy.
//
// Under 2 it also checks that every record lies above its component's
// truncation floor, which checkpoint restore relies on.
func (r *Replica) CheckInvariants() error {
	r.rlockAll()
	defer r.runlockAll()

	// 1. DBVV == sum of item IVVs.
	sum := vv.New(r.n)
	selectedLeak := ""
	staleDelta := ""
	var badPointer error
	pointers := make([]int, r.n)
	r.store.ForEach(func(it *store.Item) {
		for j, rec := range it.LogRecords() {
			switch {
			case rec == nil:
			case badPointer != nil:
			case j >= r.n || rec.Item != it || !r.logs.Component(j).Holds(rec):
				badPointer = fmt.Errorf("core: node %d: P_%d pointer of %q names no record of its own in log %d", r.id, j, it.Key, j)
			default:
				pointers[j]++
			}
		}
		for l := 0; l < r.n; l++ {
			sum[l] += it.IVV.Get(l)
		}
		if it.Selected() {
			selectedLeak = it.Key
		}
		if len(it.Deltas) > 0 && !store.ChainValid(it.Deltas, it.IVV) {
			staleDelta = it.Key
		}
	})
	if staleDelta != "" {
		return fmt.Errorf("core: node %d retains a stale delta chain for %q", r.id, staleDelta)
	}
	if !sum.Equal(r.dbvv) {
		return fmt.Errorf("core: node %d DBVV %v != sum of item IVVs %v", r.id, r.dbvv, sum)
	}
	if selectedLeak != "" {
		return fmt.Errorf("core: node %d leaked IsSelected flag on %q", r.id, selectedLeak)
	}

	// 2 + 3. Log structure and coverage.
	if err := r.logs.CheckInvariants(); err != nil {
		return fmt.Errorf("core: node %d: %w", r.id, err)
	}
	if badPointer != nil {
		return badPointer
	}
	for j, n := range pointers {
		comp := r.logs.Component(j)
		if comp.Len() != n {
			return fmt.Errorf("core: node %d log %d holds %d records for %d item pointers", r.id, j, comp.Len(), n)
		}
		for rec := comp.Head(); rec != nil; rec = rec.Next() {
			if r.store.Get(rec.Item.Key) != rec.Item {
				return fmt.Errorf("core: node %d log %d names an item %q the store does not hold", r.id, j, rec.Item.Key)
			}
		}
		// Checkpoint restore re-links exactly the seqs above the floor.
		if head := comp.Head(); head != nil && head.Seq <= r.trunc.Get(j) {
			return fmt.Errorf("core: node %d log %d holds seq %d at or below its truncation floor %d", r.id, j, head.Seq, r.trunc.Get(j))
		}
	}
	// Log coverage holds only while no conflict has been declared: the
	// conflict purge of Fig. 3 suspends the guarantee for the affected
	// items until manual resolution (§5.1).
	r.confMu.Lock()
	conflicted := r.conflicted
	r.confMu.Unlock()
	if !conflicted {
		for k := 0; k < r.n; k++ {
			if tail := r.logs.Component(k).Tail(); tail != nil && tail.Seq > r.dbvv[k] {
				return fmt.Errorf("core: node %d log[%d] tail seq %d exceeds DBVV %d",
					r.id, k, tail.Seq, r.dbvv[k])
			}
		}
	}

	// 5. Auxiliary log.
	if err := r.aux.CheckInvariants(); err != nil {
		return fmt.Errorf("core: node %d: %w", r.id, err)
	}
	for rec := r.aux.Head(); rec != nil; rec = rec.Next() {
		it := r.store.Get(rec.Key)
		if it == nil || it.Aux == nil {
			return fmt.Errorf("core: node %d aux record for %q without auxiliary copy", r.id, rec.Key)
		}
	}
	return nil
}

// Equivalent reports whether two snapshots describe identical database
// replicas: equal DBVVs and, for every item, equal regular values and IVVs.
// Auxiliary state is ignored — convergence is a property of regular copies.
func (a Snapshot) Equivalent(b Snapshot) (bool, string) {
	if !a.DBVV.Equal(b.DBVV) {
		return false, fmt.Sprintf("DBVV differ: node %d %v vs node %d %v", a.ID, a.DBVV, b.ID, b.DBVV)
	}
	// Items materialize lazily; an item absent on one side must be in the
	// initial (zero) state on the other.
	ai, bi := indexItems(a.Items), indexItems(b.Items)
	for key, x := range ai {
		y, ok := bi[key]
		if !ok {
			if x.IVV.Sum() != 0 || len(x.Value) != 0 {
				return false, fmt.Sprintf("item %q present only at node %d", key, a.ID)
			}
			continue
		}
		if !x.IVV.Equal(y.IVV) {
			return false, fmt.Sprintf("item %q IVV differ: %v vs %v", key, x.IVV, y.IVV)
		}
		if !bytes.Equal(x.Value, y.Value) {
			return false, fmt.Sprintf("item %q values differ: %q vs %q", key, x.Value, y.Value)
		}
	}
	for key, y := range bi {
		if _, ok := ai[key]; !ok && (y.IVV.Sum() != 0 || len(y.Value) != 0) {
			return false, fmt.Sprintf("item %q present only at node %d", key, b.ID)
		}
	}
	return true, ""
}

func indexItems(items []ItemState) map[string]ItemState {
	m := make(map[string]ItemState, len(items))
	for _, it := range items {
		m[it.Key] = it
	}
	return m
}

// Converged reports whether all replicas are pairwise equivalent; on
// failure it describes the first difference found.
func Converged(replicas ...*Replica) (bool, string) {
	if len(replicas) < 2 {
		return true, ""
	}
	first := replicas[0].Snapshot()
	for _, r := range replicas[1:] {
		if ok, why := first.Equivalent(r.Snapshot()); !ok {
			return false, why
		}
	}
	return true, ""
}

// CheckpointDiff describes the first difference between two full
// checkpoints, or returns "" when they hold the same replica state. Item
// order and the representation of nothing (an empty value, a missing
// trailing vector component or log seq) do not count. It sorts both
// checkpoints' items. For tests, which compare a restored replica with
// the one it was checkpointed from.
func CheckpointDiff(a, b *Checkpoint) string {
	sortImages := func(c *Checkpoint) {
		sort.Slice(c.Items, func(i, j int) bool { return c.Items[i].Key < c.Items[j].Key })
	}
	sortImages(a)
	sortImages(b)
	if len(a.Items) != len(b.Items) {
		return fmt.Sprintf("%d items vs %d", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		x, y := a.Items[i], b.Items[i]
		if x.Key != y.Key || !bytes.Equal(x.Value, y.Value) || !x.IVV.Equal(y.IVV) ||
			x.HasAux != y.HasAux || !bytes.Equal(x.AuxValue, y.AuxValue) || !x.AuxIVV.Equal(y.AuxIVV) ||
			!vv.VV(x.Seqs).Equal(vv.VV(y.Seqs)) || !reflect.DeepEqual(x.Deltas, y.Deltas) {
			return fmt.Sprintf("item %+v vs %+v", x, y)
		}
	}
	if len(a.Acked) != len(b.Acked) {
		return fmt.Sprintf("ack tables %v vs %v", a.Acked, b.Acked)
	}
	for j := range a.Acked {
		if !a.Acked[j].Equal(b.Acked[j]) {
			return fmt.Sprintf("ack tables %v vs %v", a.Acked, b.Acked)
		}
	}
	switch {
	case !a.DBVV.Equal(b.DBVV):
		return fmt.Sprintf("DBVVs %v vs %v", a.DBVV, b.DBVV)
	case !a.Pruned.Equal(b.Pruned):
		return fmt.Sprintf("watermarks %v vs %v", a.Pruned, b.Pruned)
	case !a.Trunc.Equal(b.Trunc):
		return fmt.Sprintf("truncation floors %v vs %v", a.Trunc, b.Trunc)
	}
	ca, cb := *a, *b
	for _, c := range []*Checkpoint{&ca, &cb} {
		c.Items, c.Acked, c.DBVV, c.Pruned, c.Trunc, c.imaged = nil, nil, nil, nil, nil, nil
	}
	if !reflect.DeepEqual(ca, cb) {
		return fmt.Sprintf("control state %+v vs %+v", ca, cb)
	}
	return ""
}
