// Package store implements a node's local database replica: a collection of
// named data items, each carrying its item version vector (IVV), the
// IsSelected flag used by SendPropagation's O(m) item-set computation (§6),
// its P_j(x) pointers into the log vector (§4.2, Fig. 1; the record type,
// LogRecord, is declared here beside it), and — when the item has been
// copied out-of-bound — a parallel auxiliary copy with its own auxiliary
// IVV (§4.3).
//
// The store is the replica's *data plane*: items live in a fixed number of
// key-hashed shards, each guarded by its own RWMutex, so reads and updates
// on different shards proceed in parallel. The store exposes the locks but
// never takes them on the caller's behalf: accessors (Get, Ensure, ForEach,
// …) require the caller to hold the appropriate shard lock(s). The owning
// replica (internal/core) combines shard locks with its control-plane mutex
// under a fixed order — shard locks (ascending index) before the control
// mutex — documented in DESIGN.md §4c.
package store

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/op"
	"repro/internal/ring"
	"repro/internal/vv"
)

// AuxCopy is the parallel copy of an out-of-bound data item (§4.3). It has
// its own value and version vector; user operations and out-of-bound
// requests are served from it while the regular copy continues to take part
// in scheduled update propagation.
type AuxCopy struct {
	Value []byte //epi:guard mu
	IVV   vv.VV  //epi:guard mu
}

// Delta retains the single most recent update to an item's regular copy as
// a redo-able operation, for the record-shipping propagation variant the
// paper sketches as the alternative to whole-item copying (§2, "obtaining
// and applying log records for missing updates" — the Oracle approach). A
// retained delta is valid only while the item's IVV is exactly Pre plus one
// update by Origin; any other IVV movement (full adoption, further local
// update) replaces or clears it.
//
// the shard lock; payload chains carry independent copies
//
//epi:notshared value type: the store keeps deltas behind Item.Deltas under
type Delta struct {
	Op     op.Op
	Pre    vv.VV // IVV immediately before the update
	Origin int   // server that performed the update
}

// Valid reports whether the delta still describes the transition into ivv.
func (d *Delta) Valid(ivv vv.VV) bool {
	if d == nil {
		return false
	}
	expected := d.Pre.Clone()
	expected = expected.Extended(d.Origin + 1)
	expected.Inc(d.Origin)
	return expected.Equal(ivv)
}

// Post returns the vector the delta transitions into: Pre plus one update
// by Origin.
func (d Delta) Post() vv.VV {
	p := d.Pre.Clone()
	p = p.Extended(d.Origin + 1)
	p.Inc(d.Origin)
	return p
}

// ChainValid reports whether a delta chain is well-linked (each delta's Pre
// is its predecessor's Post) and ends exactly at ivv.
func ChainValid(chain []Delta, ivv vv.VV) bool {
	if len(chain) == 0 {
		return false
	}
	state := chain[0].Pre.Clone()
	for _, d := range chain {
		if !d.Pre.Equal(state) {
			return false
		}
		state = state.Extended(d.Origin + 1)
		state.Inc(d.Origin)
	}
	return state.Equal(ivv)
}

// Item is a single data item replica: the regular copy with its IVV, plus
// an optional auxiliary copy. The selected flag implements the paper's
// IsSelected bit; it is owned by SendPropagation and is always false
// outside that procedure.
//
// Item fields are protected by the item's shard lock: every mutation holds
// the shard write lock, every read at least the shard read lock.
type Item struct {
	Key   string //epi:immutable
	Value []byte //epi:guard mu
	IVV   vv.VV  //epi:guard mu

	// Aux is non-nil while the item has an out-of-bound auxiliary copy.
	Aux *AuxCopy //epi:guard mu

	// Deltas, when non-empty and chain-valid, retains the most recent
	// updates (oldest first, bounded by the replica's configured depth) for
	// the record-shipping propagation variant.
	Deltas []Delta //epi:guard mu

	// selected is serialized by the replica's control mutex, not the shard
	// lock: BuildPropagation flips it while holding only READ shard locks
	// (rlockAll), and concurrent builders are kept apart by ctl alone.
	selected bool //epi:guard ctl

	// queued marks an item on the replica's changed-item queue; like
	// selected it is serialized by the control mutex, and it keeps the
	// queue free of duplicates.
	queued bool //epi:guard ctl

	// dirty marks an item on the replica's checkpoint list: its image
	// changed since the last checkpoint. Serialized by the control mutex
	// like queued, and for the same reason.
	dirty bool //epi:guard ctl

	// slot is the item's 1-based position in the replica's reconcile
	// digest slab, 0 while it has none; serialized by the control mutex.
	slot int32 //epi:guard ctl

	// recs holds the paper's P_j(x) pointers: recs[j] is the item's live
	// record in origin j's log component, nil when it has none. Like
	// queued it is written under the item's shard write lock plus the
	// control mutex (pruning, which holds only the latter, clears
	// entries), and it grows to cover origin j on the item's first record
	// there.
	recs []*LogRecord //epi:guard ctl
}

// Selected reports the IsSelected flag.
//
//epi:requires ctl read
func (it *Item) Selected() bool { return it.selected }

// SetSelected sets the IsSelected flag.
//
//epi:requires ctl
func (it *Item) SetSelected(v bool) { it.selected = v }

// Queued reports whether the item is on the changed-item queue.
//
//epi:requires ctl read
func (it *Item) Queued() bool { return it.queued }

// SetQueued sets the changed-item queue flag.
//
//epi:requires ctl
func (it *Item) SetQueued(v bool) { it.queued = v }

// Dirty reports whether the item is on the checkpoint list.
//
//epi:requires ctl read
func (it *Item) Dirty() bool { return it.dirty }

// SetDirty sets the checkpoint list flag.
//
//epi:requires ctl
func (it *Item) SetDirty(v bool) { it.dirty = v }

// Slot returns the item's 1-based reconcile slab position (0: none).
//
//epi:requires ctl read
func (it *Item) Slot() int32 { return it.slot }

// SetSlot records the item's 1-based reconcile slab position.
//
//epi:requires ctl
func (it *Item) SetSlot(s int32) { it.slot = s }

// LogRecord returns P_j(x): the item's live record in origin j's log
// component, or nil.
//
//epi:requires ctl read
func (it *Item) LogRecord(j int) *LogRecord {
	if j < len(it.recs) {
		return it.recs[j]
	}
	return nil
}

// LogRecords returns the item's P_j(x) pointers indexed by origin j,
// possibly shorter than the server count (missing origins hold no
// record). The slice is the item's own; callers only read it.
//
//epi:requires ctl read
func (it *Item) LogRecords() []*LogRecord { return it.recs }

// SetLogRecord repoints P_j(x) at rec (nil: the item has no record at
// origin j). The pointers grow to cover j on the first record there.
//
//epi:requires ctl
func (it *Item) SetLogRecord(j int, rec *LogRecord) {
	if j >= len(it.recs) {
		if rec == nil {
			return
		}
		recs := make([]*LogRecord, j+1)
		copy(recs, it.recs)
		it.recs = recs
	}
	it.recs[j] = rec
}

// CurrentValue returns the value user operations observe: the auxiliary
// copy if one exists, else the regular copy (§5.3).
//
//epi:requires mu read
func (it *Item) CurrentValue() []byte {
	if it.Aux != nil {
		return it.Aux.Value
	}
	return it.Value
}

// CurrentIVV returns the version vector matching CurrentValue. The
// returned vector is the item's live state, not a copy: callers run under
// the item's shard lock and must Clone() before the lock is released
// (every current caller does — see core/oob.go). The //epi:requires
// contract below is what licenses the live view: vvalias exempts
// lock-contract accessors because the guarded analyzer proves every
// caller actually holds the shard lock here.
//
//epi:requires mu read
func (it *Item) CurrentIVV() vv.VV {
	if it.Aux != nil {
		return it.Aux.IVV
	}
	return it.IVV
}

// ShardCount is the number of key-hashed shards per store. A fixed power of
// two: enough to spread a handful of writer goroutines plus the read load
// of many more, small enough that the all-shard lock sweeps used by
// snapshots and anti-entropy commits stay cheap.
const ShardCount = 32

type shard struct {
	mu    sync.RWMutex
	items map[string]*Item //epi:guard mu
}

// Store is one node's replica of the whole database, sharded by key hash.
type Store struct {
	// n is the number of servers replicating the database. Written only
	// under all shard write locks (Grow); read under any shard lock.
	n      int               //epi:guard mu
	shards [ShardCount]shard //epi:immutable
}

// New returns an empty store for a database replicated across n servers.
func New(n int) *Store {
	s := &Store{n: n}
	for i := range s.shards {
		s.shards[i].items = make(map[string]*Item)
	}
	return s
}

// shardOf hashes key to its shard. The hash is the same FNV-1a the
// keyspace-partition ring uses (internal/ring): the shard index takes its
// low bits, the partition range its high bits, so a partitioned store's
// items still stripe across all shards and both mappings cost one hash.
func (s *Store) shardOf(key string) *shard {
	return &s.shards[ring.Hash64(key)&(ShardCount-1)]
}

// RLockKey / RUnlockKey take and release the read lock of key's shard.
func (s *Store) RLockKey(key string)   { s.shardOf(key).mu.RLock() }
func (s *Store) RUnlockKey(key string) { s.shardOf(key).mu.RUnlock() }

// LockKey / UnlockKey take and release the write lock of key's shard.
func (s *Store) LockKey(key string)   { s.shardOf(key).mu.Lock() }
func (s *Store) UnlockKey(key string) { s.shardOf(key).mu.Unlock() }

// RLockAll takes every shard read lock in ascending index order — the
// store-wide prefix of the replica's lock order. Reads on any shard still
// proceed concurrently; writes are excluded until RUnlockAll.
func (s *Store) RLockAll() {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
}

// RUnlockAll releases every shard read lock.
func (s *Store) RUnlockAll() {
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
}

// LockAll takes every shard write lock in ascending index order.
func (s *Store) LockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

// UnlockAll releases every shard write lock.
func (s *Store) UnlockAll() {
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// Servers returns the number of servers n the store was created for.
// Caller holds at least one shard lock (or owns the store exclusively).
//
//epi:requires mu read
func (s *Store) Servers() int { return s.n }

// Grow raises the server count; newly created items get version vectors of
// the new length. Existing items keep their shorter vectors (missing
// components are implicitly zero). Caller holds all shard write locks.
//
//epi:requires mu
func (s *Store) Grow(n int) {
	if n > s.n {
		s.n = n
	}
}

// Len returns the number of data items present. Caller holds all shard
// locks (read suffices).
//
//epi:requires mu read
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].items)
	}
	return n
}

// Get returns the item for key, or nil if the store has never seen it.
// Caller holds key's shard lock (read suffices).
//
//epi:requires mu read
func (s *Store) Get(key string) *Item { return s.shardOf(key).items[key] }

// Ensure returns the item for key, creating a fresh zero-valued item (empty
// value, zero IVV) if it does not exist yet. The paper's model has a fixed
// item universe; items materialize on first touch with the initial state
// every node agrees on. Caller holds key's shard write lock.
//
//epi:requires mu
func (s *Store) Ensure(key string) *Item {
	sh := s.shardOf(key)
	if it, ok := sh.items[key]; ok {
		return it
	}
	it := &Item{Key: key, Value: []byte{}, IVV: vv.New(s.n)}
	sh.items[key] = it
	return it
}

// EnsureLean is Ensure for the session-apply hot path: a fresh item is
// created with nil value and nil IVV — indistinguishable from the
// zero-valued item under version-vector comparison (a nil vector reads as
// all-zeros) but free of the fresh-IVV allocation that adopting a shipped
// copy would immediately discard. With clone set, a fresh item takes its
// own copy of key, which is then a slice of a whole decoded frame the
// item must not keep alive. Caller holds key's shard write lock.
//
//epi:requires mu
func (s *Store) EnsureLean(key string, clone bool) *Item {
	sh := s.shardOf(key)
	if it, ok := sh.items[key]; ok {
		return it
	}
	if clone {
		key = strings.Clone(key)
	}
	it := &Item{Key: key}
	sh.items[key] = it
	return it
}

// Keys returns all item keys in sorted order. Intended for tests, snapshots
// and tools — not used on protocol hot paths. Caller holds all shard locks
// (read suffices).
//
//epi:requires mu read
func (s *Store) Keys() []string {
	keys := make([]string, 0, s.Len())
	for i := range s.shards {
		for k := range s.shards[i].items {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// ForEach calls fn for every item in unspecified order. Mutating the item
// is allowed when the caller holds the shard write locks; adding or
// removing items is not. Caller holds all shard locks.
//
//epi:requires mu read
func (s *Store) ForEach(fn func(*Item)) {
	for i := range s.shards {
		for _, it := range s.shards[i].items {
			fn(it)
		}
	}
}

// ForEachShard calls fn once per shard, with that shard's read lock held,
// passing the shard's items. Unlike ForEach it takes the locks itself, one
// shard at a time, so concurrent writers to other shards are not blocked;
// the view is per-shard consistent, not store-wide consistent. fn must not
// mutate.
func (s *Store) ForEachShard(fn func(items map[string]*Item)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		fn(sh.items)
		sh.mu.RUnlock()
	}
}

// AuxCount returns the number of items currently holding auxiliary copies.
// Caller holds all shard locks (read suffices).
//
//epi:requires mu read
func (s *Store) AuxCount() int {
	n := 0
	for i := range s.shards {
		for _, it := range s.shards[i].items {
			if it.Aux != nil {
				n++
			}
		}
	}
	return n
}

// CloneBytes returns an independent copy of b, normalizing nil to an empty
// slice. Item values are always owned by their store; every value that
// crosses a node boundary is cloned with this helper.
func CloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
