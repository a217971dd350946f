// Package core implements the epidemic update-propagation protocol of
// Rabinovich, Gehani & Kononov (EDBT 1996): database version vectors
// (DBVV) over per-item version vectors (IVV), the bounded log vector, the
// SendPropagation / AcceptPropagation procedures (Figs. 2-3), intra-node
// propagation for out-of-bound data (Fig. 4), and out-of-bound copying
// itself (§5.2).
//
// A Replica is one server's state for one replicated database. All methods
// are safe for concurrent use. The runtime is split into two tiers:
//
//   - the data plane — the sharded item store (internal/store), where
//     Read/ReadIVV take only one shard read-lock and user updates on
//     different shards run in parallel;
//   - the control plane — DBVV, log vector, auxiliary log and the conflict
//     list, guarded by one short-critical-section mutex that preserves the
//     paper's atomic-node-action model (§2.1) for the protocol state.
//
// Lock order, everywhere: shard locks (ascending index) before the control
// mutex, and never two replicas' locks at once. Update propagation between
// two replicas is a three-step exchange (request, build, apply) that never
// holds two replicas' locks together, so any pairing schedule — including
// the live TCP cluster — is deadlock-free. Operations that need a
// database-wide consistent view (building a propagation, snapshots,
// invariant checks) take every shard lock plus the control mutex; because
// an update holds its shard write-lock across its control-plane tail, such
// a sweep can never observe an item IVV whose update is not yet counted in
// the DBVV. See DESIGN.md §4c.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/auxlog"
	"repro/internal/logvec"
	"repro/internal/metrics"
	"repro/internal/op"
	"repro/internal/store"
	"repro/internal/vv"
)

// Conflict describes a detected inconsistency between two replicas of a
// data item (correctness criterion 1, §2.1).
//
//epi:notshared value type handed to the conflict handler; each report is an independent copy
type Conflict struct {
	Key    string
	Local  vv.VV  // the detecting node's vector for the item
	Remote vv.VV  // the other vector involved
	Source int    // node the other copy came from (-1 for intra-node)
	Stage  string // where detected: "accept", "oob", "intra-node"
}

// String renders the conflict for logs.
func (c Conflict) String() string {
	return fmt.Sprintf("conflict on %q at stage %s: local %v vs remote %v (source %d)",
		c.Key, c.Stage, c.Local, c.Remote, c.Source)
}

// ConflictHandler is invoked, with replica locks held, whenever the
// protocol declares two copies inconsistent; it must not call back into
// the replica. The paper leaves resolution to the application (often
// manual, §2); the default handler records the conflict for retrieval via
// Conflicts.
type ConflictHandler func(Conflict)

// Option configures a Replica at construction.
type Option func(*Replica)

// WithConflictHandler installs h in place of the default conflict recorder.
//
//epi:init option closure runs inside NewReplica before the replica is published
func WithConflictHandler(h ConflictHandler) Option {
	return func(r *Replica) { r.onConflict = h }
}

// WithDeltaPropagation enables the record-shipping propagation variant the
// paper sketches as the alternative to whole-item copying (§2): each
// replica retains the most recent update to every item as a redo-able
// operation, and propagation ships that operation — typically much smaller
// than the value — whenever the recipient is exactly one update behind.
// Recipients that are further behind fetch the full copies in a second
// round (see AntiEntropy). All correctness properties are unchanged; only
// the payload representation differs.
func WithDeltaPropagation() Option { return WithDeltaPropagationDepth(1) }

// WithDeltaPropagationDepth enables record-shipping with a retained chain
// of up to depth recent updates per item: recipients up to depth updates
// behind apply the matching chain suffix instead of fetching the full
// value. Depth 1 is WithDeltaPropagation; larger depths trade a little
// memory for a higher delta hit rate under sparse gossip (experiment E11).
//
//epi:init option closure runs inside NewReplica before the replica is published
func WithDeltaPropagationDepth(depth int) Option {
	return func(r *Replica) {
		if depth < 1 {
			depth = 1
		}
		r.deltaMode = true
		r.deltaDepth = depth
	}
}

// Replica is one node's replica of the whole database plus all protocol
// state: DBVV, log vector, auxiliary log and metrics.
type Replica struct {
	id int //epi:immutable this server's identifier, 0 <= id < n

	// ctl is the control-plane mutex: it guards dbvv, logs, aux and n —
	// the small protocol state whose mutations must remain atomic node
	// actions (§2.1). Acquired after any shard locks, never before.
	ctl sync.Mutex
	// n only grows (Grow); dbvv components only advance — every write goes
	// through Inc/Extended, or AccumulateDelta which folds accepted IVV
	// entries in without ever lowering a component.
	n    int            //epi:guard ctl
	dbvv vv.VV          //epi:guard ctl //epi:monotone merge=Inc,Extended,AccumulateDelta
	logs *logvec.Vector //epi:guard ctl
	aux  *auxlog.Log    //epi:guard ctl

	// Log-pruning state (see prune.go), all ctl-guarded. acked[j] is a
	// conservative lower bound on peer j's DBVV (nil: nothing learned);
	// prunePeers is the peer set whose min ack gates pruning; logCap
	// bounds each log component regardless of acks (0 = uncapped);
	// pruned is the watermark: records at or below it may be gone.
	acked      []vv.VV //epi:guard ctl //epi:monotone merge=noteAckLocked
	prunePeers []int   //epi:guard ctl
	logCap     int     //epi:guard ctl
	pruned     vv.VV   //epi:guard ctl //epi:monotone merge=Merge,Extended

	// Reconciliation state (see reconcile.go), all ctl-guarded: sum is
	// the maintained summary of the item set, built on the replica's first
	// session and patched at session time; changed queues, once each, the
	// items whose regular copy moved since the last patch
	// (noteChangedLocked). digests counts item digests, for tests.
	sum     digestSummary //epi:guard ctl
	changed []*store.Item //epi:guard ctl
	digests atomic.Uint64 //epi:guard atomic

	// Checkpoint state (see persist.go): tracking turns the dirty list on,
	// once, before the replica is shared; dirty lists, once each, the items
	// whose image changed since the last checkpoint capture; trunc is the
	// join of every floor the log vector was truncated by.
	tracking bool          //epi:immutable
	dirty    []*store.Item //epi:guard ctl
	trunc    vv.VV         //epi:guard ctl //epi:monotone merge=Merge,Extended

	// store is the data plane: items with IVVs and aux copies, sharded by
	// key hash with per-shard RWMutexes.
	store *store.Store //epi:immutable

	// met needs no lock at all: every field is an atomic.
	met metrics.Atomic //epi:guard atomic

	// confMu is a leaf mutex guarding the conflict list and handler
	// invocation; acquired last, with shard and/or control locks held.
	confMu     sync.Mutex
	onConflict ConflictHandler //epi:guard confMu
	conflicts  []Conflict      //epi:guard confMu
	// conflicted records that a conflict was ever declared: the conflict
	// purge of Fig. 3 then suspends log coverage (§5.1), so CheckInvariants
	// stops checking it. Snapshots keep it.
	conflicted bool //epi:guard confMu

	// deltaMode enables record-shipping propagation (WithDeltaPropagation);
	// deltaDepth bounds the retained per-item delta chain. Immutable after
	// construction/restore.
	deltaMode  bool //epi:immutable
	deltaDepth int  //epi:immutable

	// alone is the in-memory peer answering for this replica as a
	// one-partition node (localReplica), made once so that in-process
	// pulls from it allocate no peer.
	alone *LocalPeer //epi:immutable
}

// NewReplica returns the initial replica state for server id of n servers:
// empty database, zero DBVV, empty logs.
func NewReplica(id, n int, opts ...Option) *Replica {
	if n <= 0 || id < 0 || id >= n {
		panic(fmt.Sprintf("core: invalid replica id %d of %d", id, n))
	}
	r := &Replica{
		id:    id,
		n:     n,
		dbvv:  vv.New(n),
		store: store.New(n),
		logs:  logvec.NewVector(n),
		aux:   auxlog.New(),
	}
	r.alone = &LocalPeer{parts: []*Replica{r}}
	for _, o := range opts {
		o(r)
	}
	if r.onConflict == nil {
		r.onConflict = func(c Conflict) { r.conflicts = append(r.conflicts, c) }
	}
	return r
}

// lockAll takes a database-wide exclusive view: every shard write lock in
// ascending order, then the control mutex. Used by the operations that
// mutate items and control state together (accepting a propagation,
// growth, restore).
func (r *Replica) lockAll() {
	r.store.LockAll()
	r.ctl.Lock()
}

func (r *Replica) unlockAll() {
	r.ctl.Unlock()
	r.store.UnlockAll()
}

// rlockAll takes a database-wide consistent read view: every shard read
// lock in ascending order, then the control mutex. Plain reads on any
// shard still proceed concurrently; updates are excluded only for the
// (brief) duration of the sweep. Used by propagation building, snapshots
// and invariant checks.
func (r *Replica) rlockAll() {
	r.store.RLockAll()
	r.ctl.Lock()
}

func (r *Replica) runlockAll() {
	r.ctl.Unlock()
	r.store.RUnlockAll()
}

// ID returns the server identifier.
func (r *Replica) ID() int { return r.id }

// Servers returns the replication factor n.
func (r *Replica) Servers() int {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	return r.n
}

// Update applies a user update to data item key (§5.3). If the item has an
// auxiliary copy the update goes to it: the operation is appended to the
// auxiliary log with the pre-update auxiliary IVV, then the auxiliary IVV's
// own component is incremented. Otherwise the update goes to the regular
// copy: the regular IVV and the DBVV own components are incremented and a
// log record (key, V_ii) is appended to L_ii.
//
// The operation is validated and applied before any state mutates: a
// rejected update leaves no phantom item behind and moves no counter. The
// item's shard is write-locked for the whole call — op.Apply runs there,
// in parallel with updates on other shards — and the control mutex is
// taken only for the short DBVV/log-append tail.
func (r *Replica) Update(key string, o op.Op) error {
	if err := o.Validate(); err != nil {
		return err
	}
	r.store.LockKey(key)
	defer r.store.UnlockKey(key)

	it := r.store.Get(key)
	if it != nil && it.Aux != nil {
		newVal, err := o.Apply(it.Aux.Value)
		if err != nil {
			return err
		}
		r.ctl.Lock()
		r.aux.Append(key, it.Aux.IVV, o)
		r.markDirtyLocked(it)
		r.ctl.Unlock()
		it.Aux.Value = newVal
		it.Aux.IVV = it.Aux.IVV.Extended(r.id + 1)
		it.Aux.IVV.Inc(r.id)
		r.met.UpdatesApplied.Add(1)
		r.met.UpdatesAuxiliary.Add(1)
		return nil
	}
	var old []byte
	if it != nil {
		old = it.Value
	}
	newVal, err := o.Apply(old)
	if err != nil {
		return err
	}
	if it == nil {
		it = r.store.Ensure(key)
	}
	if r.deltaMode {
		r.retainDelta(it, store.Delta{Op: o.Clone(), Pre: it.IVV.Clone(), Origin: r.id}, len(newVal))
	}
	it.Value = newVal
	it.IVV = it.IVV.Extended(r.id + 1)
	it.IVV.Inc(r.id)
	r.ctl.Lock()
	r.dbvv.Inc(r.id)
	r.logs.Component(r.id).Append(it, r.dbvv[r.id])
	r.noteChangedLocked(it)
	r.ctl.Unlock()
	r.met.UpdatesApplied.Add(1)
	r.met.UpdatesRegular.Add(1)
	return nil
}

// retainDelta appends one delta to the item's chain, dropping the oldest
// entries beyond the configured depth. A delta that does not link onto the
// existing chain (possible after a wholesale adoption cleared it) starts a
// fresh chain. Prefix entries that make the chain as expensive as the value
// itself (e.g. a whole-value Set) are trimmed eagerly — they could never
// ship as a delta anyway, and keeping them blocks the cheap suffix. Caller
// holds the item's shard write lock; valueLen is the post-update value size.
func (r *Replica) retainDelta(it *store.Item, d store.Delta, valueLen int) {
	if len(it.Deltas) > 0 {
		last := it.Deltas[len(it.Deltas)-1]
		if !last.Post().Equal(d.Pre) {
			it.Deltas = it.Deltas[:0]
		}
	}
	it.Deltas = append(it.Deltas, d)
	if over := len(it.Deltas) - r.deltaDepth; over > 0 {
		it.Deltas = append(it.Deltas[:0], it.Deltas[over:]...)
	}
	trimUneconomicPrefix(it, valueLen)
}

// deltaSizeFloor is the value size below which the delta-vs-full choice is
// immaterial (vector overhead dominates either way): deltas always ship and
// chains are never trimmed for economy.
const deltaSizeFloor = 64

// trimUneconomicPrefix drops chain-front deltas while the chain costs at
// least as much on the wire as the value it reconstructs, keeping at least
// one entry. Values at or below deltaSizeFloor are exempt.
func trimUneconomicPrefix(it *store.Item, valueLen int) {
	if valueLen <= deltaSizeFloor {
		return
	}
	chainBytes := 0
	for _, d := range it.Deltas {
		chainBytes += d.Op.WireSize() + 2
	}
	for len(it.Deltas) > 1 && chainBytes >= valueLen {
		chainBytes -= it.Deltas[0].Op.WireSize() + 2
		it.Deltas = append(it.Deltas[:0], it.Deltas[1:]...)
	}
}

// Read returns the value user operations observe for key — the auxiliary
// copy if one exists, else the regular copy — and whether the item exists
// at this replica. The returned slice is an independent copy. Only the
// item's shard read-lock is taken: reads never contend with the control
// plane or with activity on other shards.
func (r *Replica) Read(key string) ([]byte, bool) {
	r.store.RLockKey(key)
	defer r.store.RUnlockKey(key)
	it := r.store.Get(key)
	if it == nil {
		return nil, false
	}
	return store.CloneBytes(it.CurrentValue()), true
}

// ReadIVV returns the version vector matching Read's value.
func (r *Replica) ReadIVV(key string) (vv.VV, bool) {
	r.store.RLockKey(key)
	defer r.store.RUnlockKey(key)
	it := r.store.Get(key)
	if it == nil {
		return nil, false
	}
	return it.CurrentIVV().Clone(), true
}

// DBVV returns a copy of the database version vector V_i.
func (r *Replica) DBVV() vv.VV {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	return r.dbvv.Clone()
}

// Metrics returns a snapshot of the replica's overhead counters. The
// LogRecords gauge is refreshed from the live log vector at snapshot time,
// so observers always see the current length without the mutating paths
// having to maintain it.
func (r *Replica) Metrics() metrics.Counters {
	r.met.LogRecords.Store(uint64(r.LogRecords()))
	return r.met.Snapshot()
}

// AddWireStats charges measured transport traffic to the replica's
// counters: actual bytes that crossed a socket (metered by the TCP
// transport's counting reader/writer wrappers) plus connection dial/reuse
// outcomes. Unlike BytesSent, which is a protocol-shape estimate, these
// report ground truth for TCP deployments; see metrics.Counters.
func (r *Replica) AddWireStats(sent, recv, dials, reused uint64) {
	r.met.WireBytesSent.Add(sent)
	r.met.WireBytesRecv.Add(recv)
	r.met.Dials.Add(dials)
	r.met.ConnsReused.Add(reused)
}

// ResetMetrics zeroes the replica's overhead counters.
func (r *Replica) ResetMetrics() {
	r.met.Reset()
}

// Conflicts returns the conflicts recorded by the default handler.
func (r *Replica) Conflicts() []Conflict {
	r.confMu.Lock()
	defer r.confMu.Unlock()
	out := make([]Conflict, len(r.conflicts))
	copy(out, r.conflicts)
	return out
}

// Items returns the number of data items present at this replica.
func (r *Replica) Items() int {
	n := 0
	r.store.ForEachShard(func(items map[string]*store.Item) { n += len(items) })
	return n
}

// LogRecords returns the total number of regular log records held — bounded
// by n·N regardless of update volume (§4.2).
func (r *Replica) LogRecords() int {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	return r.logs.Len()
}

// LogComponentLens returns the per-origin log component lengths, indexed by
// origin id. Inspection surface (shell `log` command).
func (r *Replica) LogComponentLens() []int {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	out := make([]int, r.n)
	for k := 0; k < r.n; k++ {
		out[k] = r.logs.Component(k).Len()
	}
	return out
}

// AuxRecords returns the number of auxiliary log records pending replay.
func (r *Replica) AuxRecords() int {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	return r.aux.Len()
}

// AuxCopies returns the number of items currently holding auxiliary copies.
func (r *Replica) AuxCopies() int {
	n := 0
	r.store.ForEachShard(func(items map[string]*store.Item) {
		for _, it := range items {
			if it.Aux != nil {
				n++
			}
		}
	})
	return n
}

// declareConflict records a conflict and invokes the handler. Callers hold
// the affected item's shard lock and/or the control mutex; confMu is the
// leaf that makes the list itself safe from either path.
func (r *Replica) declareConflict(c Conflict) {
	r.met.ConflictsDetected.Add(1)
	r.confMu.Lock()
	r.conflicted = true
	r.onConflict(c)
	r.confMu.Unlock()
}
