package core

// Log pruning: bounding the log vector with a per-peer acked-DBVV table.
//
// The paper's log vector is already bounded by one record per item-origin
// pair (n·N), but never garbage-collected: a record (x, m) in L_ik lives
// until a newer update to x by k supersedes it, so a cold item's record is
// immortal and steady-state memory grows with the database. The paper notes
// (§4.2) that a record can be discarded once *all* servers are known to have
// received the update it registers; this file implements that rule as a
// min-acked watermark.
//
// Each replica maintains acked[j], a conservative lower bound on peer j's
// true DBVV, learned from completed propagation sessions in both pull
// directions:
//
//   - serving a pull: the request carries the recipient's exact DBVV
//     (NoteAck) — an exact bound;
//   - completing a pull: each non-empty record tail the source shipped ends
//     at the source's own DBVV component for that origin, so the recipient
//     merges the per-origin tail maxima (NoteSessionAck) — a lower bound.
//     Empty tails and "you-are-current" replies teach nothing (the source's
//     component may be anywhere at or below the recipient's) and are never
//     merged.
//
// A prune pass computes floor[k] = min over configured peers j of
// acked[j][k] (clamped to the replica's own DBVV) and drops every record
// with Seq <= floor[k] via logvec.TruncateBefore. Safety: a dropped record
// registers an update every configured peer already reflects, so no future
// propagation session with any of them can need it. The watermark `pruned`
// — the join of all floors ever truncated by — is exposed via PrunedBefore;
// a pull request whose DBVV predates it (NeedsReconcile) cannot be served
// from the log and is diverted to set reconciliation (see reconcile.go).
//
// Racing prune against an in-flight build is safe without extra locking:
// the prune floor never exceeds acked[recipient], which is at most the
// DBVV the recipient claimed when that session was requested, and the
// recipient's pre-session DBVV filter (applySessionLocked) skips every
// record at or below that claim anyway — so a record pruned mid-session
// was one the session's recipient would have discarded.
//
// An offline peer never advances its ack, so min-acked pruning alone would
// stall forever — correct but unbounded. An optional per-component log cap
// (SetLogCap) forces the floor past laggard acks whenever a component
// exceeds the cap, keeping the log bounded at the price of sending the
// laggard through reconciliation when it returns. This is the knob that
// gives long-running nodes bounded memory.

import (
	"repro/internal/vv"
)

// ConfigurePruning sets the peer set whose acknowledgements gate log
// pruning, replacing any previous set. Peers are server ids; the replica's
// own id is ignored (a replica trivially acks itself). An empty set
// disables min-acked pruning (only the log cap, if any, prunes).
func (r *Replica) ConfigurePruning(peers []int) {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	r.prunePeers = r.prunePeers[:0]
	for _, j := range peers {
		if j != r.id && j >= 0 {
			r.prunePeers = append(r.prunePeers, j)
		}
	}
}

// SetLogCap bounds each per-origin log component to at most n records:
// when a prune pass finds a component longer, the floor advances past the
// oldest records regardless of peer acknowledgements, raising the pruned
// watermark. Peers whose acks lag behind the raised watermark catch up via
// set reconciliation instead of the log. Zero (the default) disables the
// cap.
func (r *Replica) SetLogCap(n int) {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	if n < 0 {
		n = 0
	}
	r.logCap = n
}

// LogCap returns the per-component record cap (0 = uncapped).
func (r *Replica) LogCap() int {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	return r.logCap
}

// PrunePeers returns the configured pruning peer set (nil when pruning is
// not configured).
func (r *Replica) PrunePeers() []int {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	if r.prunePeers == nil {
		return nil
	}
	out := make([]int, len(r.prunePeers))
	copy(out, r.prunePeers)
	return out
}

// NoteAck records that peer j's DBVV is at least v — called by every serve
// path with the DBVV a pull request carried. Monotone: components only
// ever rise. Charges no metrics (the reconcile-free paths must keep their
// exact message counts).
func (r *Replica) NoteAck(j int, v vv.VV) {
	if j < 0 || j == r.id || v == nil {
		return
	}
	r.ctl.Lock()
	defer r.ctl.Unlock()
	r.noteAckLocked(j, v)
}

// noteAckLocked merges v into acked[j]. Caller holds the control mutex.
func (r *Replica) noteAckLocked(j int, v vv.VV) {
	for len(r.acked) <= j {
		r.acked = append(r.acked, nil)
	}
	if r.acked[j] == nil {
		c := v.Clone()
		c = c.Extended(r.n)
		r.acked[j] = c
		return
	}
	r.acked[j] = r.acked[j].Extended(v.Len())
	r.acked[j].Merge(v)
}

// NoteSessionAck records what a completed pull taught this replica about
// the source's DBVV: every non-empty record tail in p ends at the source's
// own component for that origin, so the per-origin tail maxima are a safe
// lower bound. Call after applying a propagation or chunk from source; nil
// propagations (you-are-current) teach nothing and are ignored.
func (r *Replica) NoteSessionAck(source int, p *Propagation) {
	if p == nil || source < 0 || source == r.id {
		return
	}
	var seen vv.VV
	for k, tail := range p.Tails {
		if len(tail) == 0 {
			continue
		}
		if seen == nil {
			seen = vv.New(len(p.Tails))
		}
		seen[k] = tail[len(tail)-1].Seq
	}
	if seen == nil {
		return
	}
	r.ctl.Lock()
	defer r.ctl.Unlock()
	r.noteAckLocked(source, seen)
}

// AckedPeer returns the acked-DBVV lower bound held for peer j, or nil when
// nothing has been learned yet.
func (r *Replica) AckedPeer(j int) vv.VV {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	if j < 0 || j >= len(r.acked) || r.acked[j] == nil {
		return nil
	}
	return r.acked[j].Clone()
}

// AckTable returns the whole acked-DBVV table, indexed by peer id (nil
// entries: nothing learned). Used by persistence and the shell.
func (r *Replica) AckTable() []vv.VV {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	out := make([]vv.VV, len(r.acked))
	for j, v := range r.acked {
		out[j] = v.Clone()
	}
	return out
}

// RestoreAcks merges a previously saved ack table (durable recovery). Safe
// to call on a replica that has since learned more: merging keeps the
// maximum per component.
func (r *Replica) RestoreAcks(table []vv.VV) {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	for j, v := range table {
		if v != nil && j != r.id {
			r.noteAckLocked(j, v)
		}
	}
}

// PrunedBefore returns the pruning watermark: records with Seq <= the
// returned vector's component may have been dropped from the corresponding
// log component. A pull request whose DBVV predates this watermark cannot
// be answered from the log (see NeedsReconcile).
func (r *Replica) PrunedBefore() vv.VV {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	return r.pruned.Clone()
}

// NeedsReconcile reports whether a pull request carrying DBVV v predates
// the pruned watermark: some component of v sits below the watermark, so
// records the requester lacks may have been dropped and a log-based session
// could silently skip updates. Such a session must be answered with set
// reconciliation instead. Charges no metrics — the reconcile-free paths
// keep their exact comparison counts.
func (r *Replica) NeedsReconcile(v vv.VV) bool {
	r.ctl.Lock()
	defer r.ctl.Unlock()
	for k, w := range r.pruned {
		if v.Get(k) < w {
			return true
		}
	}
	return false
}

// Prune runs one pruning pass: drop every log record covered by the
// min-acked floor across the configured peers (and, under a log cap, by
// the cap), raise the watermark, and return the number of records dropped.
// A replica with no configured peers and no cap never prunes. O(dropped +
// n·peers); takes only the control mutex — the data plane is untouched.
func (r *Replica) Prune() int {
	r.ctl.Lock()
	defer r.ctl.Unlock()

	floor := vv.New(r.n)
	haveFloor := false
	if len(r.prunePeers) > 0 {
		haveFloor = true
		for k := 0; k < r.n; k++ {
			floor[k] = r.dbvv[k] // clamp: no record exceeds the own DBVV
		}
		for _, j := range r.prunePeers {
			var a vv.VV
			if j < len(r.acked) {
				a = r.acked[j]
			}
			for k := 0; k < r.n; k++ {
				// A peer we have learned nothing about pins the floor at
				// zero: never prune ahead of an unknown peer.
				var w uint64
				if a != nil {
					w = a.Get(k)
				}
				if w < floor[k] {
					floor[k] = w
				}
			}
		}
	}

	// Log cap: force the floor past laggard acks wherever a component
	// exceeds the cap, keeping only the newest logCap records. The skipped
	// peers catch up via reconciliation.
	if r.logCap > 0 {
		for k := 0; k < r.n; k++ {
			comp := r.logs.Component(k)
			if over := comp.Len() - r.logCap; over > 0 {
				rec := comp.Head()
				for i := 1; i < over && rec != nil; i++ {
					rec = rec.Next()
				}
				if rec != nil && rec.Seq > floor[k] {
					floor[k] = rec.Seq
					haveFloor = true
				}
			}
		}
	}
	if !haveFloor {
		return 0
	}

	dropped := r.logs.TruncateBefore(floor)
	r.pruned = r.pruned.Extended(r.n)
	r.pruned.Merge(floor)
	r.trunc = r.trunc.Extended(r.n)
	r.trunc.Merge(floor)
	if dropped > 0 {
		r.met.PrunedRecords.Add(uint64(dropped))
	}
	r.met.LogRecords.Store(uint64(r.logs.Len()))
	return dropped
}

// ConfigurePruning sets, for every owned partition, the pruning peer set to
// that partition's other ring owners and applies the given per-component
// log cap (0 = uncapped). Partitions prune independently: each one's
// watermark is gated by the peers that actually replicate it.
func (pr *Partitioned) ConfigurePruning(logCap int) {
	for pid, part := range pr.parts {
		if part == nil {
			continue
		}
		part.ConfigurePruning(pr.ring.Owners(pid))
		part.SetLogCap(logCap)
	}
}

// Prune runs one pruning pass over every owned partition and returns the
// total number of records dropped.
func (pr *Partitioned) Prune() int {
	dropped := 0
	for _, part := range pr.parts {
		if part != nil {
			dropped += part.Prune()
		}
	}
	return dropped
}
