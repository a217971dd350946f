// Package metrics provides the overhead accounting used to reproduce the
// paper's performance claims (§6, §8). Every protocol implementation in
// this repository — the core DBVV protocol and each baseline — charges its
// work to a Counters value, so experiments can compare *what scales with
// what* (per-item work vs. per-copied-item work vs. constant work) rather
// than only wall-clock time.
//
// Counters are not synchronized; each replica owns one and the replica's
// lock covers it. Use Add to aggregate across replicas after the fact.
package metrics

import (
	"fmt"
	"strings"
)

// Counters accumulates protocol overhead. Field groups follow the cost
// terms of §6:
//
//   - vector/sequence comparisons: the version-information comparison work
//     that classic anti-entropy performs per item and the paper's protocol
//     performs per database (DBVV) plus per copied item (IVV);
//   - items examined: items whose per-item control state was touched during
//     an anti-entropy session (the Θ(N) term of Lotus and per-item VV
//     protocols, the O(m) term of the paper's protocol);
//   - network terms: messages, items and log records shipped, total bytes.
type Counters struct {
	// Comparison work.
	DBVVComparisons uint64 // whole-database vector comparisons
	IVVComparisons  uint64 // per-item vector comparisons
	SeqComparisons  uint64 // scalar sequence-number/timestamp comparisons

	// Per-item control work during anti-entropy.
	ItemsExamined uint64 // items whose control state was inspected
	ItemsSent     uint64 // item payloads shipped source -> recipient
	ItemsCopied   uint64 // item payloads adopted by the recipient

	// Log traffic.
	LogRecordsSent    uint64 // regular log records shipped
	LogRecordsApplied uint64 // records appended to the recipient's log vector

	// Message traffic. BytesSent is a protocol-shape *estimate* computed
	// from message contents (key lengths, vector widths, fixed headers) —
	// the only accounting available to the in-memory simulator, and the
	// figure the paper's §6 cost model predicts. The TCP transport
	// additionally meters *actual* socket traffic with counting
	// reader/writer wrappers into the WireBytes* counters below; over TCP
	// those are the ground truth and BytesSent remains the model's view,
	// so the two can be compared to validate the estimate.
	Messages  uint64 // protocol messages of any kind
	BytesSent uint64 // estimated wire bytes across all messages

	// Measured transport traffic (TCP paths only; zero in the simulator).
	// Recorded by internal/transport: servers charge each connection's
	// metered bytes to the replica that served it, clients charge pulls
	// to the recipient replica.
	WireBytesSent uint64 // bytes actually written to sockets
	WireBytesRecv uint64 // bytes actually read from sockets
	Dials         uint64 // TCP connections established on the client side
	ConnsReused   uint64 // exchanges served on warm pooled connections (dials avoided)

	// Session outcomes.
	Propagations     uint64 // anti-entropy sessions attempted
	PropagationNoops uint64 // sessions resolved "you-are-current"

	// Correctness events.
	ConflictsDetected uint64 // inconsistency declarations
	AnomaliesIgnored  uint64 // defensive: states the paper proves unreachable

	// Out-of-bound machinery.
	OOBRequests      uint64 // out-of-bound copies requested
	OOBAdopted       uint64 // out-of-bound copies adopted as auxiliary data
	AuxOpsReplayed   uint64 // auxiliary log records re-applied to regular copies
	AuxCopiesFreed   uint64 // auxiliary copies discarded after catch-up
	UpdatesApplied   uint64 // user updates executed
	UpdatesRegular   uint64 // ... against regular copies
	UpdatesAuxiliary uint64 // ... against auxiliary copies

	// Record-shipping (delta) propagation variant.
	DeltasSent    uint64 // delta payloads shipped instead of full values
	DeltasApplied uint64 // delta payloads applied at recipients
	FullFetches   uint64 // full copies served in second-round fetches

	// Streaming (chunked) propagation sessions. ChunksSent/ChunksApplied
	// and StreamSessions are monotone counters like everything above.
	// PeakPayloadBytes and StreamFirstApplyNanos are *high-water gauges*:
	// the largest single payload (estimated wire bytes) held in memory at
	// once — a whole Propagation on the monolithic path, one chunk on the
	// streaming path — and the longest observed delay from session start to
	// the first applied chunk. Add merges gauges by maximum and Diff passes
	// them through unchanged (a maximum has no meaningful subtraction).
	StreamSessions        uint64 // streaming sessions opened (source side)
	ChunksSent            uint64 // chunks built and shipped by sources
	ChunksApplied         uint64 // chunks committed by recipients
	PeakPayloadBytes      uint64 // gauge: largest payload held at once
	StreamFirstApplyNanos uint64 // gauge: slowest time-to-first-applied-chunk

	// Log lifecycle (acked-peer pruning) and the set-reconciliation
	// fallback for pulls whose DBVV predates the pruned prefix.
	// LogRecords is a *gauge*: the current log-vector length, refreshed
	// after every mutation that changes it; Add sums it across replicas
	// (each replica reports its own length, the cluster total is the sum)
	// and Diff passes it through like the other gauges.
	LogRecords          uint64 // gauge: current log-vector records held
	PrunedRecords       uint64 // log records dropped by prune passes
	ReconcileSessions   uint64 // set-reconciliation sessions run (recipient side)
	ReconcileRoundTrips uint64 // fingerprint-exchange round trips across all sessions
	ReconcileBytes      uint64 // estimated wire bytes of reconcile control traffic

	// Durability (group-commit WAL). Copied from the wal.Committer's own
	// accounting when a durable node reports metrics — the hot write path
	// never touches a Counters value. WALFsyncs counts physical flushes,
	// WALBatchedRecords the records those flushes covered (their ratio is
	// the amortization factor), and GroupCommitWaiters the stage calls that
	// found a round already forming (i.e. writes that shared a flush).
	WALFsyncs          uint64 // physical fsync calls on WAL segments
	WALBatchedRecords  uint64 // records made durable across all flushes
	GroupCommitWaiters uint64 // stage calls that joined an already-pending batch
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.DBVVComparisons += o.DBVVComparisons
	c.IVVComparisons += o.IVVComparisons
	c.SeqComparisons += o.SeqComparisons
	c.ItemsExamined += o.ItemsExamined
	c.ItemsSent += o.ItemsSent
	c.ItemsCopied += o.ItemsCopied
	c.LogRecordsSent += o.LogRecordsSent
	c.LogRecordsApplied += o.LogRecordsApplied
	c.Messages += o.Messages
	c.BytesSent += o.BytesSent
	c.WireBytesSent += o.WireBytesSent
	c.WireBytesRecv += o.WireBytesRecv
	c.Dials += o.Dials
	c.ConnsReused += o.ConnsReused
	c.Propagations += o.Propagations
	c.PropagationNoops += o.PropagationNoops
	c.ConflictsDetected += o.ConflictsDetected
	c.AnomaliesIgnored += o.AnomaliesIgnored
	c.OOBRequests += o.OOBRequests
	c.OOBAdopted += o.OOBAdopted
	c.AuxOpsReplayed += o.AuxOpsReplayed
	c.AuxCopiesFreed += o.AuxCopiesFreed
	c.UpdatesApplied += o.UpdatesApplied
	c.UpdatesRegular += o.UpdatesRegular
	c.UpdatesAuxiliary += o.UpdatesAuxiliary
	c.DeltasSent += o.DeltasSent
	c.DeltasApplied += o.DeltasApplied
	c.FullFetches += o.FullFetches
	c.StreamSessions += o.StreamSessions
	c.ChunksSent += o.ChunksSent
	c.ChunksApplied += o.ChunksApplied
	c.PeakPayloadBytes = max(c.PeakPayloadBytes, o.PeakPayloadBytes)
	c.StreamFirstApplyNanos = max(c.StreamFirstApplyNanos, o.StreamFirstApplyNanos)
	c.LogRecords += o.LogRecords
	c.PrunedRecords += o.PrunedRecords
	c.ReconcileSessions += o.ReconcileSessions
	c.ReconcileRoundTrips += o.ReconcileRoundTrips
	c.ReconcileBytes += o.ReconcileBytes
	c.WALFsyncs += o.WALFsyncs
	c.WALBatchedRecords += o.WALBatchedRecords
	c.GroupCommitWaiters += o.GroupCommitWaiters
}

// Diff returns c - base, the overhead incurred since base was snapshotted.
// All counters are monotone, so the subtraction never underflows when base
// is an earlier snapshot of the same counters.
func (c Counters) Diff(base Counters) Counters {
	d := c
	d.DBVVComparisons -= base.DBVVComparisons
	d.IVVComparisons -= base.IVVComparisons
	d.SeqComparisons -= base.SeqComparisons
	d.ItemsExamined -= base.ItemsExamined
	d.ItemsSent -= base.ItemsSent
	d.ItemsCopied -= base.ItemsCopied
	d.LogRecordsSent -= base.LogRecordsSent
	d.LogRecordsApplied -= base.LogRecordsApplied
	d.Messages -= base.Messages
	d.BytesSent -= base.BytesSent
	d.WireBytesSent -= base.WireBytesSent
	d.WireBytesRecv -= base.WireBytesRecv
	d.Dials -= base.Dials
	d.ConnsReused -= base.ConnsReused
	d.Propagations -= base.Propagations
	d.PropagationNoops -= base.PropagationNoops
	d.ConflictsDetected -= base.ConflictsDetected
	d.AnomaliesIgnored -= base.AnomaliesIgnored
	d.OOBRequests -= base.OOBRequests
	d.OOBAdopted -= base.OOBAdopted
	d.AuxOpsReplayed -= base.AuxOpsReplayed
	d.AuxCopiesFreed -= base.AuxCopiesFreed
	d.UpdatesApplied -= base.UpdatesApplied
	d.UpdatesRegular -= base.UpdatesRegular
	d.UpdatesAuxiliary -= base.UpdatesAuxiliary
	d.DeltasSent -= base.DeltasSent
	d.DeltasApplied -= base.DeltasApplied
	d.FullFetches -= base.FullFetches
	d.StreamSessions -= base.StreamSessions
	d.ChunksSent -= base.ChunksSent
	d.ChunksApplied -= base.ChunksApplied
	d.PrunedRecords -= base.PrunedRecords
	d.ReconcileSessions -= base.ReconcileSessions
	d.ReconcileRoundTrips -= base.ReconcileRoundTrips
	d.ReconcileBytes -= base.ReconcileBytes
	d.WALFsyncs -= base.WALFsyncs
	d.WALBatchedRecords -= base.WALBatchedRecords
	d.GroupCommitWaiters -= base.GroupCommitWaiters
	// Gauges pass through: the high-water marks (and LogRecords, the
	// current log length) of c, not a difference.
	return d
}

// Comparisons returns all version-information comparison work combined —
// the paper's primary overhead measure.
func (c Counters) Comparisons() uint64 {
	return c.DBVVComparisons + c.IVVComparisons + c.SeqComparisons
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// String renders the non-zero counters compactly, for logs and test output.
func (c Counters) String() string {
	type field struct {
		name string
		v    uint64
	}
	fields := []field{
		{"dbvv-cmp", c.DBVVComparisons},
		{"ivv-cmp", c.IVVComparisons},
		{"seq-cmp", c.SeqComparisons},
		{"items-examined", c.ItemsExamined},
		{"items-sent", c.ItemsSent},
		{"items-copied", c.ItemsCopied},
		{"log-recs-sent", c.LogRecordsSent},
		{"log-recs-applied", c.LogRecordsApplied},
		{"messages", c.Messages},
		{"bytes", c.BytesSent},
		{"wire-sent", c.WireBytesSent},
		{"wire-recv", c.WireBytesRecv},
		{"dials", c.Dials},
		{"conns-reused", c.ConnsReused},
		{"propagations", c.Propagations},
		{"noops", c.PropagationNoops},
		{"conflicts", c.ConflictsDetected},
		{"anomalies", c.AnomaliesIgnored},
		{"oob-req", c.OOBRequests},
		{"oob-adopted", c.OOBAdopted},
		{"aux-replayed", c.AuxOpsReplayed},
		{"aux-freed", c.AuxCopiesFreed},
		{"updates", c.UpdatesApplied},
		{"updates-regular", c.UpdatesRegular},
		{"updates-aux", c.UpdatesAuxiliary},
		{"deltas-sent", c.DeltasSent},
		{"deltas-applied", c.DeltasApplied},
		{"full-fetches", c.FullFetches},
		{"stream-sessions", c.StreamSessions},
		{"chunks-sent", c.ChunksSent},
		{"chunks-applied", c.ChunksApplied},
		{"peak-payload", c.PeakPayloadBytes},
		{"first-apply-ns", c.StreamFirstApplyNanos},
		{"log-records", c.LogRecords},
		{"pruned-records", c.PrunedRecords},
		{"reconcile-sessions", c.ReconcileSessions},
		{"reconcile-rtts", c.ReconcileRoundTrips},
		{"reconcile-bytes", c.ReconcileBytes},
		{"wal-fsyncs", c.WALFsyncs},
		{"wal-batched-recs", c.WALBatchedRecords},
		{"gc-waiters", c.GroupCommitWaiters},
	}
	var parts []string
	for _, f := range fields {
		if f.v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", f.name, f.v))
		}
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, " ") + "}"
}
