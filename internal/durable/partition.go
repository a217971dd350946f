package durable

// Per-partition durable logging.
//
// A durable partitioned node is k independent durable replicas — one
// directory, WAL and checkpoint chain per owned partition, laid out as
// dir/part-NNNN/ — sharing ONE group committer. Partition independence
// keeps recovery exact (each partition replays its own log onto its own
// checkpoints, exactly the single-replica contract of Open), while the shared
// committer keeps durability cheap: writers landing on different
// partitions stage into the same commit stream, so one leader round
// flushes every dirty partition's segment and k concurrent partitions
// still amortize toward one fsync sequence, not k.
//
// This package drives no network session. Each partition's Replica is the
// sink a pull commits into (internal/transport's Client takes it per
// partition), and every commit is write-ahead logged to that partition's
// WAL before it applies. The pull is the one a volatile node runs: a
// partition over the inline cap streams, and each chunk is logged as one
// propagation record, so a crash mid-stream recovers a prefix of chunks.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/ring"
	"repro/internal/wal"
)

// partDirFmt names one partition's durable directory under the node root.
const partDirFmt = "part-%04d"

// Partitioned is a crash-recoverable partitioned node: one durable Replica
// per owned keyspace partition, all staging into a single shared group
// committer. Safe for concurrent use; each method routes to the owning
// partition's replica, whose own locks do the serializing.
type Partitioned struct {
	parted *core.Partitioned //epi:immutable control plane over the recovered core replicas
	// parts is indexed by partition id; nil marks a partition this node does
	// not replicate. Immutable after OpenPartitioned, like core's slice.
	parts []*Replica     //epi:immutable
	com   *wal.Committer //epi:immutable shared by every partition's WAL
}

// OpenPartitioned creates or recovers the durable partitioned node rooted
// at dir for server id of n, with the keyspace split into `partitions`
// token ranges each placed on `placement` nodes (0 = every node). Every
// owned partition opens (and replays) its own durable state under
// dir/part-NNNN/; all partitions share one group committer, either
// opts.Committer or a fresh one driven by opts.CommitDelay.
//
// A directory laid out by Open — a root-level wal/ or checkpoint — is
// refused: opening it here would start every partition empty and re-issue
// (origin, seq) pairs the node's peers already hold.
func OpenPartitioned(dir string, id, n, partitions, placement int, opts Options) (*Partitioned, error) {
	if placement <= 0 {
		placement = n
	}
	if err := refuseReplicaLayout(dir); err != nil {
		return nil, err
	}
	com := opts.Committer
	if com == nil {
		com = wal.NewCommitter(opts.CommitDelay)
	}
	opts.Committer = com

	rg := ring.New(n, partitions, placement)
	parts := make([]*Replica, partitions)
	recovered := make(map[int]*core.Replica)
	for _, pid := range rg.OwnedBy(id) {
		d, err := Open(filepath.Join(dir, fmt.Sprintf(partDirFmt, pid)), id, n, opts)
		if err != nil {
			for _, prev := range parts {
				if prev != nil {
					prev.CloseWithoutSnapshot()
				}
			}
			return nil, fmt.Errorf("durable: partition %d: %w", pid, err)
		}
		parts[pid] = d
		recovered[pid] = d.Core()
	}
	parted, err := core.RestorePartitioned(id, n, partitions, placement, recovered, opts.CoreOptions...)
	if err != nil {
		for _, prev := range parts {
			if prev != nil {
				prev.CloseWithoutSnapshot()
			}
		}
		return nil, err
	}
	return &Partitioned{parted: parted, parts: parts, com: com}, nil
}

// refuseReplicaLayout fails when dir holds the single-replica layout Open
// writes, naming the path that gives it away. A missing dir is fine.
func refuseReplicaLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("durable: readdir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == walDir || strings.HasPrefix(name, basePrefix) || strings.HasPrefix(name, deltaPrefix) || strings.HasPrefix(name, gobPrefix) {
			return fmt.Errorf("durable: %s belongs to an unpartitioned replica; a partitioned node keeps its state under %s/",
				filepath.Join(dir, name), fmt.Sprintf(partDirFmt, 0))
		}
	}
	return nil
}

// Parted exposes the partitioned control plane over the recovered core
// replicas — what a transport server serves and reads route through.
// Mutations must go through the durable methods or they are lost on crash.
func (p *Partitioned) Parted() *core.Partitioned { return p.parted }

// Partition returns the durable replica for partition pid, or nil when
// this node does not replicate it.
func (p *Partitioned) Partition(pid int) *Replica {
	if pid < 0 || pid >= len(p.parts) {
		return nil
	}
	return p.parts[pid]
}

// Update durably applies a user update to key's partition, or rejects it
// with core.ErrNotOwner when this node does not replicate that partition.
func (p *Partitioned) Update(key string, o op.Op) error {
	pid := p.parted.PartitionOf(key)
	part := p.parts[pid]
	if part == nil {
		return fmt.Errorf("%w: key %q is in partition %d, owned by nodes %v",
			core.ErrNotOwner, key, pid, p.parted.Ring().Owners(pid))
	}
	return part.Update(key, o)
}

// Read returns the node's current value for key (absent outside owned
// partitions). Reads never touch the WAL.
func (p *Partitioned) Read(key string) ([]byte, bool) { return p.parted.Read(key) }

// Prune durably runs one log-pruning pass over every owned partition,
// returning the total records dropped. Each partition's pass is logged to
// its own WAL, so every watermark survives restarts independently.
func (p *Partitioned) Prune() (int, error) {
	dropped := 0
	for _, part := range p.parts {
		if part == nil {
			continue
		}
		n, err := part.Prune()
		dropped += n
		if err != nil {
			return dropped, err
		}
	}
	return dropped, nil
}

// Snapshot checkpoints every owned partition and drops its superseded log
// prefix, returning the first error.
func (p *Partitioned) Snapshot() error {
	var first error
	for _, part := range p.parts {
		if part == nil {
			continue
		}
		if err := part.Snapshot(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WALStats returns the shared committer's accounting. Because every
// partition stages into the same commit stream, these counters cover the
// whole node: Fsyncs counts leader flushes across all partitions.
func (p *Partitioned) WALStats() wal.CommitterStats { return p.com.Stats() }

// WALRecords returns the total logged actions not yet superseded by a
// checkpoint, across all owned partitions.
func (p *Partitioned) WALRecords() int {
	total := 0
	for _, part := range p.parts {
		if part != nil {
			total += part.WALRecords()
		}
	}
	return total
}

// Close checkpoints and releases every partition, returning the first error.
func (p *Partitioned) Close() error {
	var first error
	for _, part := range p.parts {
		if part == nil {
			continue
		}
		if err := part.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CloseWithoutSnapshot releases every partition's WAL without
// checkpointing — recovery replays the logs. Crash tests only.
func (p *Partitioned) CloseWithoutSnapshot() error {
	var first error
	for _, part := range p.parts {
		if part == nil {
			continue
		}
		if err := part.CloseWithoutSnapshot(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
