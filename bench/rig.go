package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/op"
	"repro/internal/vv"
)

// shape is one of the four forms a cluster.Node takes today.
type shape struct {
	name       string // the field of cluster.Node that carries the state
	nodes      int
	durable    bool
	partitions int // 0: unpartitioned
	placement  int
	logCap     int
}

// rig is a running cluster plus what the harness knows about its contents.
type rig struct {
	spec  workloadSpec
	in    *inputs
	root  string // data directories live here (durable shapes)
	cfgs  []cluster.Config
	nodes []*cluster.Node
	all   []int // every node's id

	// last[i] is the stamp of the newest acknowledged write to item i. Only
	// the item's one writer touches its entry while lanes run.
	last []uint64
	// laneN[k] counts the writes lane k has issued, across phases.
	laneN []int
}

// startRig starts the workload's nodes the way cmd/epinode starts them by
// default — fsync on, commit delay 0, default snapshot cadence — except
// that Interval is 0: the benchmark's driver owns the anti-entropy
// schedule, so that lag measures the program and not a timer.
func startRig(spec workloadSpec, in *inputs, root string) (*rig, error) {
	r := &rig{spec: spec, in: in, root: root, last: make([]uint64, spec.items), laneN: make([]int, spec.lanes)}
	sh := spec.shape
	for i := 0; i < sh.nodes; i++ {
		cfg := cluster.Config{
			ID: i, Servers: sh.nodes,
			Partitions: sh.partitions, Placement: sh.placement, LogCap: sh.logCap,
		}
		if sh.durable {
			cfg.DataDir = filepath.Join(root, fmt.Sprintf("node-%d", i))
		}
		r.cfgs = append(r.cfgs, cfg)
		r.all = append(r.all, i)
	}
	if err := r.start(); err != nil {
		return nil, err
	}
	return r, nil
}

// start brings up every node from r.cfgs and meshes them.
func (r *rig) start() error {
	r.nodes = r.nodes[:0]
	for _, cfg := range r.cfgs {
		n, err := cluster.Start(cfg)
		if err != nil {
			cluster.CloseAll(r.nodes)
			return fmt.Errorf("start node %d: %w", cfg.ID, err)
		}
		r.nodes = append(r.nodes, n)
	}
	for i, n := range r.nodes {
		var peers []string
		for j, o := range r.nodes {
			if j != i {
				peers = append(peers, o.Addr())
			}
		}
		n.SetPeers(peers)
	}
	return nil
}

// close stops every node (durable ones snapshot). The data directories
// stay; whoever made their parent removes it.
func (r *rig) close() error {
	err := cluster.CloseAll(r.nodes)
	r.nodes = nil
	return err
}

func (r *rig) parted() bool { return r.spec.shape.partitions > 1 }

// ownersOf returns the nodes that replicate partition pid (every node when
// unpartitioned).
func (r *rig) ownersOf(pid int) []int {
	if !r.parted() {
		return r.all
	}
	return r.in.ring.Owners(pid)
}

// owners returns the nodes that replicate item i.
func (r *rig) owners(i int) []int { return r.ownersOf(r.pidOf(int32(i))) }

// preloadNode is the node that writes item i's first value: its lane's node
// when that node replicates the item, else the item's first owner. (A
// different first writer is no conflict: the lane's node has received the
// preload before it writes the item again.)
func (r *rig) preloadNode(i int) int {
	lane := i % r.spec.lanes
	owners := r.owners(i)
	if slices.Contains(owners, lane) {
		return lane
	}
	return owners[0]
}

// preload writes every item once and converges the cluster. Durable nodes
// are loaded by many goroutines at once so the loads share fsyncs.
func (r *rig) preload() error {
	per := make([][]int, len(r.nodes))
	for i := 0; i < r.spec.items; i++ {
		n := r.preloadNode(i)
		per[n] = append(per[n], i)
	}
	workers := 1
	if r.spec.shape.durable {
		workers = 32
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(r.nodes)*workers)
	for n, items := range per {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(n, w int, items []int) {
				defer wg.Done()
				buf := make([]byte, valueSize)
				for j := w; j < len(items); j += workers {
					i := items[j]
					stamp := preloadStamp | uint64(i)
					r.in.fillValue(buf, stamp)
					if err := r.nodes[n].Update(r.in.keys[i], op.NewSet(buf)); err != nil {
						errs <- fmt.Errorf("preload item %d at node %d: %w", i, n, err)
						return
					}
					r.last[i] = stamp
				}
			}(n, w, items)
		}
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	return r.converge()
}

// pairs lists every (recipient, source) pair in ring order: first each
// node from its successor, then each from its predecessor's side.
func (r *rig) pairs() [][2]int {
	n := len(r.nodes)
	var out [][2]int
	for d := 1; d < n; d++ {
		for rc := 0; rc < n; rc++ {
			out = append(out, [2]int{rc, (rc + d) % n})
		}
	}
	return out
}

// converge runs pull cycles until every owner of every item agrees.
func (r *rig) converge() error {
	for round := 0; round < 8; round++ {
		for _, p := range r.pairs() {
			if _, err := r.nodes[p[0]].PullFrom(r.nodes[p[1]].Addr()); err != nil {
				return fmt.Errorf("converge: node %d pull from %d: %w", p[0], p[1], err)
			}
		}
		if ok, _ := cluster.Converged(r.nodes); ok {
			return nil
		}
	}
	_, why := cluster.Converged(r.nodes)
	return fmt.Errorf("converge: no agreement after 8 cycles: %s", why)
}

// dbvv returns node n's database version vector for partition pid (the
// whole database when unpartitioned).
func (r *rig) dbvv(n, pid int) vv.VV {
	if r.parted() {
		return r.nodes[n].Parted().Partition(pid).DBVV()
	}
	return r.nodes[n].Replica().DBVV()
}

// replicas returns every replica a node holds, one per owned partition.
func replicas(n *cluster.Node) []*core.Replica {
	pr := n.Parted()
	if pr == nil {
		return []*core.Replica{n.Replica()}
	}
	var out []*core.Replica
	for _, pid := range pr.Owned() {
		out = append(out, pr.Partition(pid))
	}
	return out
}

// counters is a sum over the cluster's nodes at one instant.
type counters struct {
	m                        metrics.Counters
	fsyncs, walRecs, batches uint64
	dials, reused            uint64
}

func (r *rig) counters() counters {
	var c counters
	for _, n := range r.nodes {
		m := n.Metrics()
		c.m.Add(&m)
		if st, ok := n.WALStats(); ok {
			c.fsyncs += st.Fsyncs
			c.walRecs += st.BatchedRecords
			c.batches += st.Batches
		}
		ps := n.PoolStats()
		c.dials += ps.Dials
		c.reused += ps.Reused
	}
	return c
}

func (c counters) sub(base counters) counters {
	return counters{
		m:      c.m.Diff(base.m),
		fsyncs: c.fsyncs - base.fsyncs, walRecs: c.walRecs - base.walRecs, batches: c.batches - base.batches,
		dials: c.dials - base.dials, reused: c.reused - base.reused,
	}
}

// conflicts counts the write-write conflicts any replica has declared.
func (r *rig) conflicts() int {
	total := 0
	for _, n := range r.nodes {
		if pr := n.Parted(); pr != nil {
			total += len(pr.Conflicts())
		} else {
			total += len(n.Replica().Conflicts())
		}
	}
	return total
}

// verify checks the cluster's outputs: agreement between owners, the
// protocol's structural invariants on every replica, no conflict declared,
// and the last acknowledged value of every item readable at each of its
// owners.
func (r *rig) verify() error {
	if ok, why := cluster.Converged(r.nodes); !ok {
		return fmt.Errorf("not converged: %s", why)
	}
	for i, n := range r.nodes {
		for _, rep := range replicas(n) {
			if err := rep.CheckInvariants(); err != nil {
				return fmt.Errorf("node %d invariants: %w", i, err)
			}
		}
	}
	if c := r.conflicts(); c != 0 {
		return fmt.Errorf("%d conflicts declared: writers were meant to be disjoint", c)
	}
	want := make([]byte, valueSize)
	for i, stamp := range r.last {
		r.in.fillValue(want, stamp)
		for _, o := range r.owners(i) {
			got, ok := r.nodes[o].Read(r.in.keys[i])
			if !ok || !bytes.Equal(got, want) {
				return fmt.Errorf("item %d at node %d: read back %d bytes (present=%v), not the last acknowledged write", i, o, len(got), ok)
			}
		}
	}
	return nil
}

// allDBVVs returns every replica's DBVV, node by node, partition by
// partition.
func (r *rig) allDBVVs() []vv.VV {
	var out []vv.VV
	for _, n := range r.nodes {
		for _, rep := range replicas(n) {
			out = append(out, rep.DBVV())
		}
	}
	return out
}

// restart closes every node and starts it again on the same data
// directory, then requires what recovery rebuilt to be what was there:
// identical DBVVs and the same read-back. It returns how long the close and
// the start took together.
func (r *rig) restart() (time.Duration, error) {
	if !r.spec.shape.durable {
		return 0, errors.New("restart: shape is not durable")
	}
	before := r.allDBVVs()
	t0 := time.Now()
	if err := cluster.CloseAll(r.nodes); err != nil {
		return 0, fmt.Errorf("close before restart: %w", err)
	}
	if err := r.start(); err != nil {
		return 0, err
	}
	took := time.Since(t0)
	after := r.allDBVVs()
	if len(after) != len(before) {
		return took, fmt.Errorf("restart: %d replicas recovered, %d closed", len(after), len(before))
	}
	for i := range before {
		if !before[i].Equal(after[i]) {
			return took, fmt.Errorf("restart: replica %d recovered DBVV %v, closed with %v", i, after[i], before[i])
		}
	}
	return took, r.verify()
}

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
