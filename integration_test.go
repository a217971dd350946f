package repro_test

// Grand integration scenario driven entirely through public surfaces: a
// durable TCP cluster, the full protocol life cycle (provisioning, edits,
// out-of-bound copies, crash recovery, server-set growth), validated at
// every stage by convergence and invariant checks.

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/durable"
)

func TestEndToEndLifecycle(t *testing.T) {
	base := t.TempDir()

	// Stage 1: a three-server cluster; server 2 is durable.
	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		cfg := cluster.Config{ID: i, Servers: 3}
		if i == 2 {
			cfg.DataDir = filepath.Join(base, "node-2")
			cfg.DurableOptions = durable.Options{NoSync: true}
		}
		n, err := cluster.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	closeAll := func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	}
	defer closeAll()

	// Stage 2: provision a document corpus at node 0, replicate by ring.
	for i := 0; i < 300; i++ {
		if err := nodes[0].Update(fmt.Sprintf("doc/%03d", i), repro.Set([]byte("rev-1"))); err != nil {
			t.Fatal(err)
		}
	}
	ringSync := func() {
		t.Helper()
		for round := 0; round < 6; round++ {
			for i, n := range nodes {
				if n == nil {
					continue
				}
				peer := nodes[(i+1)%len(nodes)]
				if peer == nil {
					continue
				}
				if _, err := n.PullFrom(peer.Addr()); err != nil {
					t.Fatal(err)
				}
			}
			if ok, _ := cluster.Converged(liveNodes(nodes)); ok {
				return
			}
		}
	}
	ringSync()
	if ok, why := cluster.Converged(nodes); !ok {
		t.Fatalf("stage 2: %s", why)
	}

	// Stage 3: an urgent read at node 1 via out-of-bound copy, plus a local
	// annotation on the auxiliary copy.
	nodes[0].Update("doc/042", repro.Set([]byte("rev-2")))
	if adopted, err := nodes[1].FetchOOB(nodes[0].Addr(), "doc/042"); err != nil || !adopted {
		t.Fatalf("stage 3 OOB: %v/%v", adopted, err)
	}
	nodes[1].Update("doc/042", repro.Append([]byte(" [seen-by-1]")))
	if v, _ := nodes[1].Read("doc/042"); string(v) != "rev-2 [seen-by-1]" {
		t.Fatalf("stage 3 read: %q", v)
	}
	ringSync()
	if got := nodes[1].Replica().AuxRecords(); got != 0 {
		t.Fatalf("stage 3: %d aux records undrained", got)
	}

	// Stage 4: crash the durable node (hard close), keep editing, restart
	// it from disk and let it catch up.
	addr2 := nodes[2].Addr()
	_ = addr2
	if err := nodes[2].Close(); err != nil {
		t.Fatal(err)
	}
	nodes[2] = nil
	nodes[0].Update("doc/007", repro.Set([]byte("rev-3")))
	nodes[1].PullFrom(nodes[0].Addr())

	n2, err := cluster.Start(cluster.Config{
		ID: 2, Servers: 3,
		DataDir:        filepath.Join(base, "node-2"),
		DurableOptions: durable.Options{NoSync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes[2] = n2
	if _, err := nodes[2].PullFrom(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	ringSync()
	if ok, why := cluster.Converged(nodes); !ok {
		t.Fatalf("stage 4: %s", why)
	}
	if v, _ := nodes[2].Read("doc/007"); string(v) != "rev-3" {
		t.Fatalf("stage 4: recovered node missing post-crash edit: %q", v)
	}

	// Stage 5: grow the server set to four; the new node joins empty and
	// converges; the others learn the width epidemically.
	repro.Grow(nodes[0].Replica(), 4)
	n3, err := cluster.Start(cluster.Config{ID: 3, Servers: 4})
	if err != nil {
		t.Fatal(err)
	}
	nodes = append(nodes, n3)
	if _, err := n3.PullFrom(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	n3.Update("doc/new", repro.Set([]byte("from-the-newcomer")))
	ringSync()
	ringSync()
	if ok, why := cluster.Converged(nodes); !ok {
		t.Fatalf("stage 5: %s", why)
	}
	for i, n := range nodes {
		if v, _ := n.Read("doc/new"); string(v) != "from-the-newcomer" {
			t.Fatalf("stage 5: node %d missing newcomer data: %q", i, v)
		}
		if err := n.Replica().CheckInvariants(); err != nil {
			t.Fatalf("stage 5: node %d: %v", i, err)
		}
		if got := n.Replica().Servers(); got != 4 {
			t.Fatalf("stage 5: node %d width %d, want 4", i, got)
		}
	}

	// Stage 6: the O(1) steady state — one more session between converged
	// nodes performs exactly one DBVV comparison.
	before := nodes[0].Replica().Metrics()
	if _, err := nodes[1].PullFrom(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	d := nodes[0].Replica().Metrics().Diff(before)
	if d.DBVVComparisons != 1 || d.ItemsExamined != 0 {
		t.Fatalf("stage 6: steady-state session did per-item work: %v", d)
	}
}

func liveNodes(nodes []*cluster.Node) []*cluster.Node {
	var out []*cluster.Node
	for _, n := range nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}
