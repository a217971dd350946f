package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadSpec describes one workload. Load is sized for a two-core box:
// at most two write lanes, one light read lane (a 32-read batch every
// 500 µs), and one driver goroutine standing in for the nodes' own
// anti-entropy loops.
type workloadSpec struct {
	name  string
	why   string
	shape shape
	items int     // N, all preloaded with valueSize-byte values
	lanes int     // write lanes; lane k writes only at node k, only items ≡ k mod lanes
	rate  float64 // steady workloads: writes/s per lane in the open-loop phase
	burst int     // catch-up workloads: distinct updates per round
	prune bool    // catch-up workloads: prune the source's log before the timed pull
}

var workloads = []workloadSpec{
	{
		name:  "steady_durable",
		why:   "the paper's target regime, few items per session and many sessions, on 3 durable nodes: WAL fsync and per-session transport overhead dominate, core build/apply does little",
		shape: shape{name: "dur", nodes: 3, durable: true},
		items: 20000, lanes: 2, rate: 1000,
	},
	{
		name:  "steady_partitioned",
		why:   "the same load on 3 durable nodes, 16 partitions placed on 2: k WALs behind one committer, per-partition negotiation, a ring lookup per op; shows a change that helps one node family and costs the other",
		shape: shape{name: "dpart", nodes: 3, durable: true, partitions: 16, placement: 2},
		items: 20000, lanes: 2, rate: 1000,
	},
	{
		name:  "bulk_catchup",
		why:   "large m on 2 volatile nodes: 20000-item streamed catch-up per round, so core build/apply, wire codec and chunk streaming do the work and the WAL none; reads beside the apply expose longer lock holds",
		shape: shape{name: "replica", nodes: 2},
		items: 100000, lanes: 1, burst: 20000,
	},
	{
		name:  "rejoin_reconcile",
		why:   "the only path into pruning and set reconciliation: 2 volatile 4-partition nodes with a 64-record log cap, 1000-item diff per round found by fingerprint rounds instead of log tails",
		shape: shape{name: "parted", nodes: 2, partitions: 4, placement: 2, logCap: 64},
		items: 20000, lanes: 1, burst: 1000, prune: true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// setupRuns is how many times a run sets the cluster up; setup_s is the
// median. The last cluster is the one the workload then runs on.
const setupRuns = 3

// liveRun is one pass of a workload over a live cluster.
type liveRun struct {
	spec      workloadSpec
	setupS    []float64 // each set-up: start nodes + preload + first convergence
	a, b      *phaseRec // latency phase and saturation phase (the same phase on catch-up workloads)
	recoverS  float64   // durable shapes: close + start again on the same data directories
	dataBytes int64     // durable shapes: bytes under the data directories after the final close
	// cmpPerNoop is the paper's O(1) claim read off the idle cluster: DBVV
	// comparisons per pull when every pair is already identical.
	cmpPerNoop float64
	conflicts  int
}

// runLive sets the workload's cluster up, runs its measured phases for
// about `seconds` in total, checks every output, and tears it down.
func runLive(spec workloadSpec, in *inputs, workdir string, seconds float64, setups int, tr *tracer) (*liveRun, error) {
	res := &liveRun{spec: spec}
	root, err := os.MkdirTemp(workdir, spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var rg *rig
	for i := 0; i < setups; i++ {
		if rg != nil {
			if err := rg.close(); err != nil {
				return nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
			runtime.GC() // the discarded cluster's garbage is not this set-up's to collect
		}
		t0 := time.Now()
		rg, err = startRig(spec, in, filepath.Join(root, fmt.Sprintf("data-%d", i)))
		if err != nil {
			return nil, err
		}
		if err := rg.preload(); err != nil {
			rg.close()
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if rg.nodes != nil {
			rg.close()
		}
	}()
	runtime.GC()

	dur := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	if spec.burst > 0 {
		res.a, err = rg.catchupPhase(dur(0.9), tr)
		res.b = res.a
	} else {
		// 70% of the run on the schedule, 20% flat out; the rest is for
		// the two drains.
		res.a, err = rg.steadyPhase(dur(0.7), spec.rate, tr)
		if err == nil {
			res.b, err = rg.steadyPhase(dur(0.2), 0, nil)
		}
	}
	if err != nil {
		return res, err
	}
	res.conflicts = rg.conflicts()
	if err := rg.verify(); err != nil {
		return res, fmt.Errorf("verify: %w", err)
	}
	if res.cmpPerNoop, err = rg.idleCycle(); err != nil {
		return res, err
	}
	if spec.shape.durable {
		took, err := rg.restart()
		if err != nil {
			return res, err
		}
		res.recoverS = took.Seconds()
	}
	if err := rg.close(); err != nil {
		return res, fmt.Errorf("final close: %w", err)
	}
	if spec.shape.durable {
		if res.dataBytes, err = dirBytes(rg.root); err != nil {
			return res, err
		}
	}
	return res, nil
}

// idleCycle pulls once along every pair of the converged, idle cluster and
// returns the DBVV comparisons one such pull costs.
func (r *rig) idleCycle() (float64, error) {
	c0 := r.counters()
	pairs := r.pairs()
	for _, p := range pairs {
		shipped, err := r.nodes[p[0]].PullFrom(r.nodes[p[1]].Addr())
		if err != nil {
			return 0, fmt.Errorf("idle cycle: node %d pull from %d: %w", p[0], p[1], err)
		}
		if shipped {
			return 0, fmt.Errorf("idle cycle: node %d pulled data from %d on a converged cluster", p[0], p[1])
		}
	}
	return float64(r.counters().sub(c0).m.DBVVComparisons) / float64(len(pairs)), nil
}
