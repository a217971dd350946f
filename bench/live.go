package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/op"
)

const (
	ackDeadline = 100 * time.Millisecond // an ack slower than this misses its deadline
	lagDeadline = time.Second            // so does a write not visible everywhere by then
	readBatch   = 32
	readThink   = 500 * time.Microsecond
)

// phaseRec is what one measured phase of a live workload recorded: raw
// samples in nanoseconds on the phase's clock, and the cluster's counters
// before and after. Every goroutine writes only its own fields while the
// phase runs; the phase function joins them all before returning.
type phaseRec struct {
	elapsed int64 // first write issued → last write visible everywhere

	ack      windowed // due time (open loop) or send (closed loop) → Update returned
	send     windowed // send → Update returned
	late     samples  // how late the open-loop generator issued each write
	pullNoop windowed // PullFrom that found the recipient current
	pullShip windowed // PullFrom that shipped data
	reads    windowed // one batch of readBatch Reads
	lag      *lagTracker

	writes    int // Updates acknowledged
	missed    int // catch-up rounds: writes the round's own pull left unreflected
	cycles    int // pull cycles (steady) or rounds (catch-up)
	errs      int // operations that returned an error
	ackMisses int
	firstErr  error

	cnt     counters // the phase's counter deltas, summed over nodes
	logPeak uint64   // most log records any node held at the end of the phase
	// Gauges the nodes keep, largest over nodes at the end of the phase.
	firstApplyNs uint64 // streamed sessions: request → first chunk applied
	peakPayload  uint64 // largest single payload applied, in wire bytes
	mallocs      uint64 // runtime.MemStats deltas over the phase, whole process
	allocBytes   uint64
}

// attempted counts the operations the phase issued.
func (p *phaseRec) attempted() int {
	return p.writes + p.errs + p.pullNoop.n() + p.pullShip.n() + p.reads.n()
}

// newPhaseRec returns a record whose windows span [now, now+dur).
func newPhaseRec(clk clock, dur time.Duration) *phaseRec {
	w := newWindowed(clk.now(), int64(dur))
	return &phaseRec{
		ack: w, send: w, pullNoop: w, pullShip: w, reads: w,
		lag: &lagTracker{lag: w, lagDeadline: int64(lagDeadline)},
	}
}

// lane returns an empty record for one write lane, on the phase's windows.
func (p *phaseRec) lane() laneRec {
	w := windowed{start: p.ack.start, width: p.ack.width}
	return laneRec{ack: w, send: w}
}

func (p *phaseRec) fail(err error) {
	p.errs++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// laneRec is one write lane's share of a phaseRec, merged when it ends.
type laneRec struct {
	ack, send    windowed
	late         samples
	writes, errs int
	ackMisses    int
	firstErr     error
}

// visibility is what the driver needs to turn a recipient's DBVV into
// lagTracker.covered calls: for each recipient node, the streams it must
// come to reflect.
type visibility struct {
	byRecipient [][]watch
	streamOf    [][]int // [lane][partition] → stream id, -1 where the lane never writes
}

type watch struct {
	stream, slot, pid, origin int
}

// track registers one stream per (lane, partition the lane's node owns)
// with the tracker, reading each origin's current sequence number as the
// stream's base.
func (r *rig) track(t *lagTracker) *visibility {
	v := &visibility{byRecipient: make([][]watch, len(r.nodes)), streamOf: make([][]int, r.spec.lanes)}
	parts := 1
	if r.parted() {
		parts = r.spec.shape.partitions
	}
	for lane := 0; lane < r.spec.lanes; lane++ {
		v.streamOf[lane] = make([]int, parts)
		for pid := 0; pid < parts; pid++ {
			v.streamOf[lane][pid] = -1
			owners := r.ownersOf(pid)
			if !slices.Contains(owners, lane) {
				continue
			}
			var others []int
			for _, o := range owners {
				if o != lane {
					others = append(others, o)
				}
			}
			id := t.addStream(r.dbvv(lane, pid).Get(lane), len(others))
			v.streamOf[lane][pid] = id
			for slot, o := range others {
				v.byRecipient[o] = append(v.byRecipient[o], watch{stream: id, slot: slot, pid: pid, origin: lane})
			}
		}
	}
	return v
}

// stamp reads recipient rc's DBVVs at time at and reports what they cover.
func (r *rig) stamp(t *lagTracker, v *visibility, rc int, at int64) {
	lastPid := -1
	var dbvv []uint64
	for _, w := range v.byRecipient[rc] {
		if w.pid != lastPid {
			dbvv, lastPid = r.dbvv(rc, w.pid), w.pid
		}
		t.covered(w.stream, w.slot, dbvv[w.origin], at)
	}
}

// pidOf returns the partition of item i (0 when unpartitioned).
func (r *rig) pidOf(i int32) int {
	if !r.parted() {
		return 0
	}
	return r.in.ring.PartitionOf(r.in.keys[i])
}

// write issues lane's next write — item idx — and records it. start is the
// time latency is charged from (the due time in an open loop).
func (r *rig) write(lane int, idx int32, start int64, clk clock, lr *laneRec, t *lagTracker, stream int, buf []byte, sb *spanBuf) {
	stamp := laneStamp(lane, r.laneN[lane])
	r.laneN[lane]++
	r.in.fillValue(buf, stamp)
	sent := clk.now()
	sp := sb.begin("cluster.Update", 0, int64(stamp), sent)
	err := r.nodes[lane].Update(r.in.keys[idx], op.NewSet(buf))
	done := clk.now()
	sb.end(sp, done, 1)
	if err != nil {
		lr.errs++
		if lr.firstErr == nil {
			lr.firstErr = fmt.Errorf("lane %d update %s: %w", lane, r.in.keys[idx], err)
		}
		return
	}
	r.last[idx] = stamp
	lr.writes++
	lr.ack.add(done, done-start)
	lr.send.add(done, done-sent)
	if done-start > int64(ackDeadline) {
		lr.ackMisses++
	}
	t.acked(stream, done)
}

// pull runs one PullFrom into node rc from node src, records it, and stamps
// what rc now reflects.
func (r *rig) pull(rc, src int, clk clock, p *phaseRec, v *visibility, sb *spanBuf, parent int32) {
	t0 := clk.now()
	sp := sb.begin("cluster.PullFrom", parent, int64(p.cycles), t0)
	shipped, err := r.nodes[rc].PullFrom(r.nodes[src].Addr())
	t1 := clk.now()
	sb.end(sp, t1, 1)
	if err != nil {
		p.fail(fmt.Errorf("node %d pull from %d: %w", rc, src, err))
		return
	}
	if shipped {
		p.pullShip.add(t1, t1-t0)
	} else {
		p.pullNoop.add(t1, t1-t0)
	}
	r.stamp(p.lag, v, rc, t1)
}

// reader is the read lane: a caller inside the process that, every
// readThink, reads a batch of random keys at one node and times the batch
// from its actual start — a closed loop with think time. It runs until stop
// closes.
func (r *rig) reader(node int, clk clock, out *windowed, sb *spanBuf, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	pos := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		t0 := clk.now()
		sp := sb.begin("cluster.Read", 0, t0, t0)
		for k := 0; k < readBatch; k++ {
			r.nodes[node].Read(r.in.keys[r.in.reads[pos]])
			pos = (pos + 1) % len(r.in.reads)
		}
		t1 := clk.now()
		sb.end(sp, t1, readBatch)
		out.add(t1, t1-t0)
		clk.sleep(readThink)
	}
}

// begin and finish bracket a phase: counters and allocator statistics
// before, their deltas after.
func (r *rig) begin() (counters, runtime.MemStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return r.counters(), ms
}

func (r *rig) finish(p *phaseRec, c0 counters, ms0 runtime.MemStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c1 := r.counters()
	p.cnt = c1.sub(c0)
	p.mallocs = ms.Mallocs - ms0.Mallocs
	p.allocBytes = ms.TotalAlloc - ms0.TotalAlloc
	for _, n := range r.nodes {
		m := n.Metrics()
		p.logPeak = max(p.logPeak, m.LogRecords)
		p.firstApplyNs = max(p.firstApplyNs, m.StreamFirstApplyNanos)
		p.peakPayload = max(p.peakPayload, m.PeakPayloadBytes)
	}
}

// drain waits until every acknowledged write is visible at every owner.
func drain(t *lagTracker, clk clock) error {
	deadline := clk.now() + int64(30*time.Second)
	for t.pending() > 0 {
		if clk.now() > deadline {
			return fmt.Errorf("drain: %d acknowledged writes still not visible everywhere after 30s", t.pending())
		}
		clk.sleep(200 * time.Microsecond)
	}
	return nil
}

// steadyPhase runs the steady workloads' load for dur: every lane writes to
// its own node — on a fixed schedule when rate > 0 (open loop: latency is
// charged from each write's due time), else one write after another as fast
// as acknowledgements return (closed loop) — while one driver goroutine
// stands in for the nodes' anti-entropy loops: it runs a cycle of every
// (recipient, source) pair whenever a write has been acknowledged since its
// last cycle began, and sleeps otherwise. The phase ends when the last
// write is visible at every owner.
func (r *rig) steadyPhase(dur time.Duration, rate float64, tr *tracer) (*phaseRec, error) {
	clk := realClock()
	p := newPhaseRec(clk, dur)
	vis := r.track(p.lag)
	c0, ms0 := r.begin()

	kick := make(chan struct{}, 1)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	pullBuf, readBuf := tr.buf(), tr.buf()
	go func() { // the driver
		defer bg.Done()
		pairs := r.pairs()
		for {
			select {
			case <-stop:
				return
			case <-kick:
			}
			t0 := clk.now()
			cyc := pullBuf.begin("driver.cycle", 0, int64(p.cycles), t0)
			for _, pr := range pairs {
				r.pull(pr[0], pr[1], clk, p, vis, pullBuf, cyc)
			}
			pullBuf.end(cyc, clk.now(), len(pairs))
			p.cycles++
		}
	}()
	go r.reader(len(r.nodes)-1, clk, &p.reads, readBuf, stop, &bg)

	lanes := make([]laneRec, r.spec.lanes)
	for i := range lanes {
		lanes[i] = p.lane()
	}
	var wg sync.WaitGroup
	end := clk.now() + int64(dur)
	for lane := range lanes {
		wg.Add(1)
		sb := tr.buf()
		go func(lane int, lr *laneRec) {
			defer wg.Done()
			seq := r.in.seqs[lane]
			buf := make([]byte, valueSize)
			var pc *pacer
			if rate > 0 {
				pc = newPacer(clk, rate)
			}
			for i := 0; ; i++ {
				start := clk.now()
				if pc != nil {
					start, _ = pc.next(i)
				}
				if start >= end {
					break
				}
				idx := seq[r.laneN[lane]%len(seq)]
				r.write(lane, idx, start, clk, lr, p.lag, vis.streamOf[lane][r.pidOf(idx)], buf, sb)
				select {
				case kick <- struct{}{}:
				default:
				}
			}
			if pc != nil {
				lr.late = pc.late
			}
		}(lane, &lanes[lane])
	}
	wg.Wait()
	derr := drain(p.lag, clk)
	p.elapsed = clk.now()
	close(stop)
	bg.Wait()
	for i := range lanes {
		p.merge(&lanes[i])
	}
	r.finish(p, c0, ms0)
	if derr != nil {
		return p, derr
	}
	return p, p.firstErr
}

func (p *phaseRec) merge(lr *laneRec) {
	p.ack.merge(&lr.ack)
	p.send.merge(&lr.send)
	p.late.merge(&lr.late)
	p.writes += lr.writes
	p.errs += lr.errs
	p.ackMisses += lr.ackMisses
	if p.firstErr == nil {
		p.firstErr = lr.firstErr
	}
}

// catchupPhase runs the catch-up workloads' rounds for dur: node 0 takes a
// burst of distinct updates while node 1 hears nothing, then node 1 catches
// up with one PullFrom — the timed operation — and node 0 pulls back so
// that it learns what node 1 now holds. With prune set, node 0 first prunes
// its log past node 1's position, so the pull cannot be served from the log
// and must reconcile. The read lane reads at node 1 throughout.
func (r *rig) catchupPhase(dur time.Duration, tr *tracer) (*phaseRec, error) {
	const src, dst = 0, 1
	clk := realClock()
	p := newPhaseRec(clk, dur)
	vis := r.track(p.lag)
	c0, ms0 := r.begin()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	sb, readBuf := tr.buf(), tr.buf()
	go r.reader(dst, clk, &p.reads, readBuf, stop, &bg)

	lr := p.lane()
	seq := r.in.seqs[src]
	buf := make([]byte, valueSize)
	end := clk.now() + int64(dur)
	var rerr error
	// Rounds go on until the time is up and nothing is pending; the bound
	// on extra rounds is there so that a recipient that never heals fails
	// the run (in drain) without hanging it.
	const extraRounds = 200
	for extra := 0; rerr == nil && lr.firstErr == nil && p.firstErr == nil; {
		if clk.now() >= end {
			if p.lag.pending() == 0 || extra == extraRounds {
				break
			}
			extra++
		}
		roundStart := clk.now()
		round := sb.begin("driver.round", 0, int64(p.cycles), roundStart)
		burst := sb.begin("driver.burst", round, int64(p.cycles), clk.now())
		for k := 0; k < r.spec.burst; k++ {
			idx := seq[r.laneN[src]%len(seq)]
			// Single updates are too many to span one by one: the burst
			// span covers them (write is handed no span buffer).
			r.write(src, idx, clk.now(), clk, &lr, p.lag, vis.streamOf[src][r.pidOf(idx)], buf, nil)
		}
		sb.end(burst, clk.now(), r.spec.burst)
		if r.spec.prune {
			t0 := clk.now()
			sp := sb.begin("cluster.PruneOnce", round, int64(p.cycles), t0)
			r.nodes[src].PruneOnce()
			sb.end(sp, clk.now(), 1)
			rerr = r.mustReconcile(src, dst)
		}
		r.pull(dst, src, clk, p, vis, sb, round)
		if missed := p.lag.pendingSince(roundStart); missed > 0 {
			// The pull returned, yet the recipient's DBVV does not cover
			// writes acknowledged before it began. A log-based session
			// cannot do that. A reconciliation can: its range fingerprints
			// are XORs of weakly mixed per-item digests, and two changed
			// items in one range cancel often enough to see (README.md,
			// "What the benchmark found"). Such writes stay pending until
			// a later round's reconciliation opens their range.
			if !r.spec.prune && p.firstErr == nil {
				rerr = fmt.Errorf("round %d: the pull returned but %d of the round's writes are not reflected in the recipient's DBVV", p.cycles, missed)
			}
			p.missed += missed
		}
		r.pull(src, dst, clk, p, vis, sb, round)
		sb.end(round, clk.now(), 1)
		p.cycles++
	}
	derr := drain(p.lag, clk)
	p.elapsed = clk.now()
	close(stop)
	bg.Wait()
	p.merge(&lr)
	r.finish(p, c0, ms0)
	switch {
	case rerr != nil:
		return p, rerr
	case derr != nil:
		return p, derr
	}
	return p, p.firstErr
}

// mustReconcile checks that the round really takes the reconciliation
// path: in every partition, the source's pruned watermark must now be
// ahead of what the recipient holds.
func (r *rig) mustReconcile(src, dst int) error {
	for _, pid := range r.nodes[src].Parted().Owned() {
		srcPart := r.nodes[src].Parted().Partition(pid)
		if !srcPart.NeedsReconcile(r.dbvv(dst, pid)) {
			return fmt.Errorf("partition %d: source can still serve the recipient from its log after pruning; the round would not reconcile", pid)
		}
	}
	return nil
}
