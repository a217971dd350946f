package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/logvec"
	"repro/internal/op"
	"repro/internal/ring"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/vv"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The layer ladder takes one anti-entropy session apart. On a shadow rig —
// two core.Replicas, a transport server and client on loopback, a WAL with
// its own committer — it replays the workload's key stream in sessions of
// the size the live run observed, and makes by hand, one after another,
// the public calls a live session makes inside the nodes: each call is a
// child span of the session's span. Because the steps run back to back on
// one goroutine, their sum is comparable with the live PullFrom only where
// the live session is sequential too; bench.ladder_coverage states how far
// the rungs explain the live figure.
//
// After the sessions come probes at fixed sizes (build/apply at m = 1, 64,
// 4096, one chunked session, one reconciliation, and the nanosecond-scale
// primitives 1024 calls to a span), which are the same on every workload
// so that a layer's speed can be read without the workload's session size
// in the way.
type ladder struct {
	spec workloadSpec
	in   *inputs
	clk  clock
	sb   *spanBuf

	src, dst *core.Replica
	meter    *core.Replica // charged with the noop exchanges' wire bytes
	srv      *transport.Server
	cli      *transport.Client
	log      *wal.WAL         // durable shapes only
	dur      *durable.Replica // durable shapes only
	walDir   string
	staged   int64 // user bytes (key + value) behind the payloads staged on log

	// tag is appended to every span name: empty during the workload's
	// sessions, ".m64" and the like during the fixed-size probes.
	tag string
	// wireBytes and wireItems total what the sessions' payload encoders
	// produced (probes excluded).
	wireBytes, wireItems int64

	writes int // stamps and key-stream position
	next   int // next item index for distinct-key sessions
	buf    []byte
	enc    []byte
	spare  *core.Propagation
	ops    int64
}

// sink keeps the compiler from discarding the primitives' results.
var sink uint64

func newLadder(spec workloadSpec, in *inputs, dir string, sb *spanBuf) (*ladder, error) {
	n := spec.shape.nodes
	l := &ladder{
		spec: spec, in: in, clk: realClock(), sb: sb,
		src: core.NewReplica(0, n), dst: core.NewReplica(1, n), meter: core.NewReplica(1, n),
		cli: transport.NewClient(transport.Options{}),
		buf: make([]byte, valueSize), spare: &core.Propagation{},
	}
	for i := range in.keys {
		in.fillValue(l.buf, preloadStamp|uint64(i))
		if err := l.src.Update(in.keys[i], op.NewSet(l.buf)); err != nil {
			return nil, err
		}
	}
	core.AntiEntropy(l.dst, l.src)
	srv, err := transport.Listen(l.src, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.srv = srv
	if spec.shape.durable {
		l.walDir = filepath.Join(dir, "ladder-wal")
		if l.log, err = wal.Open(l.walDir, wal.Options{}); err != nil {
			l.close()
			return nil, err
		}
		if l.dur, err = durable.Open(filepath.Join(dir, "ladder-durable"), 1, n, durable.Options{}); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *ladder) close() {
	l.cli.Close()
	if l.srv != nil {
		l.srv.Close()
	}
	if l.log != nil {
		l.log.Close()
	}
	if l.dur != nil {
		l.dur.Close()
	}
}

// step times fn as a child span of parent covering n calls.
func (l *ladder) step(name string, parent int32, n int, fn func()) {
	id := l.sb.begin(name+l.tag, parent, l.ops, l.clk.now())
	fn()
	l.sb.end(id, l.clk.now(), n)
}

// shipped notes a payload the sessions encoded.
func (l *ladder) shipped(items int) {
	if l.tag == "" {
		l.wireBytes += int64(len(l.enc))
		l.wireItems += int64(items)
	}
}

// update applies m updates at the source: the workload's own key stream
// when stream is set, else m distinct items.
func (l *ladder) update(parent int32, m int, stream bool) {
	seq := l.in.seqs[0]
	l.step("core.Replica.Update", parent, m, func() {
		for k := 0; k < m; k++ {
			var idx int32
			if stream {
				idx = seq[l.writes%len(seq)]
			} else {
				idx = int32(l.next % len(l.in.keys))
				l.next++
			}
			l.in.fillValue(l.buf, laneStamp(0, l.writes))
			l.writes++
			if err := l.src.Update(l.in.keys[idx], op.NewSet(l.buf)); err != nil {
				panic(err) // a Set of a valid value cannot fail
			}
		}
	})
}

// request makes the recipient's half of the opening exchange: its DBVV,
// the request codec both ways, and one warm round trip that finds the
// replicas identical (the O(1) case, here standing in for the network leg
// of every session).
func (l *ladder) request(parent int32) (vv.VV, error) {
	var req vv.VV
	l.step("core.Replica.PropagationRequest", parent, 1, func() { req = l.dst.PropagationRequest() })
	wreq := wire.Request{Kind: wire.KindPropagation, From: 1, DBVV: req, MaxBytes: transport.DefaultMonolithicCap}
	l.step("wire.AppendRequest", parent, 1, func() { l.enc = wire.AppendRequest(l.enc[:0], &wreq) })
	var derr error
	l.step("wire.DecodeRequest", parent, 1, func() {
		var back wire.Request
		derr = wire.DecodeRequest(l.enc, &back)
	})
	if derr != nil {
		return nil, derr
	}
	var perr error
	l.step("transport.Client.PullSession", parent, 1, func() {
		var p *core.Propagation
		p, perr = l.cli.PullSessionMetered(l.meter, l.srv.Addr(), "", 1, l.src.DBVV())
		if perr == nil && p != nil {
			perr = fmt.Errorf("noop exchange shipped %d items", len(p.Items))
		}
	})
	return req, perr
}

// session runs one whole session for m updates at the source, along the
// path the live nodes would take for it.
func (l *ladder) session(m int) error {
	l.ops++
	root := l.sb.begin("ladder.session", 0, l.ops, l.clk.now())
	defer func() { l.sb.end(root, l.clk.now(), 1) }()
	l.update(root, m, !l.spec.prune && l.spec.burst == 0)
	if l.spec.prune {
		return l.reconcile(root)
	}
	req, err := l.request(root)
	if err != nil {
		return err
	}
	plan := core.PlanMonolithic
	if !l.spec.shape.durable { // durable nodes ask for inline replies only
		l.step("core.Replica.PlanPropagation", root, 1, func() {
			plan = l.src.PlanPropagation(req, transport.DefaultMonolithicCap)
		})
	}
	if plan == core.PlanStream {
		return l.chunks(root, req)
	}
	return l.inline(root, req)
}

// inline is the monolithic path: build, encode, decode, (log,) apply, ack.
func (l *ladder) inline(parent int32, req vv.VV) error {
	var p, got *core.Propagation
	id := l.sb.begin("core.Replica.BuildPropagation"+l.tag, parent, l.ops, l.clk.now())
	p = l.src.BuildPropagation(req)
	if p == nil {
		return fmt.Errorf("ladder: nothing to ship")
	}
	items := len(p.Items)
	l.sb.end(id, l.clk.now(), items)
	l.step("wire.AppendPropagation", parent, items, func() { l.enc = wire.AppendPropagation(l.enc[:0], p) })
	l.shipped(items)
	var derr error
	l.step("wire.DecodePropagation", parent, items, func() { got, derr = wire.DecodePropagation(l.enc) })
	if derr != nil {
		return derr
	}
	if l.log != nil && l.tag == "" {
		var t wal.Ticket
		var werr error
		l.step("wal.WAL.Stage", parent, 1, func() { t, werr = l.log.Stage(l.enc) })
		if werr != nil {
			return werr
		}
		l.step("wal.Ticket.Wait", parent, 1, func() { werr = t.Wait() })
		if werr != nil {
			return werr
		}
		l.staged += int64(items * (keyBytes + valueSize))
	}
	l.step("core.Replica.ApplyPropagation", parent, items, func() { l.dst.ApplyPropagation(got) })
	l.step("core.Replica.NoteSessionAck", parent, 1, func() { l.dst.NoteSessionAck(got.Source, got) })
	return nil
}

// chunks is the streamed path, chunk by chunk on one goroutine. (The live
// path overlaps build, transfer and apply on three.)
func (l *ladder) chunks(parent int32, req vv.VV) error {
	var cs *core.ChunkSession
	l.step("core.Replica.StartChunkSession", parent, 1, func() { cs = l.src.StartChunkSession(req, core.DefaultChunkBytes) })
	if cs == nil {
		return fmt.Errorf("ladder: nothing to stream")
	}
	for seq := uint64(0); ; seq++ {
		var p *core.Propagation
		id := l.sb.begin("core.ChunkSession.Next"+l.tag, parent, l.ops, l.clk.now())
		p = cs.Next()
		if p == nil {
			l.sb.end(id, l.clk.now(), 0)
			return nil
		}
		items := len(p.Items)
		l.sb.end(id, l.clk.now(), items)
		l.step("wire.AppendSessionChunk", parent, items, func() { l.enc = wire.AppendSessionChunk(l.enc[:0], seq, p) })
		l.shipped(items)
		var got *core.Propagation
		var derr error
		l.step("wire.DecodeSessionChunkInto", parent, items, func() { _, got, derr = wire.DecodeSessionChunkInto(l.enc, l.spare) })
		if derr != nil {
			return derr
		}
		l.step("core.Replica.ApplyChunk", parent, items, func() { l.dst.ApplyChunk(got) })
		l.step("core.Replica.NoteSessionAck", parent, 1, func() { l.dst.NoteSessionAck(got.Source, got) })
		cs.Recycle(p)
		l.spare = got
	}
}

// reconcile prunes the source's log past the recipient and then catches
// the recipient up by fingerprint rounds and a fetch of the difference.
func (l *ladder) reconcile(parent int32) error {
	l.step("core.Replica.Prune", parent, 1, func() { l.src.Prune() })
	req, err := l.request(parent)
	if err != nil {
		return err
	}
	if !l.src.NeedsReconcile(req) {
		return fmt.Errorf("ladder: source can still serve the recipient from its log after pruning")
	}
	var rc *core.Reconciler
	l.step("core.Replica.StartReconcile", parent, 1, func() { rc = l.dst.StartReconcile() })
	for {
		var ranges []core.ReconcileRange
		l.step("core.Reconciler.Next", parent, 1, func() { ranges = rc.Next() })
		if ranges == nil {
			break
		}
		wreq := wire.Request{Kind: wire.KindReconcile, From: 1, Ranges: ranges}
		l.step("wire.AppendRequest", parent, 1, func() { l.enc = wire.AppendRequest(l.enc[:0], &wreq) })
		var replies []core.ReconcileReply
		l.step("core.Replica.ServeReconcile", parent, 1, func() { replies = l.src.ServeReconcile(ranges) })
		resp := wire.Response{Recon: replies}
		l.step("wire.AppendResponse", parent, 0, func() { l.enc = wire.AppendResponse(l.enc[:0], &resp) })
		var back wire.Response
		var derr error
		l.step("wire.DecodeResponse", parent, 0, func() { derr = wire.DecodeResponse(l.enc, &back) })
		if derr != nil {
			return derr
		}
		l.step("core.Reconciler.Handle", parent, 1, func() { rc.Handle(ranges, back.Recon) })
	}
	keys := rc.NeedKeys()
	for len(keys) > 0 {
		batch := keys
		if len(batch) > core.ReconcileFetchBatch {
			batch = batch[:core.ReconcileFetchBatch]
		}
		keys = keys[len(batch):]
		var items []core.ItemPayload
		l.step("core.Replica.BuildItems", parent, len(batch), func() { items = l.src.BuildItems(batch) })
		resp := wire.Response{Items: items}
		l.step("wire.AppendResponse", parent, len(items), func() { l.enc = wire.AppendResponse(l.enc[:0], &resp) })
		l.shipped(len(items))
		var back wire.Response
		var derr error
		l.step("wire.DecodeResponse", parent, len(items), func() { derr = wire.DecodeResponse(l.enc, &back) })
		if derr != nil {
			return derr
		}
		l.step("core.Replica.ApplyReconcileItems", parent, len(items), func() { l.dst.ApplyReconcileItems(back.Items, -1) })
	}
	// No check that the replicas now agree: on the parent commit a
	// reconciliation can miss items (README.md, "What the benchmark
	// found"); the live pass counts them in cluster.missed_after_catchup.
	return nil
}

// probe runs fn as one root span named name, with tag on every span under
// it.
func (l *ladder) probe(name, tag string, fn func(root int32) error) error {
	l.ops++
	l.tag = tag
	root := l.sb.begin(name, 0, l.ops, l.clk.now())
	err := fn(root)
	l.sb.end(root, l.clk.now(), 1)
	l.tag = ""
	return err
}

// probes runs the fixed-size measurements.
func (l *ladder) probes() error {
	for _, pr := range []struct{ m, sessions int }{{1, 200}, {64, 60}, {4096, 6}} {
		for s := 0; s < pr.sessions; s++ {
			err := l.probe("probe.inline", fmt.Sprintf(".m%d", pr.m), func(root int32) error {
				l.update(root, pr.m, false)
				return l.inline(root, l.dst.PropagationRequest())
			})
			if err != nil {
				return err
			}
		}
	}
	// One streamed session of 20000 distinct items (or the whole database
	// where it is smaller), and one reconciliation of a 1000-item
	// difference.
	m := 20000
	if m > len(l.in.keys) {
		m = len(l.in.keys)
	}
	err := l.probe("probe.chunked", ".probe", func(root int32) error {
		l.update(root, m, false)
		return l.chunks(root, l.dst.PropagationRequest())
	})
	if err != nil {
		return err
	}
	l.src.ConfigurePruning([]int{1})
	l.src.SetLogCap(64)
	err = l.probe("probe.reconcile", ".probe", func(root int32) error {
		l.update(root, 1000, false)
		return l.reconcile(root)
	})
	if err != nil {
		return err
	}
	if l.dur != nil {
		if err := l.durableProbe(); err != nil {
			return err
		}
	}
	l.primitives()
	return nil
}

// durableProbe times the durable layer's own write and apply paths on a
// shadow durable.Replica that first receives the source's whole state:
// single updates one after another (to keys of its own, so that it never
// competes with the source for an item), and the propagation of 64 items.
func (l *ladder) durableProbe() error {
	if _, err := l.dur.AntiEntropyFrom(l.src); err != nil {
		return err
	}
	for i := 0; i < 200; i++ {
		var err error
		l.in.fillValue(l.buf, laneStamp(1, i))
		key := fmt.Sprintf("probe-%06d", i%50)
		l.step("durable.Replica.Update", 0, 1, func() { err = l.dur.Update(key, op.NewSet(l.buf)) })
		if err != nil {
			return err
		}
	}
	for s := 0; s < 30; s++ {
		l.update(0, 64, false)
		p := l.src.BuildPropagation(l.dur.Core().PropagationRequest())
		if p == nil {
			return fmt.Errorf("ladder: nothing to ship to the durable probe")
		}
		var err error
		l.step("durable.Replica.ApplyPropagation", 0, len(p.Items), func() { err = l.dur.ApplyPropagation(p) })
		if err != nil {
			return err
		}
	}
	return nil
}

// primitives times the nanosecond-scale building blocks, 1024 calls to a
// span.
func (l *ladder) primitives() {
	const per, spans = 1024, 16
	n := l.spec.shape.nodes
	a, b := vv.New(n), vv.New(n)
	for i := 0; i < n; i++ {
		a[i], b[i] = uint64(1000+i), uint64(1000+2*i)
	}
	keys := l.in.keys
	st := store.New(n)
	comp := logvec.NewComponent()
	rg := ring.New(3, 16, 2)
	var seq uint64
	for s := 0; s < spans; s++ {
		l.step("vv.VV.Compare", 0, per, func() {
			for i := 0; i < per; i++ {
				sink += uint64(a.Compare(b))
			}
		})
		l.step("vv.VV.Merge", 0, per, func() {
			for i := 0; i < per; i++ {
				a.Merge(b)
			}
		})
		l.step("store.Store.Ensure", 0, per, func() {
			for i := 0; i < per; i++ {
				st.Ensure(keys[(s*per+i)%len(keys)])
			}
		})
		l.step("store.Store.Get", 0, per, func() {
			for i := 0; i < per; i++ {
				if st.Get(keys[(s*per+i*7)%len(keys)]) != nil {
					sink++
				}
			}
		})
		l.step("logvec.Component.Add", 0, per, func() {
			for i := 0; i < per; i++ {
				seq++
				comp.Add(keys[(s*per+i)%len(keys)], seq)
			}
		})
		l.step("logvec.Component.TailAfter", 0, per, func() {
			sink += uint64(comp.TailAfter(seq-per, func(*logvec.Record) {}))
		})
		l.step("ring.Ring.PartitionOf", 0, per, func() {
			for i := 0; i < per; i++ {
				sink += uint64(rg.PartitionOf(keys[(s*per+i)%len(keys)]))
			}
		})
	}
}

// runLadder builds the shadow rig, runs sessions of m items for about
// budget (at least 5, at most 2000), then the probes.
func runLadder(spec workloadSpec, in *inputs, workdir string, m int, budget time.Duration, sb *spanBuf) (*ladderOut, error) {
	dir, err := os.MkdirTemp(workdir, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := newLadder(spec, in, dir, sb)
	if err != nil {
		return nil, err
	}
	defer l.close()
	if spec.prune {
		l.src.ConfigurePruning([]int{1})
		l.src.SetLogCap(spec.shape.logCap)
	}
	if m < 1 {
		m = 1
	}
	end := l.clk.now() + int64(budget)
	sessions := 0
	for ; sessions < 5 || (sessions < 2000 && l.clk.now() < end); sessions++ {
		if err := l.session(m); err != nil {
			return nil, err
		}
	}
	out := &ladderOut{wireBytesPerItem: ratio(float64(l.wireBytes), float64(l.wireItems))}
	if l.log != nil && l.staged > 0 {
		if err := l.log.Flush(); err != nil {
			return nil, err
		}
		onDisk, err := dirBytes(l.walDir)
		if err != nil {
			return nil, err
		}
		out.walBytesPerUserByte = float64(onDisk) / float64(l.staged)
	}
	if err := l.probes(); err != nil {
		return nil, err
	}
	mm := l.meter.Metrics()
	out.bytesPerNoop = ratio(float64(mm.WireBytesSent+mm.WireBytesRecv), float64(mm.Dials+mm.ConnsReused))
	out.spans = sb.spans
	return out, nil
}

// spanStats groups spans by name for the per-layer arithmetic.
type spanStats map[string][]span

func groupSpans(spans []span) spanStats {
	g := make(spanStats)
	for _, s := range spans {
		g[s.Name] = append(g[s.Name], s)
	}
	return g
}

// perCall returns the median over the named spans of duration ÷ calls
// covered, in nanoseconds; spans covering no call are left out.
func (g spanStats) perCall(name string) float64 {
	var v []float64
	for _, s := range g[name] {
		if s.N > 0 {
			v = append(v, float64(s.End-s.Start)/float64(s.N))
		}
	}
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// sums returns the named spans' total duration and total calls covered.
func (g spanStats) sums(names ...string) (ns, calls float64) {
	for _, name := range names {
		for _, s := range g[name] {
			ns += float64(s.End - s.Start)
			calls += float64(s.N)
		}
	}
	return ns, calls
}
