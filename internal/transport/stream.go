package transport

// Streaming propagation sessions over the framed transport.
//
// A KindStream request turns one exchange into a bounded frame sequence
// (wire.KindSessionBegin / KindSessionChunk / KindSessionEnd) on the same
// pooled connection. The session forms a three-stage pipeline:
//
//	source: builder goroutine cuts chunk k+1   (internal/core ChunkSession)
//	wire:   connection goroutine ships chunk k (this file, both ends)
//	sink:   applier goroutine commits chunk k-1 (internal/core ApplyChunk)
//
// so build, transfer and apply overlap and each side holds O(chunk) payload
// bytes at a time. Because every applied chunk durably advances the
// recipient's DBVV, a connection drop mid-session needs no resume
// machinery: the next pull's request carries the advanced DBVV and the
// source re-ships nothing already applied.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// DefaultMonolithicCap is the monolithic-response ceiling pooled clients
// announce on KindPropagation requests: payload estimates above it make the
// source reply "stream instead", and the client re-pulls over a KindStream
// session. Chosen a few chunks large, so steady-state gossip stays on the
// cheaper single-exchange path and only bulk catch-up streams.
const DefaultMonolithicCap = 1 << 20

// SetChunkBytes overrides the server's chunk payload budget for streamed
// sessions (0 restores core.DefaultChunkBytes). Safe to call while serving.
func (s *Server) SetChunkBytes(n uint64) { s.chunkBytes.Store(n) }

func (s *Server) chunkBudget() uint64 {
	if n := s.chunkBytes.Load(); n > 0 {
		return n
	}
	return core.DefaultChunkBytes
}

// serveStream answers one KindStream request with a session frame
// sequence. The builder goroutine cuts the next chunk while this goroutine
// encodes and ships the previous one; every chunk frame is flushed
// individually so the recipient can apply it while later chunks are still
// being built. Any write error aborts the session (the client observes a
// truncated stream and the connection is closed); the builder is unblocked
// via stop and the already-shipped prefix remains fully applied downstream.
func (s *Server) serveStream(bw flushWriter, replica *core.Replica, errmsg string, req *wire.Request, scratch *[]byte) error {
	if replica == nil {
		begin := wire.SessionBegin{Source: -1, Err: errmsg}
		*scratch = wire.AppendSessionBegin((*scratch)[:0], &begin)
		if err := wire.WriteFrame(bw, wire.KindSessionBegin, *scratch); err != nil {
			return err
		}
		return bw.Flush()
	}

	replica.NoteAck(req.From, req.DBVV)
	if replica.NeedsReconcile(req.DBVV) {
		// The requester's DBVV predates the pruned log prefix: no chunked
		// session can serve it. Answer with a reconcile-diverted header and
		// an empty trailer so the frame alternation stays clean.
		begin := wire.SessionBegin{Source: replica.ID(), Reconcile: true}
		*scratch = wire.AppendSessionBegin((*scratch)[:0], &begin)
		if err := wire.WriteFrame(bw, wire.KindSessionBegin, *scratch); err != nil {
			return err
		}
		end := wire.SessionEnd{}
		*scratch = wire.AppendSessionEnd((*scratch)[:0], &end)
		if err := wire.WriteFrame(bw, wire.KindSessionEnd, *scratch); err != nil {
			return err
		}
		return bw.Flush()
	}

	cur := replica.StartChunkSession(req.DBVV, s.chunkBudget())
	begin := wire.SessionBegin{Source: replica.ID(), Current: cur == nil}
	*scratch = wire.AppendSessionBegin((*scratch)[:0], &begin)
	if err := wire.WriteFrame(bw, wire.KindSessionBegin, *scratch); err != nil {
		return err
	}
	// Flush the header on its own so the recipient learns the session
	// outcome before the first chunk finishes building. The yield after
	// each flush keeps the pipeline fair when both ends share a processor
	// (tests, loopback, single-core hosts): without it the builder
	// goroutine keeps the runqueue busy and the recipient — runnable the
	// moment the flush lands — waits out a full preemption slice, which
	// would defeat the streamed path's first-apply latency win. On
	// multi-core hosts the yield is a no-op in the noise.
	if err := bw.Flush(); err != nil {
		return err
	}
	runtime.Gosched()

	var seq, records uint64
	if cur != nil {
		chunks := make(chan *core.Propagation, 1)
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			defer close(chunks)
			for {
				p := cur.Next()
				if p == nil {
					return
				}
				select {
				case chunks <- p:
				case <-stop:
					return
				}
			}
		}()
		for p := range chunks {
			*scratch = wire.AppendSessionChunk((*scratch)[:0], seq, p)
			if err := wire.WriteFrame(bw, wire.KindSessionChunk, *scratch); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			runtime.Gosched() // see the header flush above
			cur.Recycle(p)
			seq++
		}
		// The chunk channel is closed, so the builder has exited and the
		// cursor's totals are stable.
		records = cur.Records()
	}

	end := wire.SessionEnd{Chunks: seq, Records: records}
	*scratch = wire.AppendSessionEnd((*scratch)[:0], &end)
	if err := wire.WriteFrame(bw, wire.KindSessionEnd, *scratch); err != nil {
		return err
	}
	return bw.Flush()
}

// flushWriter is the buffered-writer surface serveStream needs; satisfied
// by *bufio.Writer and by test doubles that cut the stream mid-frame.
type flushWriter interface {
	Write(p []byte) (int, error)
	Flush() error
}

// PullStream performs one streaming propagation session: the sink pulls
// from the server at addr chunk by chunk, committing each chunk as it
// arrives. It returns true when data was shipped, false when the sink was
// already current. Streamed chunks apply straight to the replica, so only
// an in-memory sink streams; any other sink runs an ordinary Pull, whose
// inline payload it can log before applying.
func (c *Client) PullStream(s Sink, addr string) (bool, error) {
	m, ok := s.(memSink)
	if !ok {
		return c.Pull(s, addr)
	}
	return c.pullStream(m.r, addr)
}

func (c *Client) pullStream(recipient *core.Replica, addr string) (bool, error) {
	shipped := false
	for attempt := 0; ; attempt++ {
		req := &wire.Request{Kind: wire.KindStream, From: recipient.ID(), DBVV: recipient.PropagationRequest()}
		ok, reconcile, err := c.runStream(recipient, addr, req)
		shipped = shipped || ok
		if err != nil || !reconcile || attempt > 0 {
			// A second diversion (conflicts, races) ends the session rather
			// than looping; the next scheduled pull tries again.
			return shipped, err
		}
		adopted, err := c.reconcileWith(memSink{recipient}, addr, 0)
		if err != nil {
			return shipped, err
		}
		shipped = shipped || adopted > 0
	}
}

// runStream drives one streaming session request (KindStream, or
// KindPartStream from the partitioned client) against addr with recipient
// as the sink, retrying once on a fresh dial when a pooled connection turns
// out stale before yielding a single frame. Requires the framed transport.
// reconcile reports a reconcile-diverted session: the source pruned past
// the request's DBVV and shipped nothing.
func (c *Client) runStream(recipient *core.Replica, addr string, req *wire.Request) (shipped, reconcile bool, err error) {
	start := time.Now()

	pc, reused, err := c.pool.get(addr)
	if err != nil {
		return false, false, err
	}
	for {
		var st tripStats
		st.dialed = !reused
		st.reused = reused
		sent0, recv0 := pc.cw.n, pc.cr.n
		shipped, reconcile, started, err := streamOn(pc, recipient, req, start)
		st.sent, st.recv = pc.cw.n-sent0, pc.cr.n-recv0
		st.charge(recipient)
		if err == nil {
			c.pool.put(addr, pc)
			return shipped, reconcile, nil
		}
		pc.conn.Close()
		if started || !reused {
			// Frames were already received (partial sessions stay partially
			// applied; the next pull resumes from the advanced DBVV), or the
			// dial was fresh: surface the error.
			return shipped, reconcile, err
		}
		// Stale pooled connection that died before yielding a single frame:
		// retry once on a fresh dial, bypassing the pool.
		reused = false
		pc, err = c.pool.dial(addr)
		if err != nil {
			return false, false, err
		}
	}
}

// streamOn runs one streaming session on the connection: send the request,
// then apply the chunk stream. started reports whether any session frame
// was received (a session that started must not be retried on another
// connection — its applied prefix belongs to this request's DBVV);
// reconcile reports a reconcile-diverted session header.
func streamOn(pc *poolConn, recipient *core.Replica, req *wire.Request, start time.Time) (shipped, reconcile, started bool, err error) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	*buf = wire.AppendRequest((*buf)[:0], req)
	if err := wire.WriteFrame(pc.bw, wire.FrameRequest, *buf); err != nil {
		return false, false, false, fmt.Errorf("transport: send request: %w", err)
	}
	if err := pc.bw.Flush(); err != nil {
		return false, false, false, fmt.Errorf("transport: send request: %w", err)
	}

	// Pipeline, recipient half: the applier goroutine commits chunk k-1
	// while this goroutine reads and decodes chunk k. Decoded chunks own
	// their memory (the wire decoder copies out of the frame buffer), so
	// the frame buffer is free for reuse immediately. Applied chunk shells
	// flow back through free and are decoded into again, so in steady state
	// the session's slice garbage is a ring of a few shells.
	chunks := make(chan *core.Propagation, 1)
	free := make(chan *core.Propagation, 4)
	applierDone := make(chan struct{})
	go func() {
		defer close(applierDone)
		first := true
		for p := range chunks {
			recipient.ApplyChunk(p)
			if first {
				first = false
				recipient.RecordStreamFirstApply(time.Since(start))
			}
			// Every applied chunk teaches us a floor of the source's own
			// state (its tails end at the source's DBVV components), feeding
			// our acked table for pruning.
			recipient.NoteSessionAck(p.Source, p)
			select {
			case free <- p:
			default:
			}
		}
	}()
	defer func() {
		close(chunks)
		<-applierDone
	}()

	var sr wire.SessionReader
	for {
		frameType, payload, err := wire.ReadSessionFrame(pc.br, pc.frameBuf)
		if err != nil {
			return shipped, reconcile, started, fmt.Errorf("transport: read session frame: %w", err)
		}
		started = true
		pc.frameBuf = payload
		var spare *core.Propagation
		if frameType == wire.KindSessionChunk {
			select {
			case spare = <-free:
			default:
			}
		}
		chunk, done, err := sr.FeedInto(frameType, payload, spare)
		if err != nil {
			return shipped, reconcile, started, fmt.Errorf("transport: %w", err)
		}
		reconcile = sr.Begin().Reconcile
		if chunk != nil {
			shipped = true
			chunks <- chunk
		}
		if done {
			return shipped, reconcile, started, nil
		}
	}
}
