package transport

// Streaming propagation sessions over the framed transport.
//
// A KindPartStream request turns one exchange into a bounded frame sequence
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
	"bufio"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/wire"
)

// DefaultMonolithicCap is the per-partition inline-payload ceiling pooled
// clients announce on KindPartPropagation requests: payload estimates above
// it make the source answer the partition "stream instead", and the client
// drains it over a KindPartStream session. Chosen a few chunks large, so steady-state gossip stays on the
// cheaper single-exchange path and only bulk catch-up streams.
const DefaultMonolithicCap = 1 << 20

// SetChunkBytes overrides the server's chunk payload budget for streamed
// sessions (0 restores core.DefaultChunkBytes). Safe to call while serving.
func (s *Server) SetChunkBytes(n uint64) { s.chunkBytes.Store(n) }

// serveStream answers one KindPartStream request with a session frame
// sequence; the node's LocalPeer admits the session (or diverts it, or
// refuses a partition this node does not replicate). The builder goroutine
// cuts the next chunk while this goroutine encodes and ships the previous
// one; every chunk frame is flushed individually so the recipient can
// apply it while later chunks are still being built. Any write error aborts the session (the client observes a
// truncated stream and the connection is closed); the builder is unblocked
// via stop and the already-shipped prefix remains fully applied downstream.
func (s *Server) serveStream(bw *bufio.Writer, req *wire.Request, scratch *[]byte) error {
	cur, reconcile, err := s.local.OpenStream(req.From, req.Part, req.DBVV, s.chunkBytes.Load())
	if err != nil {
		begin := wire.SessionBegin{Source: -1, Err: err.Error()}
		*scratch = wire.AppendSessionBegin((*scratch)[:0], &begin)
		if err := wire.WriteFrame(bw, wire.KindSessionBegin, *scratch); err != nil {
			return err
		}
		return bw.Flush()
	}
	if reconcile {
		// The requester's DBVV predates the pruned log prefix: no chunked
		// session can serve it. Answer with a reconcile-diverted header and
		// an empty trailer so the frame alternation stays clean.
		begin := wire.SessionBegin{Source: s.parted.ID(), Reconcile: true}
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

	begin := wire.SessionBegin{Source: s.parted.ID(), Current: cur == nil}
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

// runStream runs one KindPartStream session request against addr, handing
// each chunk to apply, retrying once on a fresh dial when a pooled
// connection turns out stale before yielding a single frame. reconcile
// reports a reconcile-diverted session: the source pruned past the
// request's DBVV and shipped nothing. A failed apply ends the session with
// its error, and the connection, mid-stream, is closed rather than pooled.
// The wire cost is charged to r.
func (c *Client) runStream(r *core.Replica, addr string, req *wire.Request, apply func(*core.Propagation) error) (reconcile bool, err error) {
	pc, reused, err := c.pool.get(addr)
	if err != nil {
		return false, err
	}
	for {
		var st tripStats
		st.dialed = !reused
		st.reused = reused
		sent0, recv0 := pc.cw.n, pc.cr.n
		reconcile, started, err := streamOn(pc, req, apply)
		st.sent, st.recv = pc.cw.n-sent0, pc.cr.n-recv0
		st.charge(r)
		if err == nil {
			c.pool.put(addr, pc)
			return reconcile, nil
		}
		pc.conn.Close()
		if started || !reused {
			// Frames were already received (partial sessions stay partially
			// applied; the next pull resumes from the advanced DBVV), or the
			// dial was fresh: surface the error.
			return reconcile, err
		}
		// Stale pooled connection that died before yielding a single frame:
		// retry once on a fresh dial, bypassing the pool.
		reused = false
		pc, err = c.pool.dial(addr)
		if err != nil {
			return false, err
		}
	}
}

// streamOn runs one streaming session on the connection: send the request,
// then apply the chunk stream. started reports whether any session frame
// was received (a session that started must not be retried on another
// connection — its applied prefix belongs to this request's DBVV);
// reconcile reports a reconcile-diverted session header. The first error
// apply returns stops the applier and the read loop, and is returned.
func streamOn(pc *poolConn, req *wire.Request, apply func(*core.Propagation) error) (reconcile, started bool, err error) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	*buf = wire.AppendRequest((*buf)[:0], req)
	if err := wire.WriteFrame(pc.bw, wire.FrameRequest, *buf); err != nil {
		return false, false, fmt.Errorf("transport: send request: %w", err)
	}
	if err := pc.bw.Flush(); err != nil {
		return false, false, fmt.Errorf("transport: send request: %w", err)
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
	failed := make(chan struct{}) // closed once applyErr is set
	var applyErr error
	go func() {
		defer close(applierDone)
		for p := range chunks {
			if applyErr = apply(p); applyErr != nil {
				close(failed)
				return
			}
			select {
			case free <- p:
			default:
			}
		}
	}()
	defer func() {
		close(chunks)
		<-applierDone
		if err == nil {
			err = applyErr
		}
	}()

	var sr wire.SessionReader
	for {
		frameType, payload, err := wire.ReadSessionFrame(pc.br, pc.frameBuf)
		if err != nil {
			return reconcile, started, fmt.Errorf("transport: read session frame: %w", err)
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
			return reconcile, started, fmt.Errorf("transport: %w", err)
		}
		reconcile = sr.Begin().Reconcile
		if chunk != nil {
			select {
			case chunks <- chunk:
			case <-failed:
				return reconcile, started, applyErr
			}
		}
		if done {
			return reconcile, started, nil
		}
	}
}
