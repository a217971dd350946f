// Package wire implements the compact binary wire codec and frame layer of
// the TCP transport's hot path.
//
// The seed transport spoke gob, one connection per exchange. That re-sends
// gob's self-describing type descriptors on every session, and at gossip
// rates the descriptors dwarf the O(1) "you-are-current" reply the paper's
// protocol is built around (§6). This package replaces gob with an explicit
// binary encoding — varint version vectors, length-prefixed strings, redo
// ops in their existing internal/op marshal format — framed so that many
// request/response exchanges can share one persistent TCP connection.
//
// # Connection preamble
//
// A client opening a framed connection first sends two bytes:
//
//	[Magic 0xEB] [Version 0x02]
//
// The magic byte is a sanity check that the peer speaks this codec at all;
// the version byte names the codec below. A wrong magic or an unknown
// version is rejected by closing the connection without a reply.
//
// # Frames
//
// After the preamble, both directions carry a sequence of frames:
//
//	[type byte] [uvarint payload length] [payload]
//
// Frame types are FrameRequest (client to server) and FrameResponse
// (server to client); exchanges alternate strictly on one connection
// (concurrency comes from pooling connections, not multiplexing frames).
// Payload length is capped at MaxFrame; anything malformed — wrong type,
// oversized length, truncated or undecodable payload — is answered by
// closing the connection, never by panicking.
//
// # Messages
//
// Payloads are Request and Response values encoded with the Append*/Decode*
// functions in this package. All integers are varints, all byte strings are
// uvarint-length-prefixed, version vectors use vv.AppendBinary, and redo
// operations reuse op.(Op).Marshal. Decoders validate every count against
// the bytes actually present, so corrupt frames cannot force huge
// allocations.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

// Wire-level constants.
const (
	// Magic is the first byte of a framed connection: a sanity check that
	// the peer speaks this codec, rejected by closing when it differs.
	Magic = 0xEB
	// Version is the codec version this package speaks. Version 2 dropped
	// the request's database name; a version-1 peer is closed at the
	// preamble instead of being misparsed.
	Version = 2
	// FrameRequest marks a client-to-server frame.
	FrameRequest = 0x01
	// FrameResponse marks a server-to-client frame.
	FrameResponse = 0x02
	// MaxFrame bounds a frame payload; larger lengths are treated as
	// corruption.
	MaxFrame = 1 << 30
)

// Kind selects the exchange a Request opens. It mirrors the protocol kinds
// of §5.
type Kind uint8

// Exchange kinds.
const (
	// KindPropagation opens an update-propagation session (§5.1).
	KindPropagation Kind = iota + 1
	// KindOOB requests an out-of-bound copy of one item (§5.2).
	KindOOB
	// KindFetch requests full copies of named items — the second round of
	// a delta-mode propagation session.
	KindFetch
	// KindStream opens a streaming propagation session: instead of one
	// Response frame, the server answers with a session frame sequence
	// (KindSessionBegin, zero or more KindSessionChunk, KindSessionEnd);
	// see stream.go.
	KindStream
	// KindPartPropagation opens a partitioned propagation session: the
	// request carries one (partition id, DBVV) pair per partition the
	// recipient replicates, and the response answers every pair — unowned,
	// current, an inline payload, or a diversion to a per-partition
	// KindPartStream session. One round trip negotiates and settles every
	// clean partition at one DBVV comparison each.
	KindPartPropagation
	// KindPartStream opens a streaming propagation session for a single
	// keyspace partition (Request.Part); the frame sequence is identical to
	// KindStream's.
	KindPartStream
	// KindReconcile drives one round of range-based set reconciliation: the
	// request carries the recipient's unresolved ranges (Request.Ranges),
	// the response one verdict per range (Response.Recon). Used when the
	// recipient's DBVV predates the source's pruned-log watermark, so a
	// log-based session can no longer serve it; see core.ServeReconcile.
	KindReconcile
)

// Request is the recipient-to-source message opening an exchange.
type Request struct {
	// Kind selects the exchange type.
	Kind Kind
	// From is the requesting server's id (for conflict attribution).
	From int
	// DBVV is the recipient's database version vector (propagation only).
	DBVV vv.VV
	// Key is the requested item (out-of-bound only).
	Key string
	// Keys are the items needing full copies (second-round fetch only).
	Keys []string
	// MaxBytes, when non-zero on a KindPropagation request, caps the
	// monolithic response: a source whose payload estimate exceeds it
	// replies with Response.Stream set instead of building the payload,
	// and the recipient re-pulls over a KindStream session. Zero means
	// uncapped. On a KindPartPropagation request it caps
	// each partition's inline payload the same way.
	MaxBytes uint64
	// Parts is the partitioned session negotiation (KindPartPropagation
	// only): the recipient's DBVV for every partition it replicates,
	// ascending by pid. Encoded only for that kind, so every other kind's
	// encoding is byte-identical to the pre-partitioning codec.
	Parts []core.PartState
	// Part is the keyspace partition a KindPartStream session drains (or a
	// KindReconcile exchange targets, on a partitioned server);
	// Request.DBVV carries the recipient's DBVV for that partition.
	Part int
	// Ranges carries the recipient's unresolved fingerprint ranges
	// (KindReconcile only). Encoded only for that kind, so every other
	// kind's encoding is byte-identical to the pre-reconciliation codec.
	Ranges []core.ReconcileRange
}

// Response is the source-to-recipient reply.
type Response struct {
	// Current is true when the recipient's DBVV dominates or equals the
	// source's: the "you-are-current" message of Fig. 2.
	Current bool
	// Prop carries the tail vector and item set when Current is false.
	Prop *core.Propagation
	// OOB carries the out-of-bound reply for KindOOB requests.
	OOB *core.OOBReply
	// Items carries the full copies for KindFetch requests.
	Items []core.ItemPayload
	// Stream reports that the propagation payload exceeded the request's
	// MaxBytes cap and was withheld; the recipient should open a KindStream
	// session instead.
	Stream bool
	// Parts answers a KindPartPropagation request, one entry per offered
	// partition, in the request's order.
	Parts []PartReply
	// Reconcile reports that the request's DBVV predates the source's
	// pruned-log watermark: a log-based session cannot serve it, and the
	// recipient should run a KindReconcile exchange before re-pulling.
	Reconcile bool
	// Recon carries the per-range verdicts answering a KindReconcile
	// request, in the request's range order.
	Recon []core.ReconcileReply
	// Err carries a server-side error description, empty on success.
	Err string
}

// PartReply is the source's verdict for one offered partition of a
// partitioned propagation session. Exactly one of the five outcomes holds:
// the source does not replicate the partition (Unowned), the recipient is
// current (Current), the payload rides inline (Prop), it exceeded the
// request's cap and must be pulled over a KindPartStream session (Stream),
// or the partition's DBVV predates the source's pruned watermark and must
// be reconciled first (Reconcile).
type PartReply struct {
	Pid       int
	Unowned   bool
	Current   bool
	Stream    bool
	Reconcile bool
	Prop      *core.Propagation
}

// Buffer pooling: encode scratch and frame-read buffers are recycled so the
// steady-state hot path allocates nothing proportional to message size.

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer returns a recycled scratch buffer of zero length. Release it
// with PutBuffer when done.
//
//epi:hotpath
func GetBuffer() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer. Oversized buffers
// (from pathological messages) are dropped rather than pinned in the pool.
//
//epi:hotpath
func PutBuffer(b *[]byte) {
	if cap(*b) > 1<<22 {
		return
	}
	bufPool.Put(b)
}

// WritePreamble writes the magic and version bytes opening a framed
// connection.
func WritePreamble(w io.Writer) error {
	_, err := w.Write([]byte{Magic, Version})
	return err
}

// ReadPreamble consumes and validates the connection preamble.
func ReadPreamble(r *bufio.Reader) error {
	var pre [2]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return err
	}
	if pre[0] != Magic {
		return fmt.Errorf("wire: bad magic 0x%02x", pre[0])
	}
	if pre[1] != Version {
		return fmt.Errorf("wire: unsupported codec version %d", pre[1])
	}
	return nil
}

// WriteFrame writes one frame: type byte, uvarint length, payload.
//
//epi:hotpath
func WriteFrame(w io.Writer, frameType byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds limit", len(payload))
	}
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = frameType
	n := binary.PutUvarint(hdr[1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:1+n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame of the expected type into buf (growing it as
// needed) and returns the payload slice. Any malformation is an error; the
// caller is expected to close the connection.
//
//epi:hotpath
func ReadFrame(r *bufio.Reader, wantType byte, buf []byte) ([]byte, error) {
	frameType, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if frameType != wantType {
		return nil, fmt.Errorf("wire: frame type 0x%02x, want 0x%02x", frameType, wantType)
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("wire: frame length: %w", err)
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("wire: frame payload %d exceeds limit", size)
	}
	if uint64(cap(buf)) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wire: frame body: %w", err)
	}
	return buf, nil
}

// ---- Request ----

// AppendRequest appends the binary encoding of req to buf.
//
//epi:hotpath
func AppendRequest(buf []byte, req *Request) []byte {
	buf = append(buf, byte(req.Kind))
	buf = binary.AppendVarint(buf, int64(req.From))
	buf = req.DBVV.AppendBinary(buf)
	buf = appendString(buf, req.Key)
	buf = binary.AppendUvarint(buf, uint64(len(req.Keys)))
	for _, k := range req.Keys {
		buf = appendString(buf, k)
	}
	buf = binary.AppendUvarint(buf, req.MaxBytes)
	// Partition fields are gated on the kinds that define them, keeping
	// every pre-partitioning kind's encoding byte-identical.
	if req.Kind == KindPartPropagation {
		buf = binary.AppendUvarint(buf, uint64(len(req.Parts)))
		for i := range req.Parts {
			buf = binary.AppendUvarint(buf, uint64(req.Parts[i].Pid))
			buf = req.Parts[i].DBVV.AppendBinary(buf)
		}
	}
	if req.Kind == KindPartStream {
		buf = binary.AppendUvarint(buf, uint64(req.Part))
	}
	if req.Kind == KindReconcile {
		buf = binary.AppendUvarint(buf, uint64(len(req.Ranges)))
		for i := range req.Ranges {
			buf = appendReconcileRange(buf, &req.Ranges[i])
		}
		buf = binary.AppendUvarint(buf, uint64(req.Part))
	}
	return buf
}

// DecodeRequest decodes a Request from buf, which must contain exactly one
// encoded request.
//
//epi:hotpath
func DecodeRequest(buf []byte, req *Request) error {
	d := decoder{buf: buf}
	req.Kind = Kind(d.byte())
	req.From = int(d.varint())
	req.DBVV = d.vv()
	req.Key = d.string()
	n := d.count()
	req.Keys = nil
	for i := uint64(0); i < n && d.err == nil; i++ {
		req.Keys = append(req.Keys, d.string())
	}
	req.MaxBytes = d.uvarint()
	req.Parts = nil
	req.Part = 0
	if req.Kind == KindPartPropagation {
		nparts := d.count()
		for i := uint64(0); i < nparts && d.err == nil; i++ {
			req.Parts = append(req.Parts, core.PartState{Pid: int(d.uvarint()), DBVV: d.vv()})
		}
	}
	if req.Kind == KindPartStream {
		req.Part = int(d.uvarint())
	}
	req.Ranges = nil
	if req.Kind == KindReconcile {
		nranges := d.count()
		for i := uint64(0); i < nranges && d.err == nil; i++ {
			req.Ranges = append(req.Ranges, d.reconcileRange())
		}
		req.Part = int(d.uvarint())
	}
	return d.finish("request")
}

// RequestWireSize is the exact encoded size of req, term for term with
// AppendRequest — including the kind-gated partition and reconcile
// sections — so transport accounting and session planning can budget a
// request without encoding it. wirecheck enforces that every kind-gated
// arm here stays in sync with AppendRequest/DecodeRequest, and the
// exactness test pins the sum against the codec across every kind.
//
//epi:hotpath
func RequestWireSize(req *Request) uint64 {
	size := 1 + varintSize(int64(req.From)) + uint64(req.DBVV.BinarySize()) + stringSize(len(req.Key)) +
		uvarintSize(uint64(len(req.Keys)))
	for _, k := range req.Keys {
		size += stringSize(len(k))
	}
	size += uvarintSize(req.MaxBytes)
	if req.Kind == KindPartPropagation {
		size += uvarintSize(uint64(len(req.Parts)))
		for i := range req.Parts {
			size += uvarintSize(uint64(req.Parts[i].Pid)) + uint64(req.Parts[i].DBVV.BinarySize())
		}
	}
	if req.Kind == KindPartStream {
		size += uvarintSize(uint64(req.Part))
	}
	if req.Kind == KindReconcile {
		size += uvarintSize(uint64(len(req.Ranges)))
		for i := range req.Ranges {
			rr := &req.Ranges[i]
			size += 1 + stringSize(len(rr.Lo)) + stringSize(len(rr.Hi)) + 8 + uvarintSize(rr.Count)
		}
		size += uvarintSize(uint64(req.Part))
	}
	return size
}

// stringSize is the encoded size of a length-prefixed string of n bytes.
func stringSize(n int) uint64 {
	return uvarintSize(uint64(n)) + uint64(n)
}

// uvarintSize is the byte length of binary.AppendUvarint(x).
func uvarintSize(x uint64) uint64 {
	n := uint64(1)
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintSize is the byte length of binary.AppendVarint(x) (zigzag).
func varintSize(x int64) uint64 {
	return uvarintSize(uint64(x)<<1 ^ uint64(x>>63))
}

// ---- Response ----

// Response flag bits.
const (
	respCurrent = 1 << iota
	respProp
	respOOB
	respItems
	respErr
	respStream
	respParts
	// respReconcile marks a reconcile section: one sub-flag byte
	// (reconDivert, reconReplies) followed by the replies when present.
	respReconcile
)

// Reconcile section sub-flag bits (present only when respReconcile is set).
const (
	reconDivert  = 1 << iota // recipient must fall back to reconciliation
	reconReplies             // per-range replies to a KindReconcile request
)

// PartReply flag bits.
const (
	partUnowned = 1 << iota
	partCurrent
	partStream
	partProp
	partReconcile
)

// AppendResponse appends the binary encoding of resp to buf.
//
//epi:hotpath
func AppendResponse(buf []byte, resp *Response) []byte {
	var flags byte
	if resp.Current {
		flags |= respCurrent
	}
	if resp.Prop != nil {
		flags |= respProp
	}
	if resp.OOB != nil {
		flags |= respOOB
	}
	if resp.Items != nil {
		flags |= respItems
	}
	if resp.Err != "" {
		flags |= respErr
	}
	if resp.Stream {
		flags |= respStream
	}
	if resp.Parts != nil {
		flags |= respParts
	}
	if resp.Reconcile || resp.Recon != nil {
		flags |= respReconcile
	}
	buf = append(buf, flags)
	if resp.Prop != nil {
		buf = appendPropagation(buf, resp.Prop)
	}
	if resp.OOB != nil {
		buf = appendOOB(buf, resp.OOB)
	}
	if resp.Items != nil {
		buf = binary.AppendUvarint(buf, uint64(len(resp.Items)))
		for i := range resp.Items {
			buf = appendItem(buf, &resp.Items[i])
		}
	}
	if resp.Parts != nil {
		buf = binary.AppendUvarint(buf, uint64(len(resp.Parts)))
		for i := range resp.Parts {
			pe := &resp.Parts[i]
			buf = binary.AppendUvarint(buf, uint64(pe.Pid))
			var pf byte
			if pe.Unowned {
				pf |= partUnowned
			}
			if pe.Current {
				pf |= partCurrent
			}
			if pe.Stream {
				pf |= partStream
			}
			if pe.Prop != nil {
				pf |= partProp
			}
			if pe.Reconcile {
				pf |= partReconcile
			}
			buf = append(buf, pf)
			if pe.Prop != nil {
				buf = appendPropagation(buf, pe.Prop)
			}
		}
	}
	if resp.Reconcile || resp.Recon != nil {
		var rf byte
		if resp.Reconcile {
			rf |= reconDivert
		}
		if resp.Recon != nil {
			rf |= reconReplies
		}
		buf = append(buf, rf)
		if resp.Recon != nil {
			buf = binary.AppendUvarint(buf, uint64(len(resp.Recon)))
			for i := range resp.Recon {
				buf = appendReconcileReply(buf, &resp.Recon[i])
			}
		}
	}
	if resp.Err != "" {
		buf = appendString(buf, resp.Err)
	}
	return buf
}

// DecodeResponse decodes a Response from buf, which must contain exactly
// one encoded response.
//
//epi:hotpath
func DecodeResponse(buf []byte, resp *Response) error {
	d := decoder{buf: buf}
	flags := d.byte()
	*resp = Response{Current: flags&respCurrent != 0, Stream: flags&respStream != 0}
	if flags&respProp != 0 {
		resp.Prop = d.propagation()
	}
	if flags&respOOB != 0 {
		oob := d.oob()
		resp.OOB = &oob
	}
	if flags&respItems != 0 {
		n := d.count()
		resp.Items = make([]core.ItemPayload, 0, min(n, 1024))
		for i := uint64(0); i < n && d.err == nil; i++ {
			resp.Items = append(resp.Items, d.item())
		}
	}
	if flags&respParts != 0 {
		n := d.count()
		resp.Parts = make([]PartReply, 0, min(n, 1024))
		for i := uint64(0); i < n && d.err == nil; i++ {
			pe := PartReply{Pid: int(d.uvarint())}
			pf := d.byte()
			pe.Unowned = pf&partUnowned != 0
			pe.Current = pf&partCurrent != 0
			pe.Stream = pf&partStream != 0
			pe.Reconcile = pf&partReconcile != 0
			if pf&partProp != 0 {
				pe.Prop = d.propagation()
			}
			resp.Parts = append(resp.Parts, pe)
		}
	}
	if flags&respReconcile != 0 {
		decodeReconSection(&d, resp)
	}
	if flags&respErr != 0 {
		resp.Err = d.string()
	}
	return d.finish("response")
}

// decodeReconSection decodes the reconcile sub-section of a response. Kept
// out of the hotpath decode body (and out of its inliner): the reply slice
// allocates, and reconcile frames run only during catch-up, never on the
// per-propagation path the hotalloc gate protects.
//
//go:noinline
func decodeReconSection(d *decoder, resp *Response) {
	rf := d.byte()
	resp.Reconcile = rf&reconDivert != 0
	if rf&reconReplies != 0 {
		n := d.count()
		resp.Recon = make([]core.ReconcileReply, 0, min(n, 1024))
		for i := uint64(0); i < n && d.err == nil; i++ {
			resp.Recon = append(resp.Recon, d.reconcileReply())
		}
	}
}

// ---- Propagation ----

func appendPropagation(buf []byte, p *core.Propagation) []byte {
	buf = binary.AppendVarint(buf, int64(p.Source))
	buf = binary.AppendUvarint(buf, uint64(len(p.Tails)))
	for _, tail := range p.Tails {
		buf = binary.AppendUvarint(buf, uint64(len(tail)))
		for _, rec := range tail {
			buf = appendString(buf, rec.Key)
			buf = binary.AppendUvarint(buf, rec.Seq)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Items)))
	for i := range p.Items {
		buf = appendItem(buf, &p.Items[i])
	}
	return buf
}

// AppendPropagation appends the binary encoding of p to buf. Exported for
// the codec's tests and benchmarks; the transport ships propagations inside
// Response frames.
func AppendPropagation(buf []byte, p *core.Propagation) []byte {
	return appendPropagation(buf, p)
}

// DecodePropagation decodes a Propagation from buf, which must contain
// exactly one encoded propagation.
func DecodePropagation(buf []byte) (*core.Propagation, error) {
	d := decoder{buf: buf}
	p := d.propagation()
	if err := d.finish("propagation"); err != nil {
		return nil, err
	}
	return p, nil
}

func (d *decoder) propagation() *core.Propagation {
	p := &core.Propagation{}
	d.propagationInto(p)
	return p
}

// propagationInto decodes a propagation into p, reusing p's backing slices
// where their capacity allows. The streamed path decodes successive chunks
// of near-identical shape into recycled shells (transport hands applied
// chunks back via SessionReader.FeedInto), so in steady state a catch-up's
// decoder allocates slabs and little else. Every field of p is overwritten.
func (d *decoder) propagationInto(p *core.Propagation) {
	p.Source = int(d.varint())
	p.Owned = false
	ntails := d.count()
	if d.err != nil {
		p.Tails, p.Items = nil, nil
		return
	}
	// old retains the shell's inner tail slices across the outer reset so
	// their backing arrays can be reused index by index below.
	old := p.Tails[:cap(p.Tails):cap(p.Tails)]
	outer := p.Tails[:0]
	if uint64(cap(outer)) < min(ntails, 1024) {
		outer = make([][]core.TailRecord, 0, min(ntails, 1024))
	}
	for i := uint64(0); i < ntails && d.err == nil; i++ {
		nrecs := d.count()
		var tail []core.TailRecord
		if i < uint64(len(old)) {
			tail = old[i][:0]
		}
		if cap(tail) == 0 {
			// count() bounds nrecs by the remaining bytes; the second bound
			// (each record takes at least two bytes) keeps a hostile count
			// from forcing a large allocation before decoding fails.
			tail = make([]core.TailRecord, 0, min(nrecs, uint64(len(d.buf)-d.pos)/2))
		}
		for j := uint64(0); j < nrecs && d.err == nil; j++ {
			tail = append(tail, core.TailRecord{Key: d.string(), Seq: d.uvarint()})
		}
		outer = append(outer, tail)
	}
	p.Tails = outer
	nitems := d.count()
	if d.err == nil {
		// Same presize guard: an honest item takes well over six bytes.
		bound := min(nitems, uint64(len(d.buf)-d.pos)/6)
		items := p.Items[:0]
		if uint64(cap(items)) < bound {
			items = make([]core.ItemPayload, 0, bound)
		}
		p.Items = items
		if d.arena && bound > 0 {
			// Values cannot outgrow the remaining frame bytes; IVVs are
			// short (one slot per known origin), so 4 slots per item
			// covers the common shapes and the rare long vector falls
			// back to its own allocation.
			d.valArena = make([]byte, 0, len(d.buf)-d.pos)
			d.vvArena = make([]uint64, 0, 4*bound)
		}
	}
	for i := uint64(0); i < nitems && d.err == nil; i++ {
		p.Items = append(p.Items, d.item())
	}
}

// ---- ItemPayload ----

// Item flag bits.
const (
	itemDelta = 1 << iota
)

// appendItem appends one propagation item; it runs once per shipped item
// on every session, so its allocation profile is gated.
//
//epi:hotpath
func appendItem(buf []byte, it *core.ItemPayload) []byte {
	var flags byte
	if it.IsDelta {
		flags |= itemDelta
	}
	buf = append(buf, flags)
	buf = appendString(buf, it.Key)
	buf = appendBytes(buf, it.Value)
	buf = it.IVV.AppendBinary(buf)
	if it.IsDelta {
		buf = it.Pre.AppendBinary(buf)
		buf = binary.AppendUvarint(buf, uint64(len(it.Chain)))
		for _, link := range it.Chain {
			buf = binary.AppendVarint(buf, int64(link.Origin))
			buf = link.Op.Marshal(buf)
		}
	}
	return buf
}

func (d *decoder) item() core.ItemPayload {
	flags := d.byte()
	it := core.ItemPayload{
		Key:   d.string(),
		Value: d.bytes(),
		IVV:   d.vv(),
	}
	if flags&itemDelta != 0 {
		it.IsDelta = true
		it.Pre = d.vv()
		nlinks := d.count()
		for i := uint64(0); i < nlinks && d.err == nil; i++ {
			origin := int(d.varint())
			o := d.op()
			it.Chain = append(it.Chain, core.DeltaLink{Op: o, Origin: origin})
		}
	}
	return it
}

// ---- OOBReply ----

// OOB flag bits.
const (
	oobFound = 1 << iota
)

func appendOOB(buf []byte, o *core.OOBReply) []byte {
	var flags byte
	if o.Found {
		flags |= oobFound
	}
	buf = append(buf, flags)
	buf = appendString(buf, o.Key)
	buf = appendBytes(buf, o.Value)
	buf = o.IVV.AppendBinary(buf)
	return buf
}

func (d *decoder) oob() core.OOBReply {
	flags := d.byte()
	return core.OOBReply{
		Found: flags&oobFound != 0,
		Key:   d.string(),
		Value: d.bytes(),
		IVV:   d.vv(),
	}
}

// ---- Reconciliation ----

// ReconcileRange flag bits.
const (
	rangeHiInf = 1 << iota
)

// ReconcileReply flag bits.
const (
	replyMatch = 1 << iota
	replyIsLeaf
)

//epi:hotpath
func appendReconcileRange(buf []byte, rr *core.ReconcileRange) []byte {
	var flags byte
	if rr.HiInf {
		flags |= rangeHiInf
	}
	buf = append(buf, flags)
	buf = appendString(buf, rr.Lo)
	buf = appendString(buf, rr.Hi)
	buf = binary.LittleEndian.AppendUint64(buf, rr.Fp)
	return binary.AppendUvarint(buf, rr.Count)
}

//epi:hotpath
func (d *decoder) reconcileRange() core.ReconcileRange {
	flags := d.byte()
	return core.ReconcileRange{
		HiInf: flags&rangeHiInf != 0,
		Lo:    d.string(),
		Hi:    d.string(),
		Fp:    d.u64(),
		Count: d.uvarint(),
	}
}

//epi:hotpath
func appendReconcileReply(buf []byte, rp *core.ReconcileReply) []byte {
	var flags byte
	if rp.Match {
		flags |= replyMatch
	}
	if rp.IsLeaf {
		flags |= replyIsLeaf
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(rp.Splits)))
	for i := range rp.Splits {
		buf = appendReconcileRange(buf, &rp.Splits[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(rp.Keys)))
	for i := range rp.Keys {
		buf = appendString(buf, rp.Keys[i].Key)
		buf = binary.LittleEndian.AppendUint64(buf, rp.Keys[i].Fp)
	}
	return buf
}

//epi:hotpath
func (d *decoder) reconcileReply() core.ReconcileReply {
	flags := d.byte()
	rp := core.ReconcileReply{
		Match:  flags&replyMatch != 0,
		IsLeaf: flags&replyIsLeaf != 0,
	}
	nsplits := d.count()
	for i := uint64(0); i < nsplits && d.err == nil; i++ {
		rp.Splits = append(rp.Splits, d.reconcileRange())
	}
	nkeys := d.count()
	for i := uint64(0); i < nkeys && d.err == nil; i++ {
		rp.Keys = append(rp.Keys, core.KeyDigest{Key: d.string(), Fp: d.u64()})
	}
	return rp
}

// ---- primitives ----

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// decoder walks a message payload accumulating the first error; accessors
// return zero values after an error so decode functions stay linear and
// panic-free on corrupt input.
type decoder struct {
	buf []byte
	pos int
	err error

	// arena enables slab allocation for bulk item decodes: values and IVVs
	// are carved from per-frame slabs instead of allocated one by one, and
	// keys are shared substrings of str, one immutable copy of the whole
	// frame. Only the session-chunk decoder sets these — a catch-up retains
	// every decoded item, so pinning a chunk's slabs costs nothing extra,
	// while ordinary responses may outlive only a few of their items.
	arena    bool
	str      string
	valArena []byte
	vvArena  []uint64
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *decoder) finish(what string) error {
	if d.err != nil {
		return fmt.Errorf("decode %s: %w", what, d.err)
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("wire: decode %s: %d trailing bytes", what, len(d.buf)-d.pos)
	}
	return nil
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("truncated message")
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

// u64 reads a fixed-width little-endian uint64 (range fingerprints, key
// digests — values with no small-integer bias, where a varint would cost
// more than it saves).
func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.pos < 8 {
		d.fail("truncated message")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// count reads a collection length and validates it against the remaining
// bytes (every element occupies at least one byte), so corrupt counts fail
// immediately instead of driving huge loops or allocations.
func (d *decoder) count() uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)-d.pos) {
		d.fail("count %d exceeds %d remaining bytes", n, len(d.buf)-d.pos)
		return 0
	}
	return n
}

func (d *decoder) string() string {
	raw := d.raw()
	if len(raw) == 0 {
		return ""
	}
	if d.str != "" {
		// Share the one frame-sized string made up front: a session chunk
		// decodes thousands of keys, and one pinned copy of the frame beats
		// thousands of individual string objects on the GC's mark phase.
		return d.str[d.pos-len(raw) : d.pos]
	}
	return string(raw)
}

func (d *decoder) bytes() []byte {
	raw := d.raw()
	if raw == nil {
		return nil
	}
	if n := len(d.valArena); len(raw) > 0 && len(raw) <= cap(d.valArena)-n {
		d.valArena = append(d.valArena, raw...)
		return d.valArena[n:len(d.valArena):len(d.valArena)]
	}
	b := make([]byte, len(raw))
	copy(b, raw)
	return b
}

// raw returns a view into the buffer; string() copies by conversion and
// bytes() copies explicitly, so decoded messages never alias the frame
// buffer (which is recycled).
func (d *decoder) raw() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.fail("length %d exceeds %d remaining bytes", n, len(d.buf)-d.pos)
		return nil
	}
	if n == 0 {
		return nil
	}
	raw := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return raw
}

func (d *decoder) vv() vv.VV {
	if d.err != nil {
		return nil
	}
	v, n, arena, err := vv.DecodeBinaryArena(d.buf[d.pos:], d.vvArena)
	if err != nil {
		d.fail("%v", err)
		return nil
	}
	d.vvArena = arena
	d.pos += n
	return v
}

func (d *decoder) op() op.Op {
	if d.err != nil {
		return op.Op{}
	}
	o, n, err := op.Unmarshal(d.buf[d.pos:])
	if err != nil {
		d.fail("op: %v", err)
		return op.Op{}
	}
	d.pos += n
	return o
}
