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
//	[Magic 0xEB] [Version 0x06]
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
//
// # Propagations
//
// A propagation (an inline reply, a session chunk, a WAL record) names
// each key once, in its item; a tail record points at its item by position:
//
//	[varint source]
//	[uvarint item count] [uvarint value bytes] [uvarint vector slots] [item]*
//	[uvarint tail count] ([uvarint record count] [record]*)*
//
//	item:   [flags] [key] [value] [IVV] (+ [pre-vector] [chain] when a delta)
//	record: [varint position delta] [uvarint seq delta]
//
// The item section's header holds the value bytes and version-vector
// slots (IVVs, and the pre-vectors of delta items) of its items exactly,
// so a decoder sizes its slabs before the items arrive; items that overrun it, or fall short of it, fail the decode. A
// record's position counts from the previous record's in the same tail
// (from -1 for the first), and its seq from the previous record's (from 0
// for the first); seqs ascend, so every seq delta is positive. Items come
// first so that the decoder checks each position against the item count
// as it reads it.
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
	// the request's database name; version 3 added the reconcile range's
	// view stamp and sketch and the reply's sketch size; version 4 retired
	// the unpartitioned session (KindStream and the KindPropagation reply
	// fields), so every pull negotiates partitions; version 5 retired the
	// reconcile range split (range bounds, splits and leaves) and added the
	// strata estimator and the retry sketch; version 6 made a tail record
	// point at its item by position instead of naming its key, and put the
	// item section, with its slab header, before the tails. An older peer
	// is closed at the preamble instead of failing mid-session.
	Version = 6
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

// Exchange kinds. The values are part of the codec: a retired kind keeps
// its number unused so the surviving kinds' encodings never change.
const (
	// KindPropagation is the retired unpartitioned propagation request. It
	// still encodes and decodes as a header-only request, but no server
	// answers it: a full replica is a one-partition node and pulls with
	// KindPartPropagation.
	//
	//epi:retired kept only so existing request encodings keep their codec
	KindPropagation Kind = 1
	// KindOOB requests an out-of-bound copy of one item (§5.2).
	KindOOB Kind = 2
	// KindFetch requests full copies of named items — the second round of
	// a delta-mode propagation session.
	KindFetch Kind = 3
	// KindPartPropagation opens a partitioned propagation session: the
	// request carries one (partition id, DBVV) pair per partition the
	// recipient replicates, and the response answers every pair — unowned,
	// current, an inline payload, or a diversion to a per-partition
	// KindPartStream session. One round trip negotiates and settles every
	// clean partition at one DBVV comparison each.
	KindPartPropagation Kind = 5
	// KindPartStream opens a streaming propagation session for a single
	// keyspace partition (Request.Part): instead of one Response frame, the
	// server answers with a session frame sequence (KindSessionBegin, zero
	// or more KindSessionChunk, KindSessionEnd); see stream.go.
	KindPartStream Kind = 6
	// KindReconcile drives one round of set reconciliation: the request
	// carries the recipient's root summary, its one range (Request.Ranges),
	// the response the verdict on it (Response.Recon); a request of any
	// other range count is answered with an error. Used when the
	// recipient's DBVV predates the source's pruned-log watermark, so a
	// log-based session can no longer serve it; see core.ServeReconcile.
	KindReconcile Kind = 7
)

// Request is the recipient-to-source message opening an exchange.
type Request struct {
	// Kind selects the exchange type.
	Kind Kind
	// From is the requesting server's id (for conflict attribution).
	From int
	// DBVV is the recipient's DBVV for the partition a KindPartStream
	// session drains.
	DBVV vv.VV
	// Key is the requested item (out-of-bound only).
	Key string
	// Keys are the items needing full copies (second-round fetch only).
	Keys []string
	// MaxBytes, when non-zero on a KindPartPropagation request, caps each
	// partition's inline payload: a source whose payload estimate exceeds
	// it answers that partition with core.PartReply.Stream instead of building
	// the payload, and the recipient drains it over a KindPartStream
	// session. Zero means uncapped.
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
	// Ranges carries the recipient's root summary (KindReconcile only).
	// Encoded only for that kind, so every other kind's encoding is
	// byte-identical to the pre-reconciliation codec.
	Ranges []core.ReconcileRange
}

// Response is the source-to-recipient reply.
type Response struct {
	// OOB carries the out-of-bound reply for KindOOB requests.
	OOB *core.OOBReply
	// Items carries the full copies for KindFetch requests.
	Items []core.ItemPayload
	// Parts answers a KindPartPropagation request, one entry per offered
	// partition, in the request's order.
	Parts []core.PartReply
	// Recon carries the verdict answering a KindReconcile request's root.
	Recon []core.ReconcileReply
	// Err carries a server-side error description, empty on success.
	Err string
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
			size += req.Ranges[i].WireSize()
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

// Response flag bits. Bits 0, 1 and 5 belonged to the retired
// KindPropagation reply (current, inline payload, stream instead); they
// stay unassigned and a response carrying one is rejected.
const (
	respOOB   = 1 << 2
	respItems = 1 << 3
	respErr   = 1 << 4
	respParts = 1 << 6
	// respReconcile marks a reconcile section: one sub-flag byte
	// (reconReplies) followed by the replies when present.
	respReconcile = 1 << 7
	// respRetired collects the retired bits.
	respRetired = 1<<0 | 1<<1 | 1<<5
)

// Reconcile section sub-flag bits (present only when respReconcile is set).
// Bit 0 was the retired KindPropagation reply's divert marker.
const (
	reconReplies = 1 << 1 // per-range replies to a KindReconcile request
	reconRetired = 1 << 0
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
	if resp.OOB != nil {
		flags |= respOOB
	}
	if resp.Items != nil {
		flags |= respItems
	}
	if resp.Err != "" {
		flags |= respErr
	}
	if resp.Parts != nil {
		flags |= respParts
	}
	if resp.Recon != nil {
		flags |= respReconcile
	}
	buf = append(buf, flags)
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
	if resp.Recon != nil {
		buf = append(buf, reconReplies)
		buf = binary.AppendUvarint(buf, uint64(len(resp.Recon)))
		for i := range resp.Recon {
			buf = appendReconcileReply(buf, &resp.Recon[i])
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
	*resp = Response{}
	if flags&respRetired != 0 {
		d.fail("response carries a retired flag bit")
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
		resp.Parts = make([]core.PartReply, 0, min(n, 1024))
		for i := uint64(0); i < n && d.err == nil; i++ {
			pe := core.PartReply{Pid: int(d.uvarint())}
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
	if rf&reconRetired != 0 {
		d.fail("reconcile section carries a retired flag bit")
	}
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
	vals, slots := p.SlabSizes()
	buf = binary.AppendUvarint(buf, uint64(len(p.Items)))
	buf = binary.AppendUvarint(buf, vals)
	buf = binary.AppendUvarint(buf, slots)
	for i := range p.Items {
		buf = appendItem(buf, &p.Items[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Tails)))
	for _, tail := range p.Tails {
		buf = binary.AppendUvarint(buf, uint64(len(tail)))
		prevItem, prevSeq := int64(-1), uint64(0)
		for _, rec := range tail {
			buf = binary.AppendVarint(buf, int64(rec.Item)-prevItem)
			buf = binary.AppendUvarint(buf, rec.Seq-prevSeq)
			prevItem, prevSeq = int64(rec.Item), rec.Seq
		}
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
	p.FrameKeys = d.str != ""
	nitems := d.count()
	// The item section's header: the value bytes and vector slots its
	// items hold. Each of them takes at least one byte of the frame, so a
	// header claiming more than the remaining bytes is corrupt, and the
	// slabs sized from it never outgrow the frame.
	vals, slots := d.uvarint(), d.uvarint()
	if rest := uint64(len(d.buf) - d.pos); d.err == nil && (vals > rest || slots > rest-vals) {
		d.fail("item section claims %d value bytes and %d vector slots in %d remaining bytes", vals, slots, rest)
	}
	if d.err != nil {
		p.Tails, p.Items = nil, nil
		return
	}
	// An honest item takes well over six bytes, so a hostile count cannot
	// force a large presize.
	bound := min(nitems, uint64(len(d.buf)-d.pos)/6)
	items := p.Items[:0]
	if uint64(cap(items)) < bound {
		items = make([]core.ItemPayload, 0, bound)
	}
	if d.arena {
		// A recipient keeps each adopted value and IVV, and with them the
		// whole slab, for the item's life: the header sizes the slabs to
		// the items exactly.
		d.valArena = make([]byte, 0, vals)
		d.vvArena = make([]uint64, 0, slots)
	}
	for i := uint64(0); i < nitems && d.err == nil; i++ {
		it := d.item()
		n, m := uint64(len(it.Value)), uint64(len(it.IVV)+len(it.Pre))
		if n > vals || m > slots {
			d.fail("item %d overruns the item section's header", i)
		}
		vals, slots = vals-n, slots-m
		items = append(items, it)
	}
	if d.err == nil && (vals != 0 || slots != 0) {
		d.fail("item section's header claims %d value bytes and %d vector slots its items do not hold", vals, slots)
	}
	p.Items = items

	ntails := d.count()
	if d.err != nil {
		p.Tails = nil
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
		prevItem, prevSeq := int64(-1), uint64(0)
		for j := uint64(0); j < nrecs && d.err == nil; j++ {
			at := prevItem + d.varint()
			delta := d.uvarint()
			seq := prevSeq + delta
			switch {
			case d.err != nil:
			case at < 0 || at >= int64(len(items)):
				d.fail("tail %d record %d points at item %d of %d", i, j, at, len(items))
			case delta == 0 || seq < prevSeq:
				d.fail("tail %d record %d: seqs do not ascend", i, j)
			}
			tail = append(tail, core.TailRecord{Item: int32(at), Seq: seq})
			prevItem, prevSeq = at, seq
		}
		outer = append(outer, tail)
	}
	p.Tails = outer
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

// ReconcileRange flag bits. A stamp, sketch or strata estimator follows
// the count only when its bit is set. rangeRetired, a version-4 root's
// unbounded end, is refused.
const (
	rangeRetired = 1 << iota
	rangeStamp
	rangeSketch
	rangeRetry
	rangeStrata
)

// ReconcileReply flag bits. replyRetired, a version-4 leaf, is refused,
// as is a non-zero split count, kept after the flags for that purpose.
const (
	replyMatch = 1 << iota
	replyRetired
	replySketch
	replyStrata
)

// sketchCellMin is the fewest bytes one encoded sketch cell occupies.
const sketchCellMin = 8 + 4 + 1

//epi:hotpath
func appendReconcileRange(buf []byte, rr *core.ReconcileRange) []byte {
	var flags byte
	if len(rr.Stamp) > 0 {
		flags |= rangeStamp
	}
	if len(rr.Sketch) > 0 {
		flags |= rangeSketch
	}
	if rr.Retry {
		flags |= rangeRetry
	}
	if len(rr.Strata) > 0 {
		flags |= rangeStrata
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, rr.Fp)
	buf = binary.AppendUvarint(buf, rr.Count)
	if len(rr.Stamp) > 0 {
		buf = rr.Stamp.AppendBinary(buf)
	}
	buf = appendSketch(buf, rr.Sketch)
	return appendSketch(buf, rr.Strata)
}

// appendSketch appends a run of sketch cells after its length; an empty
// run, whose flag is clear, appends nothing.
func appendSketch(buf []byte, cells []core.SketchCell) []byte {
	if len(cells) == 0 {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(cells)))
	for _, c := range cells {
		buf = binary.LittleEndian.AppendUint64(buf, c.Sum)
		buf = binary.LittleEndian.AppendUint32(buf, c.Check)
		buf = binary.AppendVarint(buf, c.Count)
	}
	return buf
}

//epi:hotpath
func (d *decoder) reconcileRange() core.ReconcileRange {
	flags := d.byte()
	if flags&rangeRetired != 0 {
		d.fail("reconcile range carries the bounds flag, retired in version 5")
	}
	rr := core.ReconcileRange{
		Fp:    d.u64(),
		Count: d.uvarint(),
		Retry: flags&rangeRetry != 0,
	}
	if flags&rangeStamp != 0 {
		if rr.Stamp = d.vv(); d.err == nil && len(rr.Stamp) == 0 {
			d.fail("empty reconcile stamp")
		}
	}
	if flags&rangeSketch != 0 {
		rr.Sketch = d.sketch()
	}
	if flags&rangeStrata != 0 {
		rr.Strata = d.sketch()
	}
	return rr
}

// sketch decodes a non-empty run of sketch cells. The cell count is checked
// against the bytes present at the smallest cell size, so a corrupt count
// cannot force a large allocation.
func (d *decoder) sketch() []core.SketchCell {
	n := d.uvarint()
	if d.err == nil && (n == 0 || n > uint64(len(d.buf)-d.pos)/sketchCellMin) {
		d.fail("sketch of %d cells in %d remaining bytes", n, len(d.buf)-d.pos)
	}
	if d.err != nil {
		return nil
	}
	cells := make([]core.SketchCell, n)
	for i := range cells {
		cells[i] = core.SketchCell{Sum: d.u64(), Check: d.u32(), Count: d.varint()}
	}
	return cells
}

//epi:hotpath
func appendReconcileReply(buf []byte, rp *core.ReconcileReply) []byte {
	var flags byte
	if rp.Match {
		flags |= replyMatch
	}
	if rp.SketchCells > 0 {
		flags |= replySketch
	}
	if rp.Strata {
		flags |= replyStrata
	}
	buf = append(buf, flags, 0) // the retired split count
	buf = binary.AppendUvarint(buf, uint64(len(rp.Keys)))
	for i := range rp.Keys {
		buf = appendString(buf, rp.Keys[i].Key)
		buf = binary.LittleEndian.AppendUint64(buf, rp.Keys[i].Fp)
	}
	if rp.SketchCells > 0 {
		buf = binary.AppendUvarint(buf, rp.SketchCells)
	}
	return buf
}

//epi:hotpath
func (d *decoder) reconcileReply() core.ReconcileReply {
	flags := d.byte()
	if flags&replyRetired != 0 {
		d.fail("reconcile reply carries the leaf flag, retired in version 5")
	}
	if d.uvarint() != 0 {
		d.fail("reconcile reply carries splits, retired in version 5")
	}
	rp := core.ReconcileReply{
		Match:  flags&replyMatch != 0,
		Strata: flags&replyStrata != 0,
	}
	nkeys := d.count()
	for i := uint64(0); i < nkeys && d.err == nil; i++ {
		rp.Keys = append(rp.Keys, core.KeyDigest{Key: d.string(), Fp: d.u64()})
	}
	if flags&replySketch != 0 {
		if rp.SketchCells = d.uvarint(); d.err == nil && rp.SketchCells == 0 {
			d.fail("zero-cell sketch request")
		}
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
	// are carved from per-frame slabs, sized to the items, instead of
	// allocated one by one, and keys are shared substrings of str, one
	// immutable copy of the whole frame, which the store copies a key out
	// of when it creates an item. Only the session-chunk decoder sets these
	// — a catch-up retains every decoded value and IVV, so pinning a
	// chunk's slabs costs nothing extra, while ordinary responses may
	// outlive only a few of their items.
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

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.pos < 4 {
		d.fail("truncated message")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
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
