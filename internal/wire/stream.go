package wire

// Session framing for streaming propagation (KindPartStream requests).
//
// A KindPartStream request is answered not with one FrameResponse but with a
// bounded frame sequence on the same connection:
//
//	[KindSessionBegin]  source id, you-are-current flag, or an error
//	[KindSessionChunk]* one chunk each: sequence number + mini-propagation
//	[KindSessionEnd]    chunk and record totals for validation
//
// Chunks reuse the propagation encoding (appendPropagation), so the item
// and record formats are identical to the monolithic path; only the
// framing differs. After KindSessionEnd the connection returns to the
// ordinary request/response alternation, so streamed sessions ride the
// same pooled persistent connections as everything else.
//
// SessionReader is the recipient-side state machine: it enforces frame
// order (Begin, then densely numbered chunks, then End with matching
// totals), so truncated, reordered or duplicated streams surface as clean
// errors, never as silently corrupted sessions.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// Session frame types, continuing the FrameRequest/FrameResponse space.
const (
	// KindSessionBegin opens a streamed propagation session's reply.
	KindSessionBegin = 0x03
	// KindSessionChunk carries one payload chunk.
	KindSessionChunk = 0x04
	// KindSessionEnd closes the reply with chunk/record totals.
	KindSessionEnd = 0x05
)

// SessionBegin is the header frame of a streamed session reply.
type SessionBegin struct {
	// Source is the source server's id.
	Source int
	// Current is true when the recipient's DBVV already dominates the
	// source's: no chunks follow, only KindSessionEnd.
	Current bool
	// Reconcile is true when the recipient's DBVV predates the source's
	// pruned-log watermark: the log can no longer serve it, no chunks
	// follow (only KindSessionEnd), and the recipient should run a
	// KindReconcile exchange before re-pulling.
	Reconcile bool
	// Err carries a server-side error description; when non-empty the
	// session is aborted and no further frames follow.
	Err string
}

// SessionEnd is the trailer frame of a streamed session reply.
type SessionEnd struct {
	// Chunks is the number of chunk frames the source emitted.
	Chunks uint64
	// Records is the total number of log records across those chunks.
	Records uint64
}

// SessionBegin flag bits.
const (
	beginCurrent = 1 << iota
	beginErr
	beginReconcile
)

// AppendSessionBegin appends the binary encoding of b to buf.
func AppendSessionBegin(buf []byte, b *SessionBegin) []byte {
	var flags byte
	if b.Current {
		flags |= beginCurrent
	}
	if b.Err != "" {
		flags |= beginErr
	}
	if b.Reconcile {
		flags |= beginReconcile
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(b.Source))
	if b.Err != "" {
		buf = appendString(buf, b.Err)
	}
	return buf
}

// DecodeSessionBegin decodes a SessionBegin from buf.
func DecodeSessionBegin(buf []byte, b *SessionBegin) error {
	d := decoder{buf: buf}
	flags := d.byte()
	*b = SessionBegin{
		Current:   flags&beginCurrent != 0,
		Reconcile: flags&beginReconcile != 0,
	}
	b.Source = int(d.varint())
	if flags&beginErr != 0 {
		b.Err = d.string()
	}
	return d.finish("session begin")
}

// AppendSessionChunk appends the binary encoding of chunk number seq
// carrying propagation p to buf.
//
//epi:hotpath
func AppendSessionChunk(buf []byte, seq uint64, p *core.Propagation) []byte {
	buf = binary.AppendUvarint(buf, seq)
	return appendPropagation(buf, p)
}

// DecodeSessionChunk decodes one chunk frame: its sequence number and the
// mini-propagation it carries.
//
//epi:hotpath
func DecodeSessionChunk(buf []byte) (uint64, *core.Propagation, error) {
	return DecodeSessionChunkInto(buf, &core.Propagation{})
}

// DecodeSessionChunkInto is DecodeSessionChunk decoding into a
// caller-provided shell, reusing its backing slices where capacity allows.
// The shell must no longer be referenced by the caller; recycled shells
// let a catch-up decode successive near-identically-shaped chunks without
// re-allocating their slices each time.
//
//epi:hotpath
func DecodeSessionChunkInto(buf []byte, p *core.Propagation) (uint64, *core.Propagation, error) {
	d := decoder{buf: buf, arena: true, str: string(buf)}
	seq := d.uvarint()
	d.propagationInto(p)
	if err := d.finish("session chunk"); err != nil {
		return 0, nil, err
	}
	// The decoder copied every buffer out of the frame; the recipient
	// may adopt them outright when committing the chunk.
	p.Owned = true
	return seq, p, nil
}

// AppendSessionEnd appends the binary encoding of e to buf.
func AppendSessionEnd(buf []byte, e *SessionEnd) []byte {
	buf = binary.AppendUvarint(buf, e.Chunks)
	return binary.AppendUvarint(buf, e.Records)
}

// DecodeSessionEnd decodes a SessionEnd from buf.
func DecodeSessionEnd(buf []byte, e *SessionEnd) error {
	d := decoder{buf: buf}
	e.Chunks = d.uvarint()
	e.Records = d.uvarint()
	return d.finish("session end")
}

// ReadSessionFrame reads the next frame of a streamed session reply into
// buf (growing it as needed) and returns its type and payload. Only the
// three session frame types are accepted; anything else is corruption and
// the caller is expected to close the connection.
//
//epi:hotpath
func ReadSessionFrame(r *bufio.Reader, buf []byte) (byte, []byte, error) {
	frameType, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	if frameType != KindSessionBegin && frameType != KindSessionChunk && frameType != KindSessionEnd {
		return 0, nil, fmt.Errorf("wire: frame type 0x%02x, want session frame", frameType)
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, fmt.Errorf("wire: frame length: %w", err)
	}
	if size > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds limit", size)
	}
	if uint64(cap(buf)) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("wire: frame body: %w", err)
	}
	return frameType, buf, nil
}

// SessionReader validates a streamed session's frame sequence: exactly one
// Begin first, chunks numbered densely from zero, one End whose totals
// match what was received, nothing after End. Feed it each frame in wire
// order; any violation — duplicate, reordered, missing, empty or trailing
// frames, undecodable payloads — is an error, and an errored reader rejects all
// further input. It never panics on corrupt input and never yields a chunk
// out of order, so a recipient applying chunks as they arrive cannot be
// driven into a state the monolithic path could not reach.
type SessionReader struct {
	begin   SessionBegin
	begun   bool
	ended   bool
	nextSeq uint64
	records uint64
	err     error
}

// Begin returns the session header; valid once Feed has accepted a
// KindSessionBegin frame.
func (s *SessionReader) Begin() SessionBegin { return s.begin }

// Done reports whether the session completed cleanly (End validated).
func (s *SessionReader) Done() bool { return s.ended && s.err == nil }

// Chunks returns the number of chunk frames accepted so far.
func (s *SessionReader) Chunks() uint64 { return s.nextSeq }

// fail records the reader's first error and poisons further input.
func (s *SessionReader) fail(format string, args ...any) error {
	if s.err == nil {
		s.err = fmt.Errorf("wire: session: "+format, args...)
	}
	return s.err
}

// Feed advances the state machine with one frame. It returns the decoded
// chunk for KindSessionChunk frames (nil otherwise) and done=true once the
// End frame has validated.
func (s *SessionReader) Feed(frameType byte, payload []byte) (chunk *core.Propagation, done bool, err error) {
	return s.FeedInto(frameType, payload, nil)
}

// FeedInto is Feed with an optional chunk shell to decode into (see
// DecodeSessionChunkInto); pass nil to allocate. A recipient that applies
// chunks as they arrive hands each applied chunk back as the next frame's
// spare, so decoding reuses the slice backing across the whole session.
func (s *SessionReader) FeedInto(frameType byte, payload []byte, spare *core.Propagation) (chunk *core.Propagation, done bool, err error) {
	if s.err != nil {
		return nil, false, s.err
	}
	if s.ended {
		return nil, false, s.fail("frame 0x%02x after end", frameType)
	}
	switch frameType {
	case KindSessionBegin:
		if s.begun {
			return nil, false, s.fail("duplicate begin")
		}
		if err := DecodeSessionBegin(payload, &s.begin); err != nil {
			s.err = err
			return nil, false, err
		}
		s.begun = true
		if s.begin.Err != "" {
			return nil, false, s.fail("remote error: %s", s.begin.Err)
		}
		return nil, false, nil
	case KindSessionChunk:
		if !s.begun {
			return nil, false, s.fail("chunk before begin")
		}
		if s.begin.Current {
			return nil, false, s.fail("chunk in a you-are-current session")
		}
		if s.begin.Reconcile {
			return nil, false, s.fail("chunk in a reconcile-diverted session")
		}
		if spare == nil {
			spare = &core.Propagation{}
		}
		seq, p, err := DecodeSessionChunkInto(payload, spare)
		if err != nil {
			s.err = err
			return nil, false, err
		}
		if seq != s.nextSeq {
			return nil, false, s.fail("chunk %d, want %d", seq, s.nextSeq)
		}
		// A source never cuts a chunk with neither records nor items.
		if p.RecordCount() == 0 && len(p.Items) == 0 {
			return nil, false, s.fail("chunk %d is empty", seq)
		}
		s.nextSeq++
		s.records += uint64(p.RecordCount())
		return p, false, nil
	case KindSessionEnd:
		if !s.begun {
			return nil, false, s.fail("end before begin")
		}
		var e SessionEnd
		if err := DecodeSessionEnd(payload, &e); err != nil {
			s.err = err
			return nil, false, err
		}
		if e.Chunks != s.nextSeq {
			return nil, false, s.fail("end claims %d chunks, received %d", e.Chunks, s.nextSeq)
		}
		if e.Records != s.records {
			return nil, false, s.fail("end claims %d records, received %d", e.Records, s.records)
		}
		s.ended = true
		return nil, true, nil
	default:
		return nil, false, s.fail("unknown frame type 0x%02x", frameType)
	}
}
