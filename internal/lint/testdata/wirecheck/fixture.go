// Package fixture seeds a miniature wire protocol whose kinds each drop
// exactly one leg of the surface wirecheck enforces: encoder, dispatch,
// fuzz-driver membership, and codec/size-arm symmetry for request kinds;
// writer, reader, fuzz, and codec-pair legs for untyped frame kinds. KindGood and KindFrameGood carry every leg and
// must stay silent. Retired kinds invert the rule: KindRetiredGood has
// only its fuzz leg and stays silent, while the other retired kinds each
// keep one leg they must have dropped.
package fixture

import (
	"bufio"
	"io"
	"testing"
)

// Kind selects the exchange a Request opens.
type Kind uint8

const (
	KindGood       Kind = iota + 1
	KindNoEncode        // want `wire kind KindNoEncode has no encoder leg: nothing constructs a request with Kind: KindNoEncode`
	KindNoDispatch      // want `wire kind KindNoDispatch has no dispatch leg`
	KindNoFuzz          // want `wire kind KindNoFuzz is not exercised by any Fuzz\* driver`
	KindNoSizeArm       // want `wire kind KindNoSizeArm: kind-gated codec arms out of sync: present in AppendRequest/DecodeRequest, missing from RequestWireSize`
	// KindRetiredGood's number stays reserved.
	//
	//epi:retired old captures still decode
	KindRetiredGood
	//epi:retired old captures still decode
	KindRetiredEncoded // want `retired wire kind KindRetiredEncoded is still encoded`
	//epi:retired old captures still decode
	KindRetiredDispatched // want `retired wire kind KindRetiredDispatched is still dispatched`
	//epi:retired
	KindRetiredNoReason // want `//epi:retired needs a reason`
)

// Session frame kinds: untyped, sharing the byte namespace with the
// frame header rather than the request header.
const (
	KindFrameGood    = 0x21
	KindFrameNoWrite = 0x22 // want `frame kind KindFrameNoWrite is never written: no WriteFrame call sends it`
	KindFrameNoRead  = 0x23 // want `frame kind KindFrameNoRead has no reader arm: no case or comparison consumes it`
	KindFrameNoCodec = 0x24 // want `frame kind KindFrameNoCodec has no codec pair: missing AppendFrameNoCodec/DecodeFrameNoCodec`
	KindFrameNoFuzz  = 0x25 // want `frame kind KindFrameNoFuzz is not exercised by any Fuzz\* driver`
)

type Request struct {
	Kind Kind
	Part int
}

// --- the codec trio: kind-gated arms must stay in sync ------------------

func AppendRequest(buf []byte, req *Request) []byte {
	buf = append(buf, byte(req.Kind))
	if req.Kind == KindGood {
		buf = append(buf, byte(req.Part))
	}
	if req.Kind == KindNoSizeArm {
		buf = append(buf, byte(req.Part))
	}
	return buf
}

func DecodeRequest(buf []byte, req *Request) error {
	if len(buf) == 0 {
		return io.ErrUnexpectedEOF
	}
	req.Kind = Kind(buf[0])
	if req.Kind == KindGood && len(buf) > 1 {
		req.Part = int(buf[1])
	}
	if req.Kind == KindNoSizeArm && len(buf) > 1 {
		req.Part = int(buf[1])
	}
	return nil
}

func RequestWireSize(req *Request) uint64 {
	size := uint64(1)
	if req.Kind == KindGood {
		size++
	}
	return size
}

// --- encoder legs -------------------------------------------------------

func newGood() *Request       { return &Request{Kind: KindGood} }
func newNoDispatch() *Request { return &Request{Kind: KindNoDispatch} }
func newNoFuzz() *Request     { return &Request{Kind: KindNoFuzz} }
func newRetired() *Request    { return &Request{Kind: KindRetiredEncoded} }
func newNoSize() *Request {
	req := &Request{}
	req.Kind = KindNoSizeArm
	return req
}

// --- dispatch -----------------------------------------------------------

func dispatch(req *Request) byte {
	switch req.Kind {
	case KindGood:
		return 1
	case KindNoEncode:
		return 2
	case KindNoFuzz:
		return 3
	case KindNoSizeArm:
		return 4
	case KindRetiredDispatched:
		return 5
	default:
		return 0
	}
}

// --- frame writer / reader ----------------------------------------------

func WriteFrame(w io.Writer, frameType byte, payload []byte) error {
	if _, err := w.Write([]byte{frameType, byte(len(payload))}); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func writeSession(w io.Writer) error {
	if err := WriteFrame(w, KindFrameGood, nil); err != nil {
		return err
	}
	if err := WriteFrame(w, KindFrameNoRead, nil); err != nil {
		return err
	}
	if err := WriteFrame(w, KindFrameNoCodec, nil); err != nil {
		return err
	}
	return WriteFrame(w, KindFrameNoFuzz, nil)
}

func readSession(br *bufio.Reader) error {
	for {
		frameType, err := br.ReadByte()
		if err != nil {
			return err
		}
		switch frameType {
		case KindFrameGood:
		case KindFrameNoWrite:
		case KindFrameNoCodec:
		case KindFrameNoFuzz:
		default:
			return nil
		}
	}
}

// --- frame codec pairs --------------------------------------------------

func AppendFrameGood(buf []byte) []byte    { return append(buf, KindFrameGood) }
func DecodeFrameGood(buf []byte) error     { return nil }
func AppendFrameNoWrite(buf []byte) []byte { return append(buf, KindFrameNoWrite) }
func DecodeFrameNoWrite(buf []byte) error  { return nil }
func AppendFrameNoRead(buf []byte) []byte  { return append(buf, KindFrameNoRead) }
func DecodeFrameNoRead(buf []byte) error   { return nil }
func AppendFrameNoFuzz(buf []byte) []byte  { return append(buf, KindFrameNoFuzz) }
func DecodeFrameNoFuzz(buf []byte) error   { return nil }

// --- fuzz drivers -------------------------------------------------------

func FuzzRequestFrames(f *testing.F) {
	f.Add([]byte{byte(KindGood)})
	f.Add([]byte{byte(KindNoEncode)})
	f.Add([]byte{byte(KindNoDispatch)})
	f.Add([]byte{byte(KindNoSizeArm)})
	f.Add([]byte{byte(KindRetiredGood), byte(KindRetiredEncoded), byte(KindRetiredDispatched), byte(KindRetiredNoReason)})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		_ = DecodeRequest(data, &req)
	})
}

func FuzzSessionFrames(f *testing.F) {
	f.Add([]byte{KindFrameGood})
	f.Add([]byte{KindFrameNoWrite})
	f.Add([]byte{KindFrameNoRead})
	f.Add([]byte{KindFrameNoCodec})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = DecodeFrameGood(data)
	})
}
