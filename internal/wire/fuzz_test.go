package wire

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/vv"
)

// The decoders sit directly on the network: every fuzz target feeds them
// arbitrary bytes and requires (a) no panic, and (b) anything accepted
// re-encodes to bytes that decode to the same message (a fixed point after
// one round, since the encoders are canonical).

func FuzzDecodeVV(f *testing.F) {
	f.Add([]byte{0})
	f.Add(vv.VV{1, 2, 3}.AppendBinary(nil))
	f.Add(vv.VV{1 << 40, 0, 7}.AppendBinary(nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := vv.DecodeBinary(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := v.AppendBinary(nil)
		v2, n2, err := vv.DecodeBinary(re)
		if err != nil || n2 != len(re) || !v2.Equal(v) {
			t.Fatalf("re-decode mismatch: %v vs %v (err %v)", v, v2, err)
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{Kind: KindPropagation, From: 1, DBVV: vv.VV{3, 1}}))
	f.Add(AppendRequest(nil, &Request{Kind: KindOOB, From: 2, Key: "k"}))
	f.Add(AppendRequest(nil, &Request{Kind: KindFetch, Keys: []string{"a", "b"}}))
	// The retired KindStream number: decodes as an unknown kind.
	f.Add(AppendRequest(nil, &Request{Kind: Kind(4), From: 1, DBVV: vv.VV{2, 0, 5}, MaxBytes: 1 << 18}))
	f.Add(AppendRequest(nil, &Request{Kind: KindPartPropagation, From: 2,
		Parts: []core.PartState{{Pid: 0, DBVV: vv.VV{1}}, {Pid: 7, DBVV: vv.VV{0, 4}}}}))
	f.Add(AppendRequest(nil, &Request{Kind: KindPartStream, From: 1, Part: 9, DBVV: vv.VV{2, 2}}))
	f.Add([]byte{})
	f.Add([]byte{0xEB, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := DecodeRequest(data, &req); err != nil {
			return
		}
		re := AppendRequest(nil, &req)
		var req2 Request
		if err := DecodeRequest(re, &req2); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if req2.Kind != req.Kind || req2.From != req.From ||
			req2.Key != req.Key || !req2.DBVV.Equal(req.DBVV) || len(req2.Keys) != len(req.Keys) ||
			len(req2.Parts) != len(req.Parts) || req2.Part != req.Part {
			t.Fatalf("round trip mismatch: %+v vs %+v", req, req2)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	// The retired you-are-current and inline-payload replies: must not decode.
	f.Add([]byte{1 << 0})
	f.Add(append([]byte{1 << 1}, AppendPropagation(nil, sampleProp())...))
	f.Add(AppendResponse(nil, &Response{OOB: &core.OOBReply{Key: "k", Found: true, IVV: vv.VV{1}}}))
	f.Add(AppendResponse(nil, &Response{Err: "boom"}))
	f.Add(AppendResponse(nil, &Response{Parts: []core.PartReply{
		{Pid: 0, Unowned: true}, {Pid: 3, Current: true}, {Pid: 5, Prop: sampleProp()}, {Pid: 8, Stream: true}}}))
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := DecodeResponse(data, &resp); err != nil {
			return
		}
		re := AppendResponse(nil, &resp)
		var resp2 Response
		if err := DecodeResponse(re, &resp2); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if resp2.Err != resp.Err ||
			len(resp2.Items) != len(resp.Items) ||
			len(resp2.Parts) != len(resp.Parts) ||
			(resp.OOB == nil) != (resp2.OOB == nil) {
			t.Fatalf("round trip mismatch: %+v vs %+v", resp, resp2)
		}
	})
}

func FuzzDecodePropagation(f *testing.F) {
	for _, seed := range propagationSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePropagation(data)
		if err != nil {
			return
		}
		re := AppendPropagation(nil, p)
		p2, err := DecodePropagation(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !propsEqual(p, p2) {
			t.Fatalf("round trip mismatch")
		}
		re2 := AppendPropagation(nil, p2)
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical after one round")
		}
	})
}
