package wire

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/vv"
)

func sampleRanges() []core.ReconcileRange {
	return []core.ReconcileRange{
		{Lo: "", Hi: "", HiInf: true, Fp: 0xdeadbeefcafe, Count: 41},
		{Lo: "a", Hi: "m", Fp: 7, Count: 0},
		{Lo: "m", Hi: "", HiInf: true, Fp: 0, Count: 1 << 40},
	}
}

func rangesEqual(a, b []core.ReconcileRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func repliesEqual(a, b []core.ReconcileReply) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Match != b[i].Match || a[i].IsLeaf != b[i].IsLeaf ||
			!rangesEqual(a[i].Splits, b[i].Splits) || len(a[i].Keys) != len(b[i].Keys) {
			return false
		}
		for j := range a[i].Keys {
			if a[i].Keys[j] != b[i].Keys[j] {
				return false
			}
		}
	}
	return true
}

func TestReconcileRequestRoundTrip(t *testing.T) {
	for _, req := range []*Request{
		{Kind: KindReconcile, From: 2, Ranges: sampleRanges()},
		{Kind: KindReconcile, From: 0, Ranges: nil},
		{Kind: KindReconcile, From: 1, Part: 7, Ranges: sampleRanges()[:1]},
	} {
		buf := AppendRequest(nil, req)
		var got Request
		if err := DecodeRequest(buf, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Kind != req.Kind || got.From != req.From ||
			got.Part != req.Part || !rangesEqual(got.Ranges, req.Ranges) {
			t.Fatalf("round trip: %+v vs %+v", req, got)
		}
		if !bytes.Equal(buf, AppendRequest(nil, &got)) {
			t.Fatal("encoding not canonical")
		}
	}
}

func TestReconcileResponseRoundTrip(t *testing.T) {
	replies := []core.ReconcileReply{
		{Match: true},
		{Splits: sampleRanges()},
		{IsLeaf: true, Keys: []core.KeyDigest{{Key: "a", Fp: 1}, {Key: "zz", Fp: 1 << 60}}},
		{IsLeaf: true}, // empty leaf: server has nothing in the range
	}
	for _, resp := range []*Response{
		{Reconcile: true},                 // divert marker on a propagation response
		{Recon: replies},                  // reconcile round answer
		{Reconcile: true, Recon: replies}, // both forms together
		{Current: true, Reconcile: false}, // untouched pre-existing shape
	} {
		buf := AppendResponse(nil, resp)
		var got Response
		if err := DecodeResponse(buf, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Reconcile != resp.Reconcile || got.Current != resp.Current ||
			!repliesEqual(got.Recon, resp.Recon) {
			t.Fatalf("round trip: %+v vs %+v", resp, got)
		}
		if !bytes.Equal(buf, AppendResponse(nil, &got)) {
			t.Fatal("encoding not canonical")
		}
	}
}

func TestPartReplyReconcileRoundTrip(t *testing.T) {
	resp := &Response{Parts: []PartReply{
		{Pid: 0, Current: true},
		{Pid: 3, Reconcile: true},
		{Pid: 5, Prop: sampleProp()},
	}}
	buf := AppendResponse(nil, resp)
	var got Response
	if err := DecodeResponse(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Parts) != 3 || !got.Parts[1].Reconcile || got.Parts[1].Pid != 3 {
		t.Fatalf("part replies: %+v", got.Parts)
	}
	if got.Parts[0].Reconcile || got.Parts[2].Reconcile {
		t.Fatal("reconcile flag leaked to other parts")
	}
}

// Pre-reconcile encodings must stay byte-identical: the new Request fields
// are gated on KindReconcile and the new Response bit was previously unused.
func TestReconcileFieldsDoNotPerturbOldKinds(t *testing.T) {
	req := &Request{Kind: KindPropagation, From: 1, DBVV: vv.VV{3, 1}}
	plain := AppendRequest(nil, req)
	req.Ranges = sampleRanges() // ignored for this kind
	if !bytes.Equal(plain, AppendRequest(nil, req)) {
		t.Fatal("Ranges leaked into a non-reconcile request encoding")
	}
	var got Request
	if err := DecodeRequest(plain, &got); err != nil {
		t.Fatal(err)
	}
	if got.Ranges != nil {
		t.Fatal("decoder invented ranges")
	}
}

// The session-stream begin frame carries the divert marker; a chunk inside
// a diverted session is a protocol violation the reader must reject.
func TestStreamReconcileDivert(t *testing.T) {
	begin := AppendSessionBegin(nil, &SessionBegin{Source: 2, Reconcile: true})
	end := AppendSessionEnd(nil, &SessionEnd{})

	var sr SessionReader
	if _, done, err := sr.Feed(KindSessionBegin, begin); err != nil || done {
		t.Fatalf("begin: done=%v err=%v", done, err)
	}
	if !sr.Begin().Reconcile {
		t.Fatal("divert marker lost in the stream begin frame")
	}
	if _, done, err := sr.Feed(KindSessionEnd, end); err != nil || !done {
		t.Fatalf("empty diverted session rejected: done=%v err=%v", done, err)
	}

	// Same begin followed by a chunk: must fail, not deliver data.
	var sr2 SessionReader
	if _, _, err := sr2.Feed(KindSessionBegin, begin); err != nil {
		t.Fatal(err)
	}
	chunk := AppendSessionChunk(nil, 0, sampleChunk(0))
	if _, _, err := sr2.Feed(KindSessionChunk, chunk); err == nil {
		t.Fatal("chunk accepted inside a reconcile-diverted session")
	}
}

// FuzzDecodeReconcileFrames drives the request and response decoders with
// reconcile-kind payloads, alongside FuzzSessionFrames for the stream path:
// no panic on arbitrary bytes, and everything accepted must re-encode
// canonically.
func FuzzDecodeReconcileFrames(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{Kind: KindReconcile, From: 1, Ranges: sampleRanges()}))
	f.Add(AppendRequest(nil, &Request{Kind: KindReconcile, Part: 3}))
	f.Add(AppendResponse(nil, &Response{Reconcile: true}))
	f.Add(AppendResponse(nil, &Response{Recon: []core.ReconcileReply{
		{Match: true},
		{IsLeaf: true, Keys: []core.KeyDigest{{Key: "k", Fp: 9}}},
		{Splits: sampleRanges()},
	}}))
	f.Add(AppendResponse(nil, &Response{Parts: []PartReply{{Pid: 1, Reconcile: true}}}))
	f.Add([]byte{0xEB, 0x01, byte(KindReconcile)})
	f.Add([]byte{0xFF, 0x00, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := DecodeRequest(data, &req); err == nil {
			re := AppendRequest(nil, &req)
			var req2 Request
			if err := DecodeRequest(re, &req2); err != nil {
				t.Fatalf("request re-decode failed: %v", err)
			}
			if req2.Kind != req.Kind || !rangesEqual(req2.Ranges, req.Ranges) {
				t.Fatalf("request round trip mismatch: %+v vs %+v", req, req2)
			}
		}
		var resp Response
		if err := DecodeResponse(data, &resp); err == nil {
			re := AppendResponse(nil, &resp)
			var resp2 Response
			if err := DecodeResponse(re, &resp2); err != nil {
				t.Fatalf("response re-decode failed: %v", err)
			}
			if resp2.Reconcile != resp.Reconcile || !repliesEqual(resp2.Recon, resp.Recon) {
				t.Fatalf("response round trip mismatch: %+v vs %+v", resp, resp2)
			}
		}
	})
}
