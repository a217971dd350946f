package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

func sampleRanges() []core.ReconcileRange {
	return []core.ReconcileRange{
		{Fp: 0xdeadbeefcafe, Count: 41},
		{Fp: 7, Count: 0},
		{Fp: 0, Count: 1 << 40},
	}
}

// sketchRanges are the later-round shapes: a stamped root, a stamped root
// with a sketch whose cells cover every field's range, its retry, and a
// stamped root with a strata estimator.
func sketchRanges() []core.ReconcileRange {
	cells := []core.SketchCell{
		{Sum: 1 << 63, Check: 1 << 31, Count: -1},
		{},
		{Sum: 9, Check: 7, Count: 1 << 40},
	}
	return []core.ReconcileRange{
		{Fp: 3, Count: 5000, Stamp: vv.VV{4000, 0, 1 << 33}},
		{Fp: 3, Count: 5000, Stamp: vv.VV{7}, Sketch: cells},
		{Fp: 3, Count: 5000, Stamp: vv.VV{7}, Sketch: cells, Retry: true},
		{Fp: 3, Count: 5000, Stamp: vv.VV{7}, Strata: cells},
	}
}

func rangesEqual(a, b []core.ReconcileRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Fp != y.Fp || x.Count != y.Count || x.Retry != y.Retry ||
			len(x.Stamp) != len(y.Stamp) || !x.Stamp.Equal(y.Stamp) ||
			!slices.Equal(x.Sketch, y.Sketch) || !slices.Equal(x.Strata, y.Strata) {
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
		if a[i].Match != b[i].Match || a[i].Strata != b[i].Strata || a[i].SketchCells != b[i].SketchCells ||
			len(a[i].Keys) != len(b[i].Keys) {
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
		{Kind: KindReconcile, From: 1, Part: 3, Ranges: sketchRanges()},
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
		{Keys: []core.KeyDigest{{Key: "a", Fp: 1}, {Key: "zz", Fp: 1 << 60}}},
		{},                 // empty listing: the server holds nothing
		{SketchCells: 780}, // send the root again with a sketch
		{SketchCells: 1 << 40},
		{Strata: true}, // send the root again with the strata estimator
	}
	for _, resp := range []*Response{
		{Recon: replies},  // reconcile round answer
		{Err: "no recon"}, // untouched pre-existing shape
	} {
		buf := AppendResponse(nil, resp)
		var got Response
		if err := DecodeResponse(buf, &got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Err != resp.Err || !repliesEqual(got.Recon, resp.Recon) {
			t.Fatalf("round trip: %+v vs %+v", resp, got)
		}
		if !bytes.Equal(buf, AppendResponse(nil, &got)) {
			t.Fatal("encoding not canonical")
		}
	}
}

func TestPartReplyReconcileRoundTrip(t *testing.T) {
	resp := &Response{Parts: []core.PartReply{
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
	f.Add([]byte{respReconcile, reconRetired}) // the retired divert marker: must not decode
	f.Add(AppendResponse(nil, &Response{Recon: []core.ReconcileReply{
		{Match: true},
		{Keys: []core.KeyDigest{{Key: "k", Fp: 9}}},
		{Strata: true},
	}}))
	f.Add(AppendResponse(nil, &Response{Parts: []core.PartReply{{Pid: 1, Reconcile: true}}}))
	f.Add(AppendRequest(nil, &Request{Kind: KindReconcile, Ranges: sketchRanges()[:1]}))
	f.Add(AppendRequest(nil, &Request{Kind: KindReconcile, Ranges: sketchRanges()[1:]}))
	f.Add([]byte{byte(KindReconcile), 0, 0, 0, 0, 0, 1, rangeRetired}) // the retired range bounds: must not decode
	f.Add(AppendResponse(nil, &Response{Recon: []core.ReconcileReply{{SketchCells: 780}}}))
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
			if !repliesEqual(resp2.Recon, resp.Recon) {
				t.Fatalf("response round trip mismatch: %+v vs %+v", resp, resp2)
			}
		}
	})
}

// A sketch or stamp flag must be followed by a non-empty body, and a
// sketch's cell count must fit the bytes present, so that a corrupt count
// cannot make the decoder allocate for cells that are not there.
func TestReconcileDecodeRejectsMalformedSketch(t *testing.T) {
	// A request with one range: kind, from, DBVV, key, keys, max-bytes,
	// one range (flags, fp), then the range's tail and the partition.
	request := func(flags byte, tail ...byte) []byte {
		buf := []byte{byte(KindReconcile), 0, 0, 0, 0, 0, 1, flags}
		return append(append(buf, make([]byte, 8)...), tail...)
	}
	if err := DecodeRequest(request(0, 0, 0), new(Request)); err != nil {
		t.Fatalf("well-formed plain range rejected: %v", err)
	}
	for name, req := range map[string][]byte{
		"zero-cell sketch": request(rangeSketch, 0, 0, 0),
		"oversized count":  request(rangeSketch, 0, 0xFF, 0xFF, 0x03, 1, 2, 3),
		"truncated cell":   request(rangeSketch, 0, 1, 1, 2, 3),
		"empty stamp":      request(rangeStamp, 0, 0, 0),
		"zero-cell strata": request(rangeStrata, 0, 0, 0),
	} {
		if err := DecodeRequest(req, new(Request)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	resp := AppendResponse(nil, &Response{Recon: []core.ReconcileReply{{SketchCells: 1}}})
	resp[len(resp)-1] = 0 // the sketch flag set, with a zero cell count
	if err := DecodeResponse(resp, new(Response)); err == nil {
		t.Error("zero-cell sketch request decoded")
	}
}

// The retired unpartitioned reply's flag bits (you-are-current, inline
// payload, stream instead, and the reconcile section's divert marker) and
// the retired range split's (a leaf reply, a non-zero split count) stay
// unassigned: a response carrying one comes from an older peer or from
// corruption and must not decode.
func TestDecodeResponseRejectsRetiredFlags(t *testing.T) {
	for name, resp := range map[string][]byte{
		"current":          {1 << 0},
		"inline payload":   append([]byte{1 << 1}, AppendPropagation(nil, sampleProp())...),
		"stream instead":   {1 << 5},
		"reconcile divert": {respReconcile, 1 << 0},
		"reconcile leaf":   {respReconcile, reconReplies, 1, replyRetired, 0, 0},
		"reconcile splits": {respReconcile, reconReplies, 1, 0, 1, 0},
	} {
		if err := DecodeResponse(resp, new(Response)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	well := []byte{respReconcile, reconReplies, 1, 0, 0, 0}
	if err := DecodeResponse(well, new(Response)); err != nil {
		t.Errorf("an empty listing reply was rejected: %v", err)
	}
}

// A range with the retired bounds flag, which every version-4 root set,
// must not decode.
func TestDecodeRequestRejectsRetiredRangeFlag(t *testing.T) {
	buf := AppendRequest(nil, &Request{Kind: KindReconcile, Ranges: sampleRanges()[:1]})
	if err := DecodeRequest(buf, new(Request)); err != nil {
		t.Fatalf("well-formed root rejected: %v", err)
	}
	// kind, from, DBVV, key, keys, max-bytes, the range count, then the
	// range's flags.
	buf[7] |= rangeRetired
	if err := DecodeRequest(buf, new(Request)); err == nil {
		t.Error("a range with the retired bounds flag decoded")
	}
}

// reconcileFuzzPair is the fuzz fixture: a 64-item source and a recipient
// that lacks four of its rewrites, plus the two requests a real session
// between them sends — the stamped root, then the sketched root.
func reconcileFuzzPair(tb testing.TB) (src *core.Replica, root, sketched *Request) {
	src, dst := core.NewReplica(0, 2), core.NewReplica(1, 2)
	for i := 0; i < 64; i++ {
		if err := src.Update(fmt.Sprintf("k%03d", i), op.NewSet([]byte{byte(i)})); err != nil {
			tb.Fatal(err)
		}
	}
	core.AntiEntropy(dst, src)
	for i := 0; i < 64; i += 16 {
		if err := src.Update(fmt.Sprintf("k%03d", i), op.NewSet([]byte("new"))); err != nil {
			tb.Fatal(err)
		}
	}
	rc := dst.StartReconcile()
	root = &Request{Kind: KindReconcile, From: 1, Ranges: rc.Next()}
	replies := src.ServeReconcile(root.Ranges)
	if len(replies) != 1 || replies[0].SketchCells == 0 {
		tb.Fatalf("fixture: root reply %+v, want a sketch request", replies)
	}
	if err := rc.Handle(root.Ranges, replies); err != nil {
		tb.Fatal(err)
	}
	sketched = &Request{Kind: KindReconcile, From: 1, Ranges: rc.Next()}
	return src, root, sketched
}

func serveReconcileSeeds(tb testing.TB) [][]byte {
	_, root, sketched := reconcileFuzzPair(tb)
	// A well-formed strata estimator of another replica's items.
	other := core.NewReplica(1, 2)
	for i := 0; i < 48; i++ {
		if err := other.Update(fmt.Sprintf("k%03d", i), op.NewSet([]byte("other"))); err != nil {
			tb.Fatal(err)
		}
	}
	rc := other.StartReconcile()
	first := rc.Next()
	if err := rc.Handle(first, []core.ReconcileReply{{Strata: true}}); err != nil {
		tb.Fatal(err)
	}
	strata := rc.Next()[0]
	garbage := *sketched
	garbage.Ranges = slices.Clone(sketched.Ranges)
	garbage.Ranges[0].Sketch = []core.SketchCell{{Sum: 1, Check: 2, Count: 1}, {Count: -1}, {Sum: 3}}
	return [][]byte{
		AppendRequest(nil, root),
		AppendRequest(nil, sketched),
		AppendRequest(nil, &garbage),
		AppendRequest(nil, &Request{Kind: KindReconcile, Ranges: sketchRanges()}),
		AppendRequest(nil, &Request{Kind: KindReconcile, Ranges: sampleRanges()}),
		AppendRequest(nil, &Request{Kind: KindReconcile, Ranges: []core.ReconcileRange{strata}}),
	}
}

// FuzzServeReconcile feeds arbitrary reconcile requests — stamped,
// sketched, with strata, any mix or none — to ServeReconcile on a small fixed replica.
// It must not panic, must answer a request of one root with one reply
// within the replica's own bounds and any other request with none, and
// must allocate within a fixed budget, never in proportion to the sizes or
// counts the ranges claim.
func FuzzServeReconcile(f *testing.F) {
	src, _, _ := reconcileFuzzPair(f)
	for _, seed := range serveReconcileSeeds(f) {
		f.Add(seed)
	}
	const items = 64
	src.ServeReconcile([]core.ReconcileRange{{}}) // build the summary outside the measurement
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := DecodeRequest(data, &req); err != nil || req.Kind != KindReconcile {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replies := src.ServeReconcile(req.Ranges)
		runtime.ReadMemStats(&after)
		want := 0
		if len(req.Ranges) == 1 {
			want = 1
		}
		if len(replies) != want {
			t.Fatalf("%d replies to %d ranges, want %d", len(replies), len(req.Ranges), want)
		}
		for _, rp := range replies {
			if len(rp.Keys) > items || rp.SketchCells > 3*items {
				t.Fatalf("reply beyond the replica's bounds: %d keys, %d sketch cells", len(rp.Keys), rp.SketchCells)
			}
		}
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(64<<10); alloc > budget {
			t.Fatalf("serving %d ranges allocated %d B, budget %d B", len(req.Ranges), alloc, budget)
		}
	})
}
