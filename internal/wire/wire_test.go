package wire

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

func roundTripRequest(t *testing.T, req Request) Request {
	t.Helper()
	buf := AppendRequest(nil, &req)
	var got Request
	if err := DecodeRequest(buf, &got); err != nil {
		t.Fatalf("decode request: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{},
		{Kind: KindPropagation, From: 3, DBVV: vv.VV{1, 2, 3}},
		{Kind: KindOOB, From: 0, Key: "hot-item"},
		{Kind: KindFetch, From: 7, Keys: []string{"a", "b", "longer-key-name"}},
		{Kind: KindPropagation, From: 2, DBVV: vv.VV{0, 0, 9}},
		{Kind: KindFetch, Keys: []string{""}},
	}
	for _, req := range reqs {
		got := roundTripRequest(t, req)
		if got.Kind != req.Kind || got.From != req.From || got.Key != req.Key {
			t.Errorf("round trip mangled %+v -> %+v", req, got)
		}
		if !got.DBVV.Equal(req.DBVV) {
			t.Errorf("DBVV %v -> %v", req.DBVV, got.DBVV)
		}
		if len(got.Keys) != len(req.Keys) {
			t.Errorf("Keys %v -> %v", req.Keys, got.Keys)
			continue
		}
		for i := range req.Keys {
			if got.Keys[i] != req.Keys[i] {
				t.Errorf("Keys[%d] %q -> %q", i, req.Keys[i], got.Keys[i])
			}
		}
	}
}

func sampleProp() *core.Propagation {
	return &core.Propagation{
		Source: 2,
		Tails: [][]core.TailRecord{
			nil,
			{{Item: 0, Seq: 4}, {Item: 1, Seq: 5}},
			{{Item: 2, Seq: 1}, {Item: 0, Seq: 3}},
		},
		Items: []core.ItemPayload{
			{Key: "x", Value: []byte("value-x"), IVV: vv.VV{1, 4, 0}},
			{
				Key: "y", IVV: vv.VV{0, 5, 0}, Pre: vv.VV{0, 3, 0}, IsDelta: true,
				Chain: []core.DeltaLink{
					{Op: op.NewAppend([]byte("tail")), Origin: 1},
					{Op: op.NewWriteAt(2, []byte("mid")), Origin: 1},
				},
			},
			{Key: "z", Value: []byte("value-z"), IVV: vv.VV{0, 0, 1}},
		},
	}
}

func propsEqual(a, b *core.Propagation) bool {
	return reflect.DeepEqual(normalizeProp(a), normalizeProp(b))
}

// normalizeProp maps the encodings' nil/empty ambiguity (nil tails, nil
// values) to one canonical form for comparison.
func normalizeProp(p *core.Propagation) *core.Propagation {
	q := &core.Propagation{Source: p.Source}
	for _, tail := range p.Tails {
		if len(tail) == 0 {
			tail = nil
		}
		q.Tails = append(q.Tails, tail)
	}
	for _, it := range p.Items {
		if len(it.Value) == 0 {
			it.Value = nil
		}
		if len(it.Chain) == 0 {
			it.Chain = nil
		}
		q.Items = append(q.Items, it)
	}
	return q
}

func TestPropagationRoundTrip(t *testing.T) {
	p := sampleProp()
	buf := AppendPropagation(nil, p)
	got, err := DecodePropagation(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !propsEqual(p, got) {
		t.Fatalf("round trip mangled propagation:\n%+v\n%+v", p, got)
	}
}

// A version-6 propagation is checked section by section: a record must
// point at one of the message's items, seqs must ascend within a tail, and
// the item section's header must hold its items' value bytes exactly. Each violation is a decode error, never a panic.
func TestDecodePropagationRejectsMalformedSections(t *testing.T) {
	if _, err := DecodePropagation(slabHeaderClaiming(3)); err != nil {
		t.Fatalf("honest header: %v", err)
	}
	descending := AppendPropagation(nil, &core.Propagation{
		Tails: [][]core.TailRecord{{{Item: 0, Seq: 5}, {Item: 0, Seq: 5}}},
		Items: []core.ItemPayload{{Key: "k", Value: []byte("v"), IVV: vv.VV{5}}},
	})
	for name, buf := range map[string][]byte{
		"position past the items": AppendPropagation(nil, danglingProp()),
		"seq not ascending":       descending,
		"header claims too few":   slabHeaderClaiming(2),
		"header claims too many":  slabHeaderClaiming(4),
		"header outgrows frame":   slabHeaderClaiming(0x7F),
	} {
		if _, err := DecodePropagation(buf); err == nil {
			t.Errorf("%s: decoded", name)
		}
		if _, _, err := DecodeSessionChunk(append([]byte{0}, buf...)); err == nil {
			t.Errorf("%s: decoded as a chunk", name)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{OOB: &core.OOBReply{Key: "k", Value: []byte("v"), IVV: vv.VV{1, 0}, Found: true}},
		{OOB: &core.OOBReply{Key: "missing"}},
		{Items: []core.ItemPayload{{Key: "a", Value: []byte("va"), IVV: vv.VV{2, 2}}}},
		{Err: "unknown database \"x\""},
	}
	for i, resp := range resps {
		buf := AppendResponse(nil, &resp)
		var got Response
		if err := DecodeResponse(buf, &got); err != nil {
			t.Fatalf("resp %d: %v", i, err)
		}
		if got.Err != resp.Err {
			t.Errorf("resp %d: flags mangled: %+v -> %+v", i, resp, got)
		}
		if (resp.OOB == nil) != (got.OOB == nil) {
			t.Errorf("resp %d: oob presence", i)
		} else if resp.OOB != nil {
			if got.OOB.Key != resp.OOB.Key || got.OOB.Found != resp.OOB.Found ||
				!bytes.Equal(got.OOB.Value, resp.OOB.Value) || !got.OOB.IVV.Equal(resp.OOB.IVV) {
				t.Errorf("resp %d: oob mangled: %+v -> %+v", i, resp.OOB, got.OOB)
			}
		}
		if len(got.Items) != len(resp.Items) {
			t.Errorf("resp %d: items %d -> %d", i, len(resp.Items), len(got.Items))
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	buf := AppendRequest(nil, &Request{Kind: KindOOB, Key: "k"})
	buf = append(buf, 0xFF)
	var got Request
	if err := DecodeRequest(buf, &got); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDecodeCorruptCounts(t *testing.T) {
	// A fetch request claiming 2^40 keys must fail fast, not allocate.
	buf := []byte{byte(KindFetch), 0 /* from */, 0 /* dbvv */, 0 /* key */}
	buf = append(buf, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40) // uvarint 2^40-ish
	var got Request
	if err := DecodeRequest(buf, &got); err == nil {
		t.Fatal("huge count accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var netBuf bytes.Buffer
	if err := WritePreamble(&netBuf); err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello frames")
	if err := WriteFrame(&netBuf, FrameRequest, payload); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&netBuf)
	if err := ReadPreamble(br); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(br, FrameRequest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame payload %q", got)
	}
}

func TestReadFrameRejectsWrongType(t *testing.T) {
	var netBuf bytes.Buffer
	WriteFrame(&netBuf, FrameResponse, []byte("x"))
	if _, err := ReadFrame(bufio.NewReader(&netBuf), FrameRequest, nil); err == nil {
		t.Fatal("wrong frame type accepted")
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	// type byte + uvarint(1<<40): claims a petabyte-scale frame.
	raw := []byte{FrameRequest, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(raw)), FrameRequest, nil); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

// Version 1 carried a database name in every request, version 2 reconcile
// ranges had no stamp or sketch, and version 3 still spoke the
// unpartitioned session; an older peer must be closed at the preamble, not
// fail mid-session.
func TestPreambleRejectsBadVersion(t *testing.T) {
	for _, v := range []byte{1, 2, 3, 99} {
		br := bufio.NewReader(bytes.NewReader([]byte{Magic, v}))
		if err := ReadPreamble(br); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
}

func TestDecodedMessagesDoNotAliasFrameBuffer(t *testing.T) {
	resp := Response{Items: []core.ItemPayload{{Key: "k", Value: []byte("payload"), IVV: vv.VV{1}}}}
	buf := AppendResponse(nil, &resp)
	var got Response
	if err := DecodeResponse(buf, &got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA // scribble over the frame buffer, as reuse would
	}
	if got.Items[0].Key != "k" || !bytes.Equal(got.Items[0].Value, []byte("payload")) {
		t.Fatal("decoded message aliases the frame buffer")
	}
}
