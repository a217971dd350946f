package wire

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/vv"
)

func TestPartPropagationRequestRoundTrip(t *testing.T) {
	req := Request{
		Kind: KindPartPropagation,
		From: 3,
		Parts: []core.PartState{
			{Pid: 0, DBVV: vv.VV{1, 2, 3}},
			{Pid: 5, DBVV: vv.VV{}},
			{Pid: 13, DBVV: vv.VV{0, 0, 0, 9}},
		},
		MaxBytes: 1 << 20,
	}
	got := roundTripRequest(t, req)
	if got.Kind != req.Kind || got.From != req.From || got.MaxBytes != req.MaxBytes {
		t.Fatalf("header mangled: %+v -> %+v", req, got)
	}
	if len(got.Parts) != len(req.Parts) {
		t.Fatalf("parts %d -> %d", len(req.Parts), len(got.Parts))
	}
	for i := range req.Parts {
		if got.Parts[i].Pid != req.Parts[i].Pid || !got.Parts[i].DBVV.Equal(req.Parts[i].DBVV) {
			t.Fatalf("part %d mangled: %+v -> %+v", i, req.Parts[i], got.Parts[i])
		}
	}
}

func TestPartStreamRequestRoundTrip(t *testing.T) {
	req := Request{Kind: KindPartStream, From: 1, Part: 11, DBVV: vv.VV{4, 0, 2}, MaxBytes: 4096}
	got := roundTripRequest(t, req)
	if got.Part != 11 || !got.DBVV.Equal(req.DBVV) || got.MaxBytes != 4096 {
		t.Fatalf("stream request mangled: %+v -> %+v", req, got)
	}
}

// Partition fields are kind-gated: a pre-partitioning request must encode
// byte-identically whether or not the new struct fields are populated, so
// old peers and old captures keep decoding unchanged.
func TestOldKindsEncodeByteIdentical(t *testing.T) {
	for _, kind := range []Kind{KindPropagation, KindOOB, KindFetch} {
		base := Request{Kind: kind, From: 2, DBVV: vv.VV{7}, Key: "k", Keys: []string{"a"}, MaxBytes: 9}
		dirty := base
		dirty.Parts = []core.PartState{{Pid: 3, DBVV: vv.VV{1}}}
		dirty.Part = 42
		if !bytes.Equal(AppendRequest(nil, &base), AppendRequest(nil, &dirty)) {
			t.Fatalf("kind %d leaks partition fields into its encoding", kind)
		}
	}
	// And the old-kind encoding itself is the pre-partitioning layout:
	// decoding must leave the partition fields zero.
	got := roundTripRequest(t, Request{Kind: KindPropagation, From: 2, DBVV: vv.VV{7}})
	if got.Parts != nil || got.Part != 0 {
		t.Fatalf("old kind decoded partition fields: %+v", got)
	}
}

func TestPartResponseRoundTrip(t *testing.T) {
	resp := Response{
		Parts: []core.PartReply{
			{Pid: 0, Unowned: true},
			{Pid: 2, Current: true},
			{Pid: 5, Prop: sampleProp()},
			{Pid: 9, Stream: true},
		},
	}
	buf := AppendResponse(nil, &resp)
	var got Response
	if err := DecodeResponse(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Parts) != len(resp.Parts) {
		t.Fatalf("parts %d -> %d", len(resp.Parts), len(got.Parts))
	}
	for i, want := range resp.Parts {
		pe := got.Parts[i]
		if pe.Pid != want.Pid || pe.Unowned != want.Unowned || pe.Current != want.Current || pe.Stream != want.Stream {
			t.Fatalf("part %d flags mangled: %+v -> %+v", i, want, pe)
		}
		if (want.Prop == nil) != (pe.Prop == nil) {
			t.Fatalf("part %d prop presence", i)
		}
		if want.Prop != nil && !propsEqual(want.Prop, pe.Prop) {
			t.Fatalf("part %d prop mangled", i)
		}
	}
	// A partitioned response may also carry an error alongside the entries.
	withErr := Response{Parts: []core.PartReply{{Pid: 1, Current: true}}, Err: "bad db"}
	buf = AppendResponse(nil, &withErr)
	var got2 Response
	if err := DecodeResponse(buf, &got2); err != nil {
		t.Fatal(err)
	}
	if got2.Err != "bad db" || len(got2.Parts) != 1 {
		t.Fatalf("parts+err mangled: %+v", got2)
	}
}

func TestPartResponseRejectsTruncation(t *testing.T) {
	resp := Response{Parts: []core.PartReply{{Pid: 5, Prop: sampleProp()}}}
	buf := AppendResponse(nil, &resp)
	for _, cut := range []int{1, 3, len(buf) / 2, len(buf) - 1} {
		var got Response
		if err := DecodeResponse(buf[:cut], &got); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
