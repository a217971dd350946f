package wire

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

func sampleWALRecords() []WALRecord {
	return []WALRecord{
		{Kind: 1, Key: "user:42", HasOp: true, Op: op.NewSet([]byte("hello"))},
		{Kind: 1, Key: "", HasOp: true, Op: op.NewWriteAt(7, []byte("xy"))},
		{Kind: 2, Prop: &core.Propagation{
			Source: 3,
			Tails: [][]core.TailRecord{
				{{Item: 0, Seq: 1}, {Item: 1, Seq: 2}},
				nil,
				{{Item: 1, Seq: 9}, {Item: 0, Seq: 12}},
			},
			Items: []core.ItemPayload{
				{Key: "a", Value: []byte("va"), IVV: vv.VV{1, 0, 2}},
				{Key: "d", IsDelta: true, IVV: vv.VV{2, 0, 0}, Pre: vv.VV{1, 0, 0},
					Chain: []core.DeltaLink{{Op: op.NewAppend([]byte("z")), Origin: 0}}},
			},
		}},
		{Kind: 2, Prop: &core.Propagation{Source: 1},
			Items: []core.ItemPayload{{Key: "full", Value: []byte("copy"), IVV: vv.VV{0, 5}}}},
		{Kind: 3, Source: 2, OOB: &core.OOBReply{Key: "k", Value: []byte("v"), IVV: vv.VV{3}, Found: true}},
		{Kind: 3, Source: 0, OOB: &core.OOBReply{Key: "missing"}},
		{Kind: 4, Source: 5, Items: []core.ItemPayload{{Key: "r", Value: []byte("rv"), IVV: vv.VV{0, 0, 7}}}},
		{Kind: 5, Acked: []vv.VV{nil, {1, 2, 3}, nil, {0, 9, 0}}, PrunePeers: []int{1, 3}, LogCap: 128},
		{Kind: 5},
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	for i, rec := range sampleWALRecords() {
		buf := AppendWALRecord(nil, &rec)
		if buf[0] != WALMagic {
			t.Fatalf("sample %d: first byte %#x", i, buf[0])
		}
		var got WALRecord
		if err := DecodeWALRecord(buf, &got); err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		// Owned is a decode-side ownership mark, not payload.
		if got.Prop != nil {
			got.Prop.Owned = false
		}
		want := rec
		if want.Prop != nil {
			// Normalize encode-side shapes with no wire representation:
			// a nil inner tail decodes as empty, nil item slices stay nil.
			p := *want.Prop
			for j, tail := range p.Tails {
				if tail == nil {
					p.Tails[j] = []core.TailRecord{}
				}
			}
			want.Prop = &p
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sample %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestWALRecordRejectsWrongMagic(t *testing.T) {
	rec := WALRecord{Kind: 1, Key: "k", HasOp: true, Op: op.NewSet([]byte("v"))}
	buf := AppendWALRecord(nil, &rec)
	buf[0] = Magic // the connection magic, not the WAL one
	var got WALRecord
	if err := DecodeWALRecord(buf, &got); err == nil {
		t.Fatal("decode accepted wrong magic")
	}
}

func TestWALRecordRejectsTrailingBytes(t *testing.T) {
	rec := WALRecord{Kind: 5, LogCap: 3}
	buf := AppendWALRecord(nil, &rec)
	buf = append(buf, 0x00)
	var got WALRecord
	if err := DecodeWALRecord(buf, &got); err == nil {
		t.Fatal("decode accepted trailing bytes")
	}
}

func TestWALRecordDecodeDoesNotAliasInput(t *testing.T) {
	rec := WALRecord{Kind: 2, Prop: &core.Propagation{
		Source: 0,
		Items:  []core.ItemPayload{{Key: "k", Value: []byte("value"), IVV: vv.VV{1}}},
	}}
	buf := AppendWALRecord(nil, &rec)
	var got WALRecord
	if err := DecodeWALRecord(buf, &got); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if string(got.Prop.Items[0].Value) != "value" || got.Prop.Items[0].Key != "k" {
		t.Fatal("decoded record aliases the input buffer")
	}
}

// FuzzDecodeWALRecord feeds arbitrary bytes to the WAL record decoder: it
// must never panic, and any record it accepts must re-encode and decode
// to the same value (the WAL replays what the codec accepts).
func FuzzDecodeWALRecord(f *testing.F) {
	for _, seed := range walRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec WALRecord
		if err := DecodeWALRecord(data, &rec); err != nil {
			return
		}
		buf := AppendWALRecord(nil, &rec)
		var again WALRecord
		if err := DecodeWALRecord(buf, &again); err != nil {
			t.Fatalf("re-decode of re-encoded accepted record failed: %v", err)
		}
	})
}
