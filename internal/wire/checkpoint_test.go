package wire

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/store"
	"repro/internal/vv"
)

// sampleCheckpoints covers an empty replica's checkpoint, one that sets
// every field (nil ack entries, an auxiliary copy and log, a delta chain,
// records at several origins) and a delta labelled into a chain.
func sampleCheckpoints() []*core.Checkpoint {
	return []*core.Checkpoint{
		{ID: 0, N: 1, DBVV: vv.VV{0}},
		{
			Floor: 12, ID: 2, N: 3,
			DBVV: vv.VV{4, 0, 9}, Pruned: vv.VV{2, 0, 3}, Trunc: vv.VV{1, 0, 3},
			Acked:      []vv.VV{{4, 0, 7}, nil, {3, 0, 9}},
			PrunePeers: []int{0, 1},
			LogCap:     64,
			Conflicted: true,
			Delta:      true,
			Aux:        []core.AuxRecord{{Key: "hot", Pre: vv.VV{1, 0, 2}, Op: op.NewAppend([]byte("+x"))}},
			Items: []core.ItemImage{
				{Key: "hot", Value: []byte("v"), IVV: vv.VV{1, 0, 1},
					HasAux: true, AuxValue: []byte("fresh+x"), AuxIVV: vv.VV{1, 0, 3}, Seqs: []uint64{1}},
				{Key: "chained", Value: []byte("abc"), IVV: vv.VV{2, 0, 8},
					Deltas: []store.Delta{
						{Op: op.NewAppend([]byte("b")), Pre: vv.VV{1, 0, 8}, Origin: 0},
						{Op: op.NewWriteAt(2, []byte("c")), Pre: vv.VV{2, 0, 7}, Origin: 2},
					},
					Seqs: []uint64{2, 0, 8}},
				{Key: "cold", IVV: vv.VV{0, 0, 0}},
			},
		},
		{Floor: 15, Prev: 12, ID: 1, N: 2, DBVV: vv.VV{3, 5},
			Items: []core.ItemImage{{Key: "k", Value: []byte("w"), IVV: vv.VV{3, 5}, Seqs: []uint64{3, 5}}}},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for i, c := range sampleCheckpoints() {
		buf := AppendCheckpoint(nil, c)
		if buf[0] != CheckpointMagic {
			t.Fatalf("sample %d: first byte %#x", i, buf[0])
		}
		got, err := DecodeCheckpoint(buf)
		if err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("sample %d round trip:\n got %+v\nwant %+v", i, got, c)
		}
	}
}

// A replica's own checkpoint, through the codec, restores that replica.
func TestCheckpointOfReplicaRoundTrip(t *testing.T) {
	a, b := core.NewReplica(0, 2, core.WithDeltaPropagation()), core.NewReplica(1, 2, core.WithDeltaPropagation())
	for i := 0; i < 20; i++ {
		a.Update(string(rune('a'+i%7)), op.NewAppend([]byte{byte(i)}))
	}
	core.AntiEntropy(b, a)
	a.Update("a", op.NewSet([]byte("fresh")))
	b.CopyOutOfBound("a", a)
	b.Update("a", op.NewAppend([]byte("+local")))
	b.SetLogCap(2)
	b.Prune()

	want := b.CaptureCheckpoint(true)
	got, err := DecodeCheckpoint(AppendCheckpoint(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if why := core.CheckpointDiff(want, restored.CaptureCheckpoint(true)); why != "" {
		t.Fatalf("restored replica differs: %s", why)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// withChecksum appends the checkpoint trailer to body.
func withChecksum(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func TestDecodeCheckpointRejectsDamage(t *testing.T) {
	good := AppendCheckpoint(nil, sampleCheckpoints()[1])
	body := good[:len(good)-4]
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	wrongMagic := append([]byte(nil), body...)
	wrongMagic[0] = WALMagic
	for name, data := range map[string][]byte{
		"empty":            nil,
		"garbage":          []byte("garbage"),
		"flipped bit":      flipped,
		"truncated":        good[:len(good)-1],
		"wrong magic":      withChecksum(wrongMagic),
		"trailing bytes":   withChecksum(append(append([]byte(nil), body...), 0)),
		"truncated body":   withChecksum(body[:len(body)/2]),
		"checksum only":    withChecksum(nil),
		"magic with crc":   withChecksum([]byte{CheckpointMagic}),
		"wal record bytes": AppendWALRecord(nil, &WALRecord{Kind: 1, Key: "k", HasOp: true, Op: op.NewSet([]byte("v"))}),
	} {
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeCheckpointDoesNotAliasInput(t *testing.T) {
	buf := AppendCheckpoint(nil, sampleCheckpoints()[2])
	got, err := DecodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if string(got.Items[0].Value) != "w" || got.Items[0].Key != "k" {
		t.Fatal("decoded checkpoint aliases the input buffer")
	}
}

// checkpointSeeds are the bodies — files without their checksum trailer —
// of the sample checkpoints, plus a body cut short and a lone magic byte.
func checkpointSeeds() [][]byte {
	var seeds [][]byte
	for _, c := range sampleCheckpoints() {
		buf := AppendCheckpoint(nil, c)
		seeds = append(seeds, buf[:len(buf)-4])
	}
	return append(seeds, seeds[1][:len(seeds[1])/2], []byte{CheckpointMagic})
}

// FuzzDecodeCheckpoint feeds arbitrary bodies, with a valid checksum
// appended so that the fuzzer reaches the decoder proper, to the
// checkpoint decoder: it must never panic, any checkpoint it accepts must
// re-encode and decode to the same value, and restoring it must fail or
// succeed without panicking.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := DecodeCheckpoint(withChecksum(body))
		if err != nil {
			return
		}
		again, err := DecodeCheckpoint(AppendCheckpoint(nil, c))
		if err != nil {
			t.Fatalf("re-decode of re-encoded accepted checkpoint failed: %v", err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("re-encoded checkpoint decodes differently:\n got %+v\nwant %+v", again, c)
		}
		core.RestoreCheckpoint(c)
	})
}
