package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

// Seed corpora for the session-frame, reconcile-frame, reconcile-serve,
// propagation, WAL-record and checkpoint fuzz drivers are committed under testdata/fuzz/ so the CI fuzz smoke (and
// every plain `go test` run, which executes corpus entries as seed cases)
// always exercises real frames instead of starting from an empty corpus. The
// corpus duplicates the drivers' f.Add seeds on purpose: the drivers keep
// their inline seeds so wirecheck's fuzz leg sees the kind constants, and
// the files below survive for crasher triage and CI artifact upload.
//
// Regenerate after a codec change:
//
//	WIRE_REGEN_CORPUS=1 go test ./internal/wire -run TestRegenerateSeedCorpora
func TestRegenerateSeedCorpora(t *testing.T) {
	if os.Getenv("WIRE_REGEN_CORPUS") == "" {
		t.Skip("set WIRE_REGEN_CORPUS=1 to rewrite the testdata/fuzz seed corpora")
	}
	write := func(fuzzName string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzSessionFrames", sessionFrameSeeds())
	write("FuzzDecodeReconcileFrames", reconcileFrameSeeds())
	write("FuzzServeReconcile", serveReconcileSeeds(t))
	write("FuzzDecodePropagation", propagationSeeds())
	write("FuzzDecodeWALRecord", walRecordSeeds())
	write("FuzzDecodeCheckpoint", checkpointSeeds())
}

// TestSeedCorporaPresent keeps the committed corpus from silently
// disappearing: every driver must have at least one on-disk seed.
func TestSeedCorporaPresent(t *testing.T) {
	for _, fuzzName := range []string{"FuzzSessionFrames", "FuzzDecodeReconcileFrames", "FuzzServeReconcile", "FuzzDecodePropagation", "FuzzDecodeWALRecord", "FuzzDecodeCheckpoint"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", fuzzName))
		if err != nil || len(entries) == 0 {
			t.Errorf("no committed seed corpus for %s (err %v); run WIRE_REGEN_CORPUS=1 go test -run TestRegenerateSeedCorpora ./internal/wire", fuzzName, err)
		}
	}
}

// propagationSeeds covers the version-6 propagation layout: tails from
// several origins pointing back and forth into the items, a delta item,
// a record pointing past the items, and item-section headers that claim
// too few and too many value bytes.
func propagationSeeds() [][]byte {
	return [][]byte{
		AppendPropagation(nil, sampleProp()),
		AppendPropagation(nil, &core.Propagation{Source: 0}),
		AppendPropagation(nil, &core.Propagation{
			Source: 1,
			Tails:  [][]core.TailRecord{{{Item: 0, Seq: 9}}},
			Items: []core.ItemPayload{{
				Key: "k", IsDelta: true, IVV: vv.VV{2}, Pre: vv.VV{1},
				Chain: []core.DeltaLink{{Op: op.NewSet([]byte("v")), Origin: 0}},
			}},
		}),
		slabHeaderClaiming(3), // honest
		AppendPropagation(nil, danglingProp()),
		slabHeaderClaiming(2),    // too few value bytes
		slabHeaderClaiming(4),    // too many
		slabHeaderClaiming(0x7F), // more than the frame holds
		{0x00, 0x00},
	}
}

// slabHeaderClaiming encodes a propagation of one full item carrying
// "abc" whose item-section header claims vals value bytes; 3 is honest.
func slabHeaderClaiming(vals byte) []byte {
	b := AppendPropagation(nil, &core.Propagation{
		Tails: [][]core.TailRecord{{{Item: 0, Seq: 7}}},
		Items: []core.ItemPayload{{Key: "k", Value: []byte("abc"), IVV: vv.VV{7}}},
	})
	b[2] = vals // after the source and the item count
	return b
}

// danglingProp has a record that points past its one item.
func danglingProp() *core.Propagation {
	return &core.Propagation{
		Tails: [][]core.TailRecord{{{Item: 0, Seq: 2}, {Item: 1, Seq: 3}}},
		Items: []core.ItemPayload{{Key: "k", Value: []byte("v"), IVV: vv.VV{3}}},
	}
}

// walRecordSeeds covers every WAL record kind, a propagation record
// pointing past its items, and a record under the previous codec's magic.
func walRecordSeeds() [][]byte {
	var seeds [][]byte
	for _, rec := range sampleWALRecords() {
		seeds = append(seeds, AppendWALRecord(nil, &rec))
	}
	dangling := AppendWALRecord(nil, &WALRecord{Kind: 2, Prop: danglingProp()})
	previous := append([]byte(nil), seeds[0]...)
	previous[0] = 0xE2
	return append(seeds, dangling, previous, []byte{WALMagic}, []byte{WALMagic, 1, 0xFF})
}

func sessionFrameSeeds() [][]byte {
	var valid bytes.Buffer
	WriteFrame(&valid, KindSessionBegin, AppendSessionBegin(nil, &SessionBegin{Source: 0}))
	records := uint64(0)
	for i := 0; i < 2; i++ {
		p := sampleChunk(uint64(i))
		records += uint64(p.RecordCount())
		WriteFrame(&valid, KindSessionChunk, AppendSessionChunk(nil, uint64(i), p))
	}
	WriteFrame(&valid, KindSessionEnd, AppendSessionEnd(nil, &SessionEnd{Chunks: 2, Records: records}))

	var divert bytes.Buffer
	WriteFrame(&divert, KindSessionBegin, AppendSessionBegin(nil, &SessionBegin{Source: 1, Reconcile: true}))
	WriteFrame(&divert, KindSessionEnd, AppendSessionEnd(nil, &SessionEnd{}))

	return [][]byte{
		valid.Bytes(),
		valid.Bytes()[:valid.Len()/2], // truncated mid-chunk
		divert.Bytes(),                // reconcile-diverted empty session
		{KindSessionBegin, 0},
		{KindSessionChunk, 0xFF, 0xFF, 0xFF, 0xFF},
	}
}

func reconcileFrameSeeds() [][]byte {
	return [][]byte{
		AppendRequest(nil, &Request{Kind: KindReconcile, From: 1, Ranges: sampleRanges()}),
		AppendRequest(nil, &Request{Kind: KindReconcile, Part: 3}),
		{respReconcile, reconRetired}, // the retired divert marker: must not decode
		AppendResponse(nil, &Response{Recon: []core.ReconcileReply{
			{Match: true},
			{Keys: []core.KeyDigest{{Key: "k", Fp: 9}}},
			{Strata: true},
		}}),
		AppendResponse(nil, &Response{Parts: []core.PartReply{{Pid: 1, Reconcile: true}}}),
		{0xEB, 0x01, byte(KindReconcile)},
		AppendRequest(nil, &Request{Kind: KindReconcile, Ranges: sketchRanges()[:1]}),
		AppendRequest(nil, &Request{Kind: KindReconcile, Ranges: sketchRanges()[1:]}),
		AppendResponse(nil, &Response{Recon: []core.ReconcileReply{{SketchCells: 780}}}),
		{byte(KindReconcile), 0, 0, 0, 0, 0, 1, rangeRetired}, // the retired range bounds: must not decode
	}
}
