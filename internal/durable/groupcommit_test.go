package durable

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/op"
	"repro/internal/wire"
)

// TestGroupCommitConcurrentDurableWrites drives concurrent durable updates
// with fsync ENABLED, then crashes (no closing snapshot): every
// acknowledged update must replay, and the committer must have amortized
// the writers into fewer fsyncs than records.
func TestGroupCommitConcurrentDurableWrites(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 1, Options{})

	const writers = 8
	const perWriter = 20
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", g, i)
				if err := d.Update(key, op.NewSet([]byte(key))); err != nil {
					t.Errorf("update %s: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := d.WALStats()
	if st.BatchedRecords != writers*perWriter {
		t.Errorf("BatchedRecords = %d, want %d", st.BatchedRecords, writers*perWriter)
	}
	if st.Fsyncs == 0 || st.Fsyncs > st.BatchedRecords {
		t.Errorf("Fsyncs = %d for %d records", st.Fsyncs, st.BatchedRecords)
	}
	if err := d.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, 0, 1, Options{})
	defer d2.Close()
	for g := 0; g < writers; g++ {
		for i := 0; i < perWriter; i++ {
			key := fmt.Sprintf("w%d-k%d", g, i)
			if v, ok := d2.Core().Read(key); !ok || string(v) != key {
				t.Fatalf("acked update %s lost across crash: %q/%v", key, v, ok)
			}
		}
	}
	if err := d2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotFloorCrashRecovery crosses several automatic snapshot
// floors with writers running, crashes, and checks recovery reproduces
// the exact pre-crash state (snapshot + replay of only the post-floor
// suffix).
func TestSnapshotFloorCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 1, Options{NoSync: true, SnapshotEvery: 7})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i%11)
		if err := d.Update(key, op.NewAppend([]byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	want := d.Core().Snapshot()
	if err := d.CloseWithoutSnapshot(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, 0, 1, Options{NoSync: true, SnapshotEvery: 7})
	defer d2.Close()
	got := d2.Core().Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs from pre-crash state:\n got %+v\nwant %+v", got, want)
	}
	if err := d2.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWALRecordWithoutMagicFailsRecovery stages a log record that does not
// lead with wire.WALMagic — a pre-varint gob record, a varint record with
// its magic byte lost, or a record of the previous codec, whose magic 0xE2
// led propagations that named a key in every tail record — and checks
// recovery refuses the directory: Open fails naming the magic instead of
// skipping or misparsing the record and diverging from what the replica
// acknowledged.
func TestWALRecordWithoutMagicFailsRecovery(t *testing.T) {
	var gobRec bytes.Buffer
	if err := gob.NewEncoder(&gobRec).Encode(struct {
		Kind uint8
		Key  string
	}{recUpdate, "old"}); err != nil {
		t.Fatal(err)
	}
	noMagic := wire.AppendWALRecord(nil, &wire.WALRecord{Kind: recUpdate, Key: "k", Op: op.NewSet([]byte("v")), HasOp: true})
	noMagic[0] = 0
	previous := wire.AppendWALRecord(nil, &wire.WALRecord{Kind: recUpdate, Key: "k", Op: op.NewSet([]byte("v")), HasOp: true})
	previous[0] = 0xE2
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"gob-record", gobRec.Bytes()},
		{"magic-cleared", noMagic},
		{"previous-codec", previous},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, 0, 1, Options{NoSync: true})
			if err := d.Update("new", op.NewSet([]byte("varint"))); err != nil {
				t.Fatal(err)
			}
			d.wmu.Lock()
			if err := d.log.Append(tc.payload); err != nil {
				d.wmu.Unlock()
				t.Fatal(err)
			}
			d.wmu.Unlock()
			if err := d.CloseWithoutSnapshot(); err != nil {
				t.Fatal(err)
			}

			d2, err := Open(dir, 0, 1, Options{NoSync: true})
			if err == nil {
				d2.Close()
				t.Fatal("recovery accepted a record without the WAL magic")
			}
			if !strings.Contains(err.Error(), "magic") {
				t.Fatalf("recovery error %q does not name the magic", err)
			}
		})
	}
}
