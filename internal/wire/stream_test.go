package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

func sampleChunk(seq uint64) *core.Propagation {
	return &core.Propagation{
		Source: 0,
		Tails: [][]core.TailRecord{
			{{Item: 0, Seq: seq*2 + 1}, {Item: 1, Seq: seq*2 + 2}},
			nil,
		},
		Items: []core.ItemPayload{
			{Key: "a", Value: []byte("va"), IVV: vv.VV{seq*2 + 1, 0}},
			{Key: "b", Value: []byte("vb"), IVV: vv.VV{seq*2 + 2, 0}},
		},
	}
}

// sessionStream encodes a complete, valid session reply: begin, chunks, end.
func sessionStream(t testing.TB, nchunks int) []byte {
	var out bytes.Buffer
	var buf []byte
	buf = AppendSessionBegin(buf[:0], &SessionBegin{Source: 0})
	if err := WriteFrame(&out, KindSessionBegin, buf); err != nil {
		t.Fatal(err)
	}
	records := uint64(0)
	for i := 0; i < nchunks; i++ {
		p := sampleChunk(uint64(i))
		records += uint64(p.RecordCount())
		buf = AppendSessionChunk(buf[:0], uint64(i), p)
		if err := WriteFrame(&out, KindSessionChunk, buf); err != nil {
			t.Fatal(err)
		}
	}
	buf = AppendSessionEnd(buf[:0], &SessionEnd{Chunks: uint64(nchunks), Records: records})
	if err := WriteFrame(&out, KindSessionEnd, buf); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// drive feeds a raw byte stream through ReadSessionFrame + SessionReader,
// returning the number of chunks accepted and whether the session ended
// cleanly.
func drive(t testing.TB, stream []byte) (chunks int, clean bool, err error) {
	br := bufio.NewReader(bytes.NewReader(stream))
	var sr SessionReader
	var buf []byte
	for {
		frameType, payload, ferr := ReadSessionFrame(br, buf)
		if ferr != nil {
			return chunks, false, ferr
		}
		buf = payload
		chunk, done, serr := sr.Feed(frameType, payload)
		if serr != nil {
			return chunks, false, serr
		}
		if chunk != nil {
			chunks++
			// A yielded chunk must be structurally sound.
			if chunk.RecordCount() == 0 && len(chunk.Items) == 0 {
				t.Fatal("reader yielded an empty chunk")
			}
		}
		if done {
			return chunks, sr.Done(), nil
		}
	}
}

func TestSessionStreamRoundTrip(t *testing.T) {
	chunks, clean, err := drive(t, sessionStream(t, 3))
	if err != nil || !clean || chunks != 3 {
		t.Fatalf("drive = (%d chunks, clean=%v, err=%v), want (3, true, nil)", chunks, clean, err)
	}
}

func TestSessionBeginRoundTrip(t *testing.T) {
	for _, b := range []SessionBegin{
		{Source: 3},
		{Source: 7, Current: true},
		{Source: -1, Err: "unknown database \"x\""},
	} {
		var got SessionBegin
		if err := DecodeSessionBegin(AppendSessionBegin(nil, &b), &got); err != nil {
			t.Fatalf("decode %+v: %v", b, err)
		}
		if got != b {
			t.Fatalf("round trip: %+v vs %+v", b, got)
		}
	}
}

func TestSessionChunkRoundTrip(t *testing.T) {
	p := sampleChunk(4)
	seq, got, err := DecodeSessionChunk(AppendSessionChunk(nil, 9, p))
	if err != nil || seq != 9 {
		t.Fatalf("decode: seq=%d err=%v", seq, err)
	}
	if got.RecordCount() != p.RecordCount() || len(got.Items) != len(p.Items) {
		t.Fatalf("chunk mismatch: %+v vs %+v", p, got)
	}
}

func TestSessionTruncatedStream(t *testing.T) {
	full := sessionStream(t, 3)
	for _, cut := range []int{1, 3, len(full) / 2, len(full) - 1} {
		if _, clean, err := drive(t, full[:cut]); err == nil || clean {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestSessionDuplicateAndReorderedChunks(t *testing.T) {
	var out bytes.Buffer
	buf := AppendSessionBegin(nil, &SessionBegin{Source: 0})
	WriteFrame(&out, KindSessionBegin, buf)
	chunk0 := AppendSessionChunk(nil, 0, sampleChunk(0))
	chunk1 := AppendSessionChunk(nil, 1, sampleChunk(1))

	// Duplicate chunk 0.
	dup := out
	WriteFrame(&dup, KindSessionChunk, chunk0)
	WriteFrame(&dup, KindSessionChunk, chunk0)
	if _, _, err := drive(t, dup.Bytes()); err == nil {
		t.Fatal("duplicate chunk not rejected")
	}

	// Chunk 1 before chunk 0.
	var re bytes.Buffer
	WriteFrame(&re, KindSessionBegin, AppendSessionBegin(nil, &SessionBegin{Source: 0}))
	WriteFrame(&re, KindSessionChunk, chunk1)
	WriteFrame(&re, KindSessionChunk, chunk0)
	if _, _, err := drive(t, re.Bytes()); err == nil {
		t.Fatal("reordered chunks not rejected")
	}
}

func TestSessionProtocolViolations(t *testing.T) {
	chunk := AppendSessionChunk(nil, 0, sampleChunk(0))
	begin := AppendSessionBegin(nil, &SessionBegin{Source: 0})
	endOK := AppendSessionEnd(nil, &SessionEnd{Chunks: 1, Records: 2})

	t.Run("chunk before begin", func(t *testing.T) {
		var sr SessionReader
		if _, _, err := sr.Feed(KindSessionChunk, chunk); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("end before begin", func(t *testing.T) {
		var sr SessionReader
		if _, _, err := sr.Feed(KindSessionEnd, endOK); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("duplicate begin", func(t *testing.T) {
		var sr SessionReader
		sr.Feed(KindSessionBegin, begin)
		if _, _, err := sr.Feed(KindSessionBegin, begin); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("chunk in current session", func(t *testing.T) {
		var sr SessionReader
		cur := AppendSessionBegin(nil, &SessionBegin{Source: 0, Current: true})
		sr.Feed(KindSessionBegin, cur)
		if _, _, err := sr.Feed(KindSessionChunk, chunk); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("empty chunk", func(t *testing.T) {
		var sr SessionReader
		sr.Feed(KindSessionBegin, begin)
		empty := AppendSessionChunk(nil, 0, &core.Propagation{Tails: make([][]core.TailRecord, 2)})
		if p, _, err := sr.Feed(KindSessionChunk, empty); err == nil {
			t.Fatalf("accepted, yielding %+v", p)
		}
	})
	t.Run("end totals mismatch", func(t *testing.T) {
		var sr SessionReader
		sr.Feed(KindSessionBegin, begin)
		sr.Feed(KindSessionChunk, chunk)
		bad := AppendSessionEnd(nil, &SessionEnd{Chunks: 2, Records: 2})
		if _, _, err := sr.Feed(KindSessionEnd, bad); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("frame after end", func(t *testing.T) {
		var sr SessionReader
		sr.Feed(KindSessionBegin, begin)
		sr.Feed(KindSessionChunk, chunk)
		if _, done, err := sr.Feed(KindSessionEnd, endOK); err != nil || !done {
			t.Fatalf("clean session rejected: %v", err)
		}
		if _, _, err := sr.Feed(KindSessionChunk, chunk); err == nil {
			t.Fatal("accepted")
		}
	})
	t.Run("remote error in begin", func(t *testing.T) {
		var sr SessionReader
		e := AppendSessionBegin(nil, &SessionBegin{Source: -1, Err: "boom"})
		if _, _, err := sr.Feed(KindSessionBegin, e); err == nil {
			t.Fatal("remote error not surfaced")
		}
	})
	t.Run("errored reader stays errored", func(t *testing.T) {
		var sr SessionReader
		sr.Feed(KindSessionChunk, chunk) // error: chunk before begin
		if _, _, err := sr.Feed(KindSessionBegin, begin); err == nil {
			t.Fatal("poisoned reader accepted input")
		}
	})
}

func TestReadSessionFrameRejectsNonSessionTypes(t *testing.T) {
	var out bytes.Buffer
	WriteFrame(&out, FrameResponse, []byte{0})
	br := bufio.NewReader(bytes.NewReader(out.Bytes()))
	if _, _, err := ReadSessionFrame(br, nil); err == nil {
		t.Fatal("response frame accepted as session frame")
	}
}

// FuzzSessionFrames drives the full recipient-side session machinery —
// frame reader plus state machine — with arbitrary byte streams. Whatever
// the input (truncated, reordered, duplicated, bit-flipped), the drive must
// return cleanly: no panics, no empty yielded chunks, and Done() only after
// a validated End frame.
func FuzzSessionFrames(f *testing.F) {
	valid := func() []byte {
		var out bytes.Buffer
		buf := AppendSessionBegin(nil, &SessionBegin{Source: 0})
		WriteFrame(&out, KindSessionBegin, buf)
		records := uint64(0)
		for i := 0; i < 2; i++ {
			p := sampleChunk(uint64(i))
			records += uint64(p.RecordCount())
			WriteFrame(&out, KindSessionChunk, AppendSessionChunk(nil, uint64(i), p))
		}
		WriteFrame(&out, KindSessionEnd, AppendSessionEnd(nil, &SessionEnd{Chunks: 2, Records: records}))
		return out.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                         // truncated
	f.Add(append(append([]byte{}, valid...), valid...)) // trailing duplicate session
	f.Add([]byte{KindSessionBegin, 0})
	f.Add([]byte{KindSessionChunk, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		chunks, clean, err := drive(t, data)
		if clean && err != nil {
			t.Fatalf("clean session with error: %v", err)
		}
		_ = chunks
	})
}

func TestStreamedRecipientHoldsOriginBytesPerItem(t *testing.T) {
	// A recipient caught up through decoded chunk frames must hold its
	// items in about the bytes the origin does: no adopted key, log record
	// or value may keep a frame-sized string or slab alive.
	const n = 100_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	origin := core.NewReplica(0, 2)
	val := make([]byte, 16)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(val, uint64(i))
		if err := origin.Update(fmt.Sprintf("item-%07d", i), op.NewSet(val)); err != nil {
			t.Fatal(err)
		}
	}
	withOrigin := heap()

	recipient := core.NewReplica(1, 2)
	s := origin.StartChunkSession(recipient.DBVV(), core.DefaultChunkBytes)
	var buf []byte
	for seq := uint64(0); ; seq++ {
		p := s.Next()
		if p == nil {
			break
		}
		buf = AppendSessionChunk(buf[:0], seq, p)
		s.Recycle(p)
		_, chunk, err := DecodeSessionChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		recipient.ApplyChunk(chunk)
	}
	s, buf = nil, nil
	withRecipient := heap()

	if ok, why := core.Converged(recipient, origin); !ok {
		t.Fatalf("not converged: %s", why)
	}
	originPer := float64(withOrigin-base) / n
	recipientPer := float64(withRecipient-withOrigin) / n
	t.Logf("heap per item: origin %.0f B, streamed recipient %.0f B", originPer, recipientPer)
	if recipientPer > 1.1*originPer {
		t.Errorf("streamed recipient holds %.0f B per item, more than 10%% over the origin's %.0f B", recipientPer, originPer)
	}
	runtime.KeepAlive(origin)
	runtime.KeepAlive(recipient)
}
