package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the system. Parent is the id of the
// span that caused it (0: none); spans of one operation share Op. N is the
// number of calls the span covers — 1, except where calls too short or too
// many to time singly (a burst of in-memory updates, a batch of reads,
// nanosecond-scale primitives) are timed together.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	N      int    `json:"n"`
}

// spanBuf holds the spans one goroutine records: appending needs no lock,
// and ids stay unique across goroutines because each buffer numbers from
// its own base. A nil *spanBuf records nothing, which is how the untraced
// pass runs the same code.
type spanBuf struct {
	base  int32
	spans []span
}

// tracer owns the span buffers of one traced pass.
type tracer struct {
	bufs []*spanBuf
}

// spansPerBuf bounds the ids one goroutine may use.
const spansPerBuf = 1 << 26

// buf returns a fresh buffer for one goroutine; call it before the
// goroutine starts. A nil tracer returns a nil buffer.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{base: int32(len(t.bufs)) * spansPerBuf}
	t.bufs = append(t.bufs, b)
	return b
}

// begin opens a span starting at time at and returns its id.
func (b *spanBuf) begin(name string, parent int32, op int64, at int64) int32 {
	if b == nil {
		return 0
	}
	id := b.base + int32(len(b.spans)) + 1
	b.spans = append(b.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: at, N: 1})
	return id
}

// end closes span id at time at, covering n calls.
func (b *spanBuf) end(id int32, at int64, n int) {
	if b == nil {
		return
	}
	s := &b.spans[id-b.base-1]
	s.End, s.N = at, n
}

// all returns every recorded span.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// writeJSONL writes the spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime sums, per span name, the spans' durations, their self times and
// the calls they cover. A span's self time is its duration minus the part of
// that interval its child spans cover; children that overlap one another
// (work done in parallel) are counted once.
type layerTime struct {
	total, self int64
	spans, n    int
}

func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int32][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := make(map[string]*layerTime)
	for i := range spans {
		s := &spans[i]
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.total += dur
		lt.self += dur - coveredBy(children[s.ID], s.Start, s.End)
		lt.spans++
		lt.n += s.N
	}
	return out
}

// coveredBy returns the length of the union of the spans' intervals,
// clipped to [lo, hi].
func coveredBy(kids []*span, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	end := lo
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}
