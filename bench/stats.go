package main

import (
	"math"
	"sort"
)

// samples collects durations in nanoseconds. It grows in fixed blocks so a
// multi-million-sample run never copies what it already holds.
type samples struct {
	blocks [][]int64
	n      int
}

const sampleBlock = 1 << 16

func (s *samples) add(v int64) {
	if s.n%sampleBlock == 0 {
		s.blocks = append(s.blocks, make([]int64, 0, sampleBlock))
	}
	last := len(s.blocks) - 1
	s.blocks[last] = append(s.blocks[last], v)
	s.n++
}

// merge adds every sample of o.
func (s *samples) merge(o *samples) {
	for _, b := range o.blocks {
		for _, v := range b {
			s.add(v)
		}
	}
}

// sorted returns all samples in ascending order.
func (s *samples) sorted() []int64 {
	out := make([]int64, 0, s.n)
	for _, b := range s.blocks {
		out = append(out, b...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// nWindows is how many equal stretches of time a phase's samples are kept
// apart in; see windowed.
const nWindows = 5

// windowed keeps a phase's samples apart by when they were taken, in
// nWindows equal windows, so that a percentile can be reported as the
// median of the windows' percentiles. On a shared sandbox a run now and
// then meets a 100 ms disk hiccup; pooled over the run it would own the
// p99, while here it moves one window of five. The rare hiccup still shows
// in the pooled cluster.write_ack_p999_us and in the deadline misses.
type windowed struct {
	w     [nWindows]samples
	start int64
	width int64
}

func newWindowed(start, length int64) windowed {
	return windowed{start: start, width: max(length/nWindows, 1)}
}

// add records value v taken at time at; times past the phase's planned end
// (drains, extra rounds) fall in the last window.
func (x *windowed) add(at, v int64) {
	var i int64
	if x.width > 0 { // the zero value keeps everything in one window
		i = (at - x.start) / x.width
	}
	x.w[min(max(i, 0), nWindows-1)].add(v)
}

func (x *windowed) n() int {
	total := 0
	for i := range x.w {
		total += x.w[i].n
	}
	return total
}

// merge adds every sample of o, window by window.
func (x *windowed) merge(o *windowed) {
	for i := range o.w {
		x.w[i].merge(&o.w[i])
	}
}

// wdist is a windowed sample set sorted for reading.
type wdist [][]int64

func (x *windowed) dist() wdist {
	var d wdist
	for i := range x.w {
		if x.w[i].n > 0 {
			d = append(d, x.w[i].sorted())
		}
	}
	return d
}

// p returns the median over the windows of each window's q-th percentile.
func (d wdist) p(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	per := make([]float64, len(d))
	for i, w := range d {
		per[i] = percentile(w, q)
	}
	return median(per)
}

// pooled returns the q-th percentile of all samples taken together.
func (d wdist) pooled(q float64) float64 {
	var all []int64
	for _, w := range d {
		all = append(all, w...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return percentile(all, q)
}

// sum totals the samples.
func (d wdist) sum() float64 {
	var t float64
	for _, w := range d {
		for _, v := range w {
			t += float64(v)
		}
	}
	return t
}

// percentile returns the p-th percentile (0 < p < 100) of an ascending
// slice, interpolating linearly between neighbouring ranks so a reported
// figure keeps every digit the clock gave it. Empty input reads 0.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// tailLadder are the percentiles a report may quote above the median, each
// with the share of samples that lie beyond it, as one in `beyond`.
var tailLadder = []struct {
	p      float64
	beyond int
}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// supportedTail returns the highest percentile of tailLadder that has at
// least ten of the n samples beyond it, or 50 when none does: a p99 over
// 200 samples is two samples' opinion, not a percentile.
func supportedTail(n int) float64 {
	best := 50.0
	for _, t := range tailLadder {
		if n >= 10*t.beyond {
			best = t.p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of vals
// exactly as Python's statistics.quantiles(vals, n=4) (the exclusive
// method) computes them, so a spread worked out here matches the one the
// acceptance driver works out. It needs at least two values.
func quartiles(vals []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	m := len(data)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4 // outside [0,4] at the ends: Python extrapolates, so do we
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(vals []float64) float64 {
	_, med, _ := quartiles(vals)
	return med
}
