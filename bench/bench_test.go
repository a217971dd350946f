package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func lagsOf(t *lagTracker) []int64 {
	var all samples
	for i := range t.lag.w {
		all.merge(&t.lag.w[i])
	}
	return all.sorted()
}

func TestLagTracker(t *testing.T) {
	type ev struct {
		ack    bool // true: acked(stream, at); false: covered(stream, r, seq, at)
		stream int
		r      int
		seq    uint64
		at     int64
	}
	cases := []struct {
		name    string
		streams []struct {
			base       uint64
			recipients int
		}
		events   []ev
		wantLags []int64 // sorted
		wantVBA  int
		pending  int
	}{
		{
			name: "visible when the slowest recipient covers it, whatever the order",
			streams: []struct {
				base       uint64
				recipients int
			}{{base: 10, recipients: 2}},
			events: []ev{
				{ack: true, at: 100},     // seq 11
				{ack: true, at: 200},     // seq 12
				{r: 1, seq: 12, at: 300}, // recipient 1 has both; recipient 0 has none
				{r: 0, seq: 11, at: 450}, // write 0 everywhere at 450
				{r: 0, seq: 12, at: 900}, // write 1 everywhere at 900
				{r: 1, seq: 12, at: 950}, // nothing new
				{ack: true, at: 1000},    // seq 13, never covered
			},
			wantLags: []int64{350, 700},
			pending:  1,
		},
		{
			name: "one pull covering several writes stamps each from its own ack",
			streams: []struct {
				base       uint64
				recipients int
			}{{base: 0, recipients: 1}},
			events: []ev{
				{ack: true, at: 10}, {ack: true, at: 20}, {ack: true, at: 30},
				{r: 0, seq: 3, at: 100},
			},
			wantLags: []int64{70, 80, 90},
		},
		{
			name: "sequence numbers are per partition: streams do not cover one another",
			streams: []struct {
				base       uint64
				recipients int
			}{{base: 5, recipients: 1}, {base: 7, recipients: 1}},
			events: []ev{
				{ack: true, stream: 0, at: 100}, // partition A seq 6
				{ack: true, stream: 1, at: 110}, // partition B seq 8
				{stream: 1, r: 0, seq: 8, at: 200},
				{stream: 0, r: 0, seq: 5, at: 300}, // A's recipient still at the base
				{stream: 0, r: 0, seq: 6, at: 400},
			},
			wantLags: []int64{90, 300},
		},
		{
			name: "a write pulled before its ack returned has lag 0 and is counted",
			streams: []struct {
				base       uint64
				recipients int
			}{{base: 0, recipients: 2}},
			events: []ev{
				{r: 0, seq: 1, at: 50},
				{r: 1, seq: 1, at: 60},
				{ack: true, at: 100}, // acked after both recipients had it
				{r: 0, seq: 2, at: 150},
				{ack: true, at: 200}, // one recipient early, one late
				{r: 1, seq: 2, at: 260},
				{ack: true, at: 300},
				{r: 0, seq: 3, at: 290}, // stamped with a time before the ack's own
				{r: 1, seq: 3, at: 295},
			},
			wantLags: []int64{0, 0, 60},
			wantVBA:  2,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &lagTracker{}
			for _, s := range c.streams {
				tr.addStream(s.base, s.recipients)
			}
			for _, e := range c.events {
				if e.ack {
					tr.acked(e.stream, e.at)
				} else {
					tr.covered(e.stream, e.r, e.seq, e.at)
				}
			}
			got := lagsOf(tr)
			if len(got) != len(c.wantLags) {
				t.Fatalf("lags %v, want %v", got, c.wantLags)
			}
			for i := range got {
				if got[i] != c.wantLags[i] {
					t.Fatalf("lags %v, want %v", got, c.wantLags)
				}
			}
			if tr.visibleBeforeAck != c.wantVBA {
				t.Errorf("visibleBeforeAck = %d, want %d", tr.visibleBeforeAck, c.wantVBA)
			}
			if tr.pending() != c.pending {
				t.Errorf("pending = %d, want %d", tr.pending(), c.pending)
			}
		})
	}
}

func TestLagDeadline(t *testing.T) {
	tr := &lagTracker{lagDeadline: 100}
	tr.addStream(0, 1)
	tr.acked(0, 0)
	tr.acked(0, 50)
	tr.covered(0, 0, 2, 120) // lags 120 and 70
	if tr.lagMisses != 1 {
		t.Fatalf("lagMisses = %d, want 1", tr.lagMisses)
	}
}

// TestPacerChargesStallFromDueTime injects a 50 ms stall into one write of
// an open-loop lane and checks that every write that came due during the
// stall is charged from its own due time, and that the generator's lateness
// shows the stall.
func TestPacerChargesStallFromDueTime(t *testing.T) {
	var now int64
	clk := clock{
		now:   func() int64 { return now },
		sleep: func(d time.Duration) { now += int64(d) },
	}
	const (
		rate    = 1000.0 // one write per millisecond
		service = int64(100 * time.Microsecond)
		stall   = int64(50 * time.Millisecond)
		stallAt = 10
		writes  = 2000
	)
	p := newPacer(clk, rate)
	interval := int64(time.Millisecond)
	var latency []int64
	for i := 0; i < writes; i++ {
		due, issued := p.next(i)
		if due != int64(i)*interval {
			t.Fatalf("write %d due at %d, want %d", i, due, int64(i)*interval)
		}
		if issued < due {
			t.Fatalf("write %d issued at %d, before it was due at %d", i, issued, due)
		}
		now += service
		if i == stallAt {
			now += stall
		}
		latency = append(latency, now-due)
	}
	stallEnd := int64(stallAt)*interval + service + stall
	for i := stallAt + 1; i < writes; i++ {
		due := int64(i) * interval
		if due >= stallEnd {
			break
		}
		if min := stallEnd - due; latency[i] < min {
			t.Fatalf("write %d came due %d ns before the stall ended but was charged only %d ns", i, min, latency[i])
		}
	}
	// Well after the stall the lane has caught up and is on schedule again.
	if got := latency[writes-1]; got != service {
		t.Errorf("last write latency %d, want the bare service time %d", got, service)
	}
	late := p.late.sorted()
	if len(late) != writes {
		t.Fatalf("lateness has %d samples, want one per write (%d)", len(late), writes)
	}
	// About 55 writes were issued late (the backlog drains at 10 writes per
	// ms of service), the worst by nearly the whole stall: more than 1% of
	// 2000, so the p99 must show it.
	if p99 := percentile(late, 99); p99 < float64(20*time.Millisecond) {
		t.Errorf("gen_late p99 = %.0f ns: the 50 ms stall does not show", p99)
	}
	if p50 := percentile(late, 50); p50 != 0 {
		t.Errorf("gen_late p50 = %.0f ns, want 0: most writes were on time", p50)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {9, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {99999, 99.9}, {100000, 99.99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{50, 30}, {25, 20}, {90, 46}, {100, 50}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The expected values are statistics.quantiles(data, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 4, 4, 4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(c.data)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
				break
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100, N: 1},
		{ID: 2, Parent: 1, Name: "build", Start: 10, End: 30, N: 64},
		{ID: 3, Parent: 1, Name: "apply", Start: 25, End: 60, N: 64},  // overlaps build by 5
		{ID: 4, Parent: 1, Name: "apply", Start: 90, End: 120, N: 64}, // runs past its parent
		{ID: 5, Parent: 3, Name: "lock", Start: 30, End: 40, N: 1},
		{ID: 6, Name: "session", Start: 200, End: 250, N: 1}, // no children
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		// Children cover [10,60] and [90,100] of the first session: 60 of
		// its 100. The second session is all self time.
		"session": {total: 150, self: 40 + 50, spans: 2, n: 2},
		"build":   {total: 20, self: 20, spans: 1, n: 64},
		"apply":   {total: 65, self: 25 + 30, spans: 2, n: 128},
		"lock":    {total: 10, self: 10, spans: 1, n: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d layers, want %d", len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; g == nil || *g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestSpanBuffers(t *testing.T) {
	var off *tracer
	if b := off.buf(); b != nil || b.begin("x", 0, 0, 0) != 0 {
		t.Fatal("a nil tracer must hand out nil buffers that record nothing")
	}
	tr := &tracer{}
	a, b := tr.buf(), tr.buf()
	ia := a.begin("a", 0, 1, 5)
	ib := b.begin("b", 0, 2, 6)
	ic := a.begin("c", ia, 1, 7)
	a.end(ic, 8, 3)
	a.end(ia, 9, 1)
	b.end(ib, 10, 1)
	if ia == ib || ia == ic || ib == ic {
		t.Fatalf("span ids collide: %d %d %d", ia, ib, ic)
	}
	all := tr.all()
	if len(all) != 3 {
		t.Fatalf("%d spans, want 3", len(all))
	}
	for _, s := range all {
		if s.Name == "c" && (s.Parent != ia || s.End != 8 || s.N != 3) {
			t.Errorf("child span recorded as %+v", s)
		}
	}
}

// BENCHMARK.json at the root of the repository and the tables in this
// package must name the same metrics and workloads.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind string, file, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(file), len(table))
			return
		}
		for i := range table {
			if file[i] != table[i] {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the benchmark %+v", kind, i, file[i], table[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(ackP50, sat, failRatio float64) *result {
		e2e := map[string]value{}
		for _, d := range endToEnd {
			e2e[d.Name] = value{Value: 100, Unit: d.Unit}
		}
		e2e["write_ack_p50_us"] = value{Value: ackP50, Unit: "us"}
		e2e["sat_writes_per_s"] = value{Value: sat, Unit: "1/s"}
		return &result{Workloads: []workloadResult{{Workload: "w", Correct: true, FailRatio: failRatio, EndToEnd: e2e}}}
	}
	bound := func(name string) float64 {
		for _, d := range endToEnd {
			if d.Name == name {
				return d.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	base := mk(100, 1000, 0)
	var sb strings.Builder
	if !compare(&sb, base, mk(100*(1+bound("write_ack_p50_us"))-0.1, 1000, 0)) {
		t.Errorf("a lower-is-better metric just inside its bound was rejected:\n%s", sb.String())
	}
	if compare(&sb, base, mk(100*(1+bound("write_ack_p50_us"))+1, 1000, 0)) {
		t.Error("a lower-is-better metric beyond its bound was accepted")
	}
	if compare(&sb, base, mk(100, 1000*(1-bound("sat_writes_per_s"))-1, 0)) {
		t.Error("a higher-is-better metric beyond its bound was accepted")
	}
	if !compare(&sb, base, mk(50, 2000, 0)) {
		t.Error("an improvement was rejected")
	}
	if compare(&sb, base, mk(100, 1000, 0.002)) {
		t.Error("a fail_ratio that rose by 0.002 was accepted")
	}
	rows := strings.Count(sb.String(), "\nw ")
	if want := 5 * (len(endToEnd) + 1); rows != want {
		t.Errorf("%d rows printed over five comparisons, want %d (one per metric plus fail_ratio)", rows, want)
	}
	bad := mk(100, 1000, 0)
	bad.Workloads[0].Correct = false
	if compare(&sb, base, bad) {
		t.Error("an incorrect run was accepted")
	}
}

func TestGenerateIsDeterministicAndDisjoint(t *testing.T) {
	for _, spec := range workloads {
		a, b, c := generate(spec, 7), generate(spec, 7), generate(spec, 8)
		same := func(x, y *inputs) bool {
			for lane := range x.seqs {
				if len(x.seqs[lane]) != len(y.seqs[lane]) {
					return false
				}
				for i := range x.seqs[lane] {
					if x.seqs[lane][i] != y.seqs[lane][i] {
						return false
					}
				}
			}
			return string(x.pool[0]) == string(y.pool[0])
		}
		if !same(a, b) {
			t.Errorf("%s: the same seed gave different inputs", spec.name)
		}
		if same(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", spec.name)
		}
		// No item is written by two lanes, and on a partitioned cluster a
		// lane writes only what its node owns.
		writer := make(map[int32]int)
		for lane, seq := range a.seqs {
			if len(seq) == 0 {
				t.Fatalf("%s: lane %d has nothing to write", spec.name, lane)
			}
			for _, idx := range seq {
				if w, ok := writer[idx]; ok && w != lane {
					t.Fatalf("%s: item %d is written by lanes %d and %d", spec.name, idx, w, lane)
				}
				writer[idx] = lane
				if int(idx)%spec.lanes != lane {
					t.Fatalf("%s: lane %d writes item %d, outside its residue class", spec.name, lane, idx)
				}
				if a.ring != nil && !a.ring.Owns(lane, a.ring.PartitionOf(a.keys[idx])) {
					t.Fatalf("%s: lane %d writes item %d, which node %d does not own", spec.name, lane, idx, lane)
				}
			}
		}
		// A catch-up round's burst holds distinct items.
		if spec.burst > 0 {
			seq := a.seqs[0]
			if len(seq)%spec.burst != 0 {
				t.Fatalf("%s: %d indices do not cut into bursts of %d", spec.name, len(seq), spec.burst)
			}
			for at := 0; at < len(seq); at += spec.burst {
				seen := make(map[int32]bool, spec.burst)
				for _, idx := range seq[at : at+spec.burst] {
					if seen[idx] {
						t.Fatalf("%s: burst at %d repeats item %d", spec.name, at, idx)
					}
					seen[idx] = true
				}
			}
		}
	}
}

func TestValueStampsRoundTrip(t *testing.T) {
	in := generate(workloads[3], 1)
	a, b := make([]byte, valueSize), make([]byte, valueSize)
	in.fillValue(a, laneStamp(0, 5))
	in.fillValue(b, laneStamp(0, 5))
	if string(a) != string(b) {
		t.Fatal("the same stamp gave two values")
	}
	in.fillValue(b, laneStamp(0, 5+poolSize)) // same filler, another write
	if string(a) == string(b) {
		t.Fatal("two writes gave the same value")
	}
	in.fillValue(b, preloadStamp|5)
	if string(a) == string(b) {
		t.Fatal("a preload and a lane write gave the same value")
	}
}

// TestWorkloadsEndToEnd runs every workload for a second, untraced and
// traced, on real nodes: every output check must pass and every declared
// metric must be reported.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real clusters with fsync; skipped with -short")
	}
	dir := t.TempDir()
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: spec.name, seed: 3, seconds: 1, trace: trace, workdir: dir, spans: dir + "/spans", runs: 1}
			wr := runWorkload(o, spec, 100)
			if !wr.Correct {
				t.Fatalf("%s (trace %v): %s", spec.name, trace, wr.Error)
			}
			if wr.Failed != 0 || wr.Attempted == 0 {
				t.Errorf("%s (trace %v): attempted %d, failed %d", spec.name, trace, wr.Attempted, wr.Failed)
			}
			got, want := wr.EndToEnd, endToEnd
			if trace {
				got, want = wr.PerLayer, perLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s (trace %v): %d metrics reported, %d declared", spec.name, trace, len(got), len(want))
			}
			if !trace {
				for name, v := range got {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g; must never be 0", spec.name, name, v.Value)
					}
				}
			} else if _, err := os.Stat(dir + "/spans/" + spec.name + ".jsonl"); err != nil {
				t.Errorf("%s: no span file: %v", spec.name, err)
			}
		}
	}
}

func TestWindowedMedianOfWindows(t *testing.T) {
	x := newWindowed(1000, 500) // five windows of 100 from time 1000
	for at := int64(1000); at < 1500; at++ {
		x.add(at, 10)
	}
	// A hiccup in the third window: 3% of its samples, 0.6% of the run's
	// and so enough to own a pooled p99.5, but one window of five.
	for i := 0; i < 3; i++ {
		x.add(1250, 5000)
	}
	x.add(900, 10)  // before the start: first window
	x.add(9999, 10) // after the planned end: last window
	if x.n() != 505 {
		t.Fatalf("n = %d, want 505", x.n())
	}
	if got := [5]int{x.w[0].n, x.w[1].n, x.w[2].n, x.w[3].n, x.w[4].n}; got != [5]int{101, 100, 103, 100, 101} {
		t.Fatalf("window sizes %v", got)
	}
	d := x.dist()
	if got := d.p(99.5); got != 10 {
		t.Errorf("median of the windows' p99.5 = %g, want 10: the hiccup moved it", got)
	}
	if got := d.pooled(99.5); got <= 10 {
		t.Errorf("pooled p99.5 = %g: the hiccup should show there", got)
	}
	if got, want := d.sum(), float64(502*10+3*5000); got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
	var y windowed // zero value: one window, no division by a zero width
	y.add(5, 1)
	y.add(500, 3)
	if y.n() != 2 || y.dist().p(50) != 2 {
		t.Errorf("zero-value windowed: n %d p50 %g", y.n(), y.dist().p(50))
	}
}
