package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// header says where and how a result was produced.
type header struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	FsyncProbeUs float64 `json:"env.fsync_probe_us"`
	Note         string  `json:"note"`
}

const sandboxNote = "latencies are this sandbox's loopback and this sandbox's disk: all nodes share one process and one machine, no network delay is injected, and fsync costs what the probe above says"

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Workload  string  `json:"workload"`
	Correct   bool    `json:"correct"`
	Error     string  `json:"error,omitempty"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"` // (errors + deadline misses) ÷ attempted
	misses    int     // acks over 100 ms and lags over 1 s
	WallS     float64 `json:"wall_s"`

	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	// Tails are the demoted tail latencies as the untraced pass saw them.
	Tails    map[string]value `json:"ungated_tails,omitempty"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
	// Quartiles holds [q1, median, q3] per end-to-end metric when the
	// untraced pass was repeated (-runs); EndToEnd then holds the medians.
	Quartiles map[string][3]float64 `json:"quartiles,omitempty"`
	// Samples counts what the distributions behind the percentiles held.
	Samples map[string]int `json:"samples,omitempty"`
	Notes   []string       `json:"notes,omitempty"`
}

// result is the file -out writes and -compare reads.
type result struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
}

func newHeader(seed int64, seconds, fsyncUs float64) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, FsyncProbeUs: fsyncUs, Note: sandboxNote,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "commit %s  %s  NumCPU %d  GOMAXPROCS %d  seed %d  %.0f s per workload\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Seconds)
	fmt.Fprintf(w, "env.fsync_probe_us %.1f (median of 1000 4-KiB write+fsync in the work directory)\n", h.FsyncProbeUs)
	fmt.Fprintf(w, "note: %s\n", h.Note)
}

// withUnits attaches each metric's unit, checking that vals and defs name
// the same metrics: a metric computed but not declared (or the reverse)
// is a bug in the benchmark, not a result.
func withUnits(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s was measured but is not declared", name)
			}
		}
	}
	return out, nil
}

// sampleCounts reports how many samples stand behind each distribution of
// a live run, and notes any named percentile the count does not support.
func sampleCounts(run *liveRun) (map[string]int, []string) {
	a := run.a
	counts := map[string]int{
		"write_ack": a.ack.n(), "prop_lag": a.lag.lag.n(), "catchup": a.pullShip.n(),
		"pull_noop": a.pullNoop.n(), "read_batch": a.reads.n(), "setup": len(run.setupS),
	}
	var notes []string
	for _, c := range []struct {
		dist string
		p    float64
	}{{"write_ack", 99}, {"prop_lag", 99}, {"catchup", 90}, {"read_batch", 99}} {
		// Percentiles are taken per window, so a window's count decides.
		if got := supportedTail(counts[c.dist] / nWindows); got < c.p {
			notes = append(notes, fmt.Sprintf("%s has %d samples in %d windows: fewer than ten of a window's lie beyond p%g, the highest percentile a window supports is p%g",
				c.dist, counts[c.dist], nWindows, c.p, got))
		}
	}
	return counts, notes
}

func (wr *workloadResult) print(w io.Writer) {
	status := "ok"
	if !wr.Correct {
		status = "FAILED: " + wr.Error
	}
	fmt.Fprintf(w, "\n== %s  (%s; %d operations, %d failed, fail_ratio %.6f incl. deadline misses; wall %.1f s)\n",
		wr.Workload, status, wr.Attempted, wr.Failed, wr.FailRatio, wr.WallS)
	if len(wr.Samples) > 0 {
		var names []string
		for name := range wr.Samples {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprint(w, "samples:")
		for _, name := range names {
			fmt.Fprintf(w, " %s=%d", name, wr.Samples[name])
		}
		fmt.Fprintln(w)
	}
	for _, n := range wr.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	printMetrics(w, endToEnd, wr.EndToEnd, wr.Quartiles)
	if len(wr.PerLayer) == 0 { // the traced pass reports them again
		printMetrics(w, tails, wr.Tails, nil)
	}
	printMetrics(w, perLayer, wr.PerLayer, nil)
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]value, quart map[string][3]float64) {
	if len(vals) == 0 {
		return
	}
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(w, "  %-42s %16.4f %-6s", d.Name, v.Value, v.Unit)
		if d.Bound > 0 {
			fmt.Fprintf(w, " %s is better, bound %.0f%%", d.Better, d.Bound*100)
		}
		if q, ok := quart[d.Name]; ok {
			fmt.Fprintf(w, "  [q1 %.4f, q3 %.4f, spread %.1f%%]", q[0], q[2], 100*ratio(q[2]-q[0], q[1]))
		}
		fmt.Fprintln(w)
	}
}

func writeResult(path string, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compare prints one row per (workload, end-to-end metric) of two result
// files and reports whether b is acceptable against a: no metric worse by
// more than its bound, no workload incorrect, no fail_ratio risen by more
// than 0.001.
func compare(w io.Writer, a, b *result) bool {
	ok := true
	bw := make(map[string]*workloadResult)
	for i := range b.Workloads {
		bw[b.Workloads[i].Workload] = &b.Workloads[i]
	}
	fmt.Fprintf(w, "%-20s %-24s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := bw[wa.Workload]
		if wb == nil {
			fmt.Fprintf(w, "%-20s missing from b\n", wa.Workload)
			ok = false
			continue
		}
		if !wb.Correct {
			fmt.Fprintf(w, "%-20s b is incorrect: %s\n", wa.Workload, wb.Error)
			ok = false
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = ratio(va-vb, va)
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = fmt.Sprintf("WORSE by %.1f%% (bound %.0f%%)", worse*100, d.Bound*100)
				ok = false
			}
			fmt.Fprintf(w, "%-20s %-24s %14.4f %14.4f %8.3f  %s\n", wa.Workload, d.Name, va, vb, ratio(vb, va), verdict)
		}
		verdict := "ok"
		if wb.FailRatio > wa.FailRatio+0.001 {
			verdict = "ROSE"
			ok = false
		}
		fmt.Fprintf(w, "%-20s %-24s %14.6f %14.6f %8s  %s\n", wa.Workload, "fail_ratio", wa.FailRatio, wb.FailRatio, "", verdict)
	}
	return ok
}
