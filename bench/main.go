// Command bench is the repository's benchmark: it starts real cluster.Nodes
// in this process (loopback TCP between them, real WAL and fsync), drives
// four workloads from inputs generated from -seed, checks every output, and
// prints each metric by name with its unit. See README.md in this directory
// for the glossary and for what each workload is there to show.
//
//	bash bench/run.sh                                   # all workloads, end-to-end metrics
//	bash bench/run.sh -trace 1 -out result.json         # plus the traced pass and the layer ladder
//	bash bench/run.sh -workload bulk_catchup -seed 7    # one workload
//	bash bench/run.sh -runs 5 -out a.json               # median and quartiles of 5 untraced passes
//	bash bench/run.sh -compare a.json b.json            # exit 1 if b is worse than a beyond a bound
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	spans    string
	out      string
	runs     int
}

func main() {
	var o options
	var trace int
	var cmp bool
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds each workload measures")
	flag.IntVar(&trace, "trace", 0, "1: run the traced pass and the layer ladder and report the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for data directories and span files (created; must be on the disk to be measured)")
	flag.StringVar(&o.spans, "spans", "", "directory the traced pass writes <workload>.jsonl span files to (default <workdir>/spans)")
	flag.StringVar(&o.out, "out", "", "write the result as JSON to this file")
	flag.IntVar(&o.runs, "runs", 1, "repeat the untraced pass this many times and report median and quartiles")
	flag.BoolVar(&cmp, "compare", false, "compare two result files: -compare a.json b.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it, and exit")
	flag.Parse()
	if *manifest {
		os.Exit(printManifest())
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(o.workdir, "spans")
	}

	if cmp {
		os.Exit(compareFiles(flag.Args()))
	}
	if trace != 0 && trace != 1 || o.seconds <= 0 || o.runs < 1 || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	specs := workloads
	if o.workload != "" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", o.workload)
			os.Exit(2)
		}
		specs = []workloadSpec{spec}
	}
	os.Exit(runAll(o, specs))
}

// runSeconds is the -seconds the acceptance driver passes (BENCHMARK.json's
// run_seconds).
const runSeconds = 20

// printManifest writes BENCHMARK.json from the tables in this package, so
// that the file at the root of the repository is generated, not typed.
func printManifest() int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%s\n", data)
	return 0
}

func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b *result
		if b, err = readResult(args[1]); err == nil {
			if compare(os.Stdout, a, b) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func runAll(o options, specs []workloadSpec) int {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fsyncUs, err := fsyncProbe(o.workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: fsync probe:", err)
		return 2
	}
	res := &result{Header: newHeader(o.seed, o.seconds, fsyncUs)}
	res.Header.print(os.Stdout)
	code := 0
	for _, spec := range specs {
		wr := runWorkload(o, spec, fsyncUs)
		wr.print(os.Stdout)
		if !wr.Correct {
			code = 1
		}
		res.Workloads = append(res.Workloads, wr)
	}
	if o.out != "" {
		if err := writeResult(o.out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if o.workload != "" {
		// The one-line form a driver reads.
		wr := res.Workloads[0]
		metrics := wr.EndToEnd
		if o.trace {
			metrics = wr.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{wr.Correct, wr.Attempted, wr.Failed, metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Printf("%s\n", line)
	}
	return code
}

// runWorkload produces one workload's result: the end-to-end metrics from
// untraced passes, and with o.trace the per-layer metrics from a traced
// pass and the ladder. When a single workload was asked for with tracing
// on, only the traced part runs.
func runWorkload(o options, spec workloadSpec, fsyncUs float64) workloadResult {
	wall := time.Now()
	wr := workloadResult{Workload: spec.name, Correct: true}
	fail := func(err error) workloadResult {
		wr.Correct, wr.Error = false, err.Error()
		wr.WallS = time.Since(wall).Seconds()
		return wr
	}
	in := generate(spec, o.seed)

	if !o.trace || o.workload == "" {
		var all []map[string]float64
		for i := 0; i < o.runs; i++ {
			run, err := runLive(spec, in, o.workdir, o.seconds, setupRuns, nil)
			wr.add(run)
			if err != nil {
				return fail(err)
			}
			all = append(all, endToEndValues(run))
			wr.Samples, wr.Notes = sampleCounts(run)
			if wr.Tails, err = withUnits(tails, tailValues(run.a)); err != nil {
				return fail(err)
			}
		}
		vals := all[0]
		if len(all) > 1 {
			vals = make(map[string]float64)
			wr.Quartiles = make(map[string][3]float64)
			for name := range all[0] {
				var xs []float64
				for _, m := range all {
					xs = append(xs, m[name])
				}
				q1, med, q3 := quartiles(xs)
				vals[name], wr.Quartiles[name] = med, [3]float64{q1, med, q3}
			}
		}
		var err error
		if wr.EndToEnd, err = withUnits(endToEnd, vals); err != nil {
			return fail(err)
		}
	}

	if o.trace {
		// A third of the time each for an untraced pass (the base of
		// bench.trace_overhead_ratio), the traced pass, and the ladder.
		untraced, err := runLive(spec, in, o.workdir, o.seconds/3, 1, nil)
		wr.add(untraced)
		if err != nil {
			return fail(err)
		}
		tr := &tracer{}
		traced, err := runLive(spec, in, o.workdir, o.seconds/3, 1, tr)
		wr.add(traced)
		if err != nil {
			return fail(err)
		}
		m := int(ratio(float64(traced.a.cnt.m.ItemsCopied), float64(traced.a.pullShip.n())) + 0.5)
		lad, err := runLadder(spec, in, o.workdir, m, time.Duration(o.seconds/6*float64(time.Second)), tr.buf())
		if err != nil {
			return fail(fmt.Errorf("ladder: %w", err))
		}
		vals := perLayerValues(untraced, traced, lad, fsyncUs)
		if wr.PerLayer, err = withUnits(perLayer, vals); err != nil {
			return fail(err)
		}
		if c := vals["bench.ladder_coverage"]; c < 0.7 || c > 1.3 {
			wr.Notes = append(wr.Notes, fmt.Sprintf("layers do not explain the session: the ladder's rungs sum to %.2f of the live cluster.pull_ship_p50_us (see README.md, \"Ladder coverage\")", c))
		}
		wr.Notes = append(wr.Notes, selfTimeTable(lad.spans)...)
		if err := os.MkdirAll(o.spans, 0o755); err != nil {
			return fail(err)
		}
		if err := writeJSONL(filepath.Join(o.spans, spec.name+".jsonl"), tr.all()); err != nil {
			return fail(err)
		}
	}
	wr.WallS = time.Since(wall).Seconds()
	return wr
}

// add folds a live pass's operation counts into the result.
func (wr *workloadResult) add(run *liveRun) {
	if run == nil {
		return
	}
	phases := []*phaseRec{run.a}
	if run.b != run.a {
		phases = append(phases, run.b)
	}
	for _, p := range phases {
		if p == nil {
			continue
		}
		wr.Attempted += p.attempted()
		wr.Failed += p.errs
		wr.misses += p.ackMisses + p.lag.lagMisses
	}
	wr.FailRatio = ratio(float64(wr.Failed+wr.misses), float64(wr.Attempted))
}

// selfTimeTable renders the ladder's per-layer self times as note lines:
// where one session's time goes, by the module that spends it.
func selfTimeTable(spans []span) []string {
	byName := selfTimes(spans)
	var names []string
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := []string{"ladder spans: name, spans, calls covered, total ms, self ms"}
	for _, name := range names {
		lt := byName[name]
		out = append(out, fmt.Sprintf("  %-44s %7d %9d %10.3f %10.3f", name, lt.spans, lt.n, float64(lt.total)/1e6, float64(lt.self)/1e6))
	}
	return out
}

// fsyncProbe measures the device under the work directory: the median, in
// microseconds, of 1000 appends of 4 KiB each followed by fsync.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var s samples
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		s.add(int64(time.Since(t0)))
	}
	return percentile(s.sorted(), 50) / 1e3, nil
}
