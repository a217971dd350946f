package main

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change is rejected; per-
// layer metrics explain, they are never gated, and carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics a user of the system would see. Every
// workload reports every one of them, each from the same instrumentation:
// a "write" is an Update at its origin, a "catch-up" is a PullFrom that
// shipped data. BENCHMARK.json carries the same list; a test keeps the two
// in step.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "write_ack_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "prop_lag_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "sat_writes_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "wire_bytes_per_write", Unit: "B", Better: "lower", Bound: 0.20},
	{Name: "catchup_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "catchup_items_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "catchup_wire_amp", Unit: "ratio", Better: "lower", Bound: 0.20},
	{Name: "read_batch_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
}

// tails are the four tail latencies the calibration demoted from the
// end-to-end list (README.md, "Calibration"): on this sandbox they move by
// 15–35% between runs of one commit. They are reported with every pass,
// under the cluster. layer, and never gated.
var tails = []metricDef{
	{Name: "cluster.write_ack_p99_us", Unit: "us", Better: "lower"},
	{Name: "cluster.prop_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "cluster.catchup_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.read_batch_p99_us", Unit: "us", Better: "lower"},
}

func tailValues(a *phaseRec) map[string]float64 {
	return map[string]float64{
		"cluster.write_ack_p99_us":  a.ack.dist().p(99) / 1e3,
		"cluster.prop_lag_p99_us":   a.lag.lag.dist().p(99) / 1e3,
		"cluster.catchup_p90_ms":    a.pullShip.dist().p(90) / 1e6,
		"cluster.read_batch_p99_us": a.reads.dist().p(99) / 1e3,
	}
}

const keyBytes = 11 // len(workload.Key(i))

// endToEndValues works the end-to-end metrics out of a live run.
func endToEndValues(run *liveRun) map[string]float64 {
	a, b := run.a, run.b
	ack, lag := a.ack.dist(), a.lag.lag.dist()
	ship, reads := a.pullShip.dist(), a.reads.dist()
	otherOwners := run.spec.shape.nodes - 1
	if run.spec.shape.partitions > 1 {
		otherOwners = run.spec.shape.placement - 1
	}
	wire := float64(a.cnt.m.WireBytesSent)
	itemsPerShip := ratio(float64(a.cnt.m.ItemsCopied), float64(a.pullShip.n()))
	return map[string]float64{
		"setup_s":              median(run.setupS),
		"write_ack_p50_us":     ack.p(50) / 1e3,
		"prop_lag_p50_us":      lag.p(50) / 1e3,
		"sat_writes_per_s":     ratio(float64(b.lag.lag.n()), float64(b.elapsed)/1e9),
		"wire_bytes_per_write": ratio(wire, float64(a.writes)),
		"catchup_p50_ms":       ship.p(50) / 1e6,
		"catchup_items_per_s":  ratio(itemsPerShip, ship.p(50)/1e9),
		"catchup_wire_amp":     ratio(wire, float64(a.writes*(keyBytes+valueSize)*otherOwners)),
		"read_batch_p50_us":    reads.p(50) / 1e3,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
