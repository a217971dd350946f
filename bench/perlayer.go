package main

// perLayer lists the metrics of single layers, named <module>.<metric>.
// They are printed with every traced run and never gated: they say where
// an end-to-end change came from. The "cluster." group are spans around
// the driver's own calls into internal/cluster during the live pass; the
// others come from the layer ladder (ladder.go) or from the nodes' own
// counters read at phase boundaries.
var perLayer = append(append([]metricDef(nil), tails...), []metricDef{
	{Name: "cluster.update_p50_us", Unit: "us", Better: "lower"},
	{Name: "cluster.write_ack_p999_us", Unit: "us", Better: "lower"},
	{Name: "cluster.pull_noop_p50_us", Unit: "us", Better: "lower"},
	{Name: "cluster.pull_ship_p50_us", Unit: "us", Better: "lower"},
	{Name: "cluster.pull_sessions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cluster.pull_noop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.items_per_ship_session", Unit: "count", Better: "higher"},
	{Name: "cluster.update_busy_s", Unit: "s", Better: "lower"},
	{Name: "cluster.pull_busy_s", Unit: "s", Better: "lower"},
	{Name: "cluster.visible_before_ack", Unit: "count", Better: "lower"},
	{Name: "cluster.missed_after_catchup", Unit: "count", Better: "lower"},
	{Name: "cluster.deadline_misses", Unit: "count", Better: "lower"},
	{Name: "cluster.fail_ratio", Unit: "ratio", Better: "lower"},

	{Name: "wal.stage_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.commit_wait_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_write", Unit: "ratio", Better: "lower"},
	{Name: "wal.recs_per_fsync", Unit: "ratio", Better: "higher"},
	{Name: "wal.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "durable.update_us", Unit: "us", Better: "lower"},
	{Name: "durable.apply_prop_us_per_item", Unit: "us", Better: "lower"},
	{Name: "durable.recover_s", Unit: "s", Better: "lower"},
	{Name: "durable.datadir_bytes_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "transport.noop_rtt_us", Unit: "us", Better: "lower"},
	{Name: "transport.bytes_per_noop", Unit: "B", Better: "lower"},
	{Name: "transport.dials", Unit: "count", Better: "lower"},
	{Name: "transport.conns_reused_ratio", Unit: "ratio", Better: "higher"},

	{Name: "wire.encode_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_item", Unit: "B", Better: "lower"},
	{Name: "wire.req_codec_ns", Unit: "ns", Better: "lower"},

	{Name: "core.update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.build_ns_per_item.m1", Unit: "ns", Better: "lower"},
	{Name: "core.build_ns_per_item.m64", Unit: "ns", Better: "lower"},
	{Name: "core.build_ns_per_item.m4096", Unit: "ns", Better: "lower"},
	{Name: "core.apply_ns_per_item.m64", Unit: "ns", Better: "lower"},
	{Name: "core.apply_ns_per_item.m4096", Unit: "ns", Better: "lower"},
	{Name: "core.chunk_next_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "core.apply_chunk_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "core.first_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "core.peak_payload_kb", Unit: "KiB", Better: "lower"},
	{Name: "core.reconcile_serve_us_per_round", Unit: "us", Better: "lower"},
	{Name: "core.reconcile_round_trips_per_session", Unit: "ratio", Better: "lower"},
	{Name: "core.items_examined_per_item_copied", Unit: "ratio", Better: "lower"},
	{Name: "core.dbvv_cmp_per_noop", Unit: "ratio", Better: "lower"},
	{Name: "core.log_records_peak", Unit: "count", Better: "lower"},
	{Name: "core.conflicts", Unit: "count", Better: "lower"},

	{Name: "store.get_ns", Unit: "ns", Better: "lower"},
	{Name: "store.ensure_ns", Unit: "ns", Better: "lower"},
	{Name: "logvec.add_ns", Unit: "ns", Better: "lower"},
	{Name: "logvec.tail_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "vv.compare_ns", Unit: "ns", Better: "lower"},
	{Name: "vv.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.partition_of_ns", Unit: "ns", Better: "lower"},

	{Name: "bench.gen_late_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.allocs_per_write", Unit: "count", Better: "lower"},
	{Name: "bench.alloc_bytes_per_item_shipped", Unit: "B", Better: "lower"},
	{Name: "bench.ladder_coverage", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "env.fsync_probe_us", Unit: "us", Better: "lower"},
}...)

// ladderOut is what the ladder measured besides its spans.
type ladderOut struct {
	spans               []span
	walBytesPerUserByte float64
	bytesPerNoop        float64
	wireBytesPerItem    float64
}

// perLayerValues works the per-layer metrics out of an untraced and a
// traced live pass, the ladder's spans and the fsync probe.
func perLayerValues(untraced, traced *liveRun, lad *ladderOut, fsyncProbeUs float64) map[string]float64 {
	a := traced.a
	spec := traced.spec
	send, ack := a.send.dist(), a.ack.dist()
	noop, ship := a.pullNoop.dist(), a.pullShip.dist()
	late := a.late.sorted()
	sessions := float64(a.pullNoop.n() + a.pullShip.n())
	writes := float64(a.writes)
	misses := a.ackMisses + a.lag.lagMisses
	v := map[string]float64{
		"cluster.update_p50_us":          send.p(50) / 1e3,
		"cluster.write_ack_p999_us":      ack.pooled(99.9) / 1e3,
		"cluster.pull_noop_p50_us":       noop.p(50) / 1e3,
		"cluster.pull_ship_p50_us":       ship.p(50) / 1e3,
		"cluster.pull_sessions_per_s":    ratio(sessions, float64(a.elapsed)/1e9),
		"cluster.pull_noop_ratio":        ratio(float64(a.pullNoop.n()), sessions),
		"cluster.items_per_ship_session": ratio(float64(a.cnt.m.ItemsCopied), float64(a.pullShip.n())),
		"cluster.update_busy_s":          send.sum() / 1e9,
		"cluster.pull_busy_s":            (noop.sum() + ship.sum()) / 1e9,
		"cluster.visible_before_ack":     float64(a.lag.visibleBeforeAck),
		"cluster.missed_after_catchup":   float64(a.missed),
		"cluster.deadline_misses":        float64(misses),
		"cluster.fail_ratio":             ratio(float64(a.errs+misses), float64(a.attempted())),

		"wal.fsyncs_per_write":         ratio(float64(a.cnt.fsyncs), writes),
		"wal.recs_per_fsync":           ratio(float64(a.cnt.walRecs), float64(a.cnt.fsyncs)),
		"wal.disk_bytes_per_user_byte": lad.walBytesPerUserByte,

		"durable.recover_s": traced.recoverS,

		"transport.bytes_per_noop":     lad.bytesPerNoop,
		"transport.dials":              float64(a.cnt.dials),
		"transport.conns_reused_ratio": ratio(float64(a.cnt.reused), float64(a.cnt.reused+a.cnt.dials)),

		"wire.bytes_per_item": lad.wireBytesPerItem,

		"core.first_apply_ms":                    float64(a.firstApplyNs) / 1e6,
		"core.peak_payload_kb":                   float64(a.peakPayload) / 1024,
		"core.reconcile_round_trips_per_session": ratio(float64(a.cnt.m.ReconcileRoundTrips), float64(a.cnt.m.ReconcileSessions)),
		"core.items_examined_per_item_copied":    ratio(float64(a.cnt.m.ItemsExamined), float64(a.cnt.m.ItemsCopied)),
		"core.dbvv_cmp_per_noop":                 traced.cmpPerNoop,
		"core.log_records_peak":                  float64(a.logPeak),
		"core.conflicts":                         float64(traced.conflicts),
		"bench.gen_late_p50_us":                  percentile(late, 50) / 1e3,
		"bench.gen_late_p99_us":                  percentile(late, 99) / 1e3,
		"bench.allocs_per_write":                 ratio(float64(a.mallocs), writes),
		"bench.alloc_bytes_per_item_shipped":     ratio(float64(a.allocBytes), float64(a.cnt.m.ItemsCopied)),
		"bench.trace_overhead_ratio":             ratio(ack.p(50), untraced.a.ack.dist().p(50)),
		"env.fsync_probe_us":                     fsyncProbeUs,
	}
	for name, t := range tailValues(a) {
		v[name] = t
	}
	copies := spec.shape.nodes
	if spec.shape.partitions > 1 {
		copies = spec.shape.placement
	}
	// Zero on the volatile shapes, which leave no data directory behind.
	v["durable.datadir_bytes_per_user_byte"] = ratio(float64(traced.dataBytes), float64(spec.items*(keyBytes+valueSize)*copies))

	g := groupSpans(lad.spans)
	v["wal.stage_ns"] = g.perCall("wal.WAL.Stage")
	v["wal.commit_wait_us"] = g.perCall("wal.Ticket.Wait") / 1e3
	v["durable.update_us"] = g.perCall("durable.Replica.Update") / 1e3
	v["durable.apply_prop_us_per_item"] = g.perCall("durable.Replica.ApplyPropagation") / 1e3
	v["transport.noop_rtt_us"] = g.perCall("transport.Client.PullSession") / 1e3
	encNs, encItems := g.sums("wire.AppendPropagation", "wire.AppendSessionChunk", "wire.AppendResponse")
	decNs, decItems := g.sums("wire.DecodePropagation", "wire.DecodeSessionChunkInto", "wire.DecodeResponse")
	v["wire.encode_ns_per_item"] = ratio(encNs, encItems)
	v["wire.decode_ns_per_item"] = ratio(decNs, decItems)
	v["wire.req_codec_ns"] = g.perCall("wire.AppendRequest") + g.perCall("wire.DecodeRequest")
	v["core.update_ns"] = g.perCall("core.Replica.Update")
	for _, m := range []string{".m1", ".m64", ".m4096"} {
		v["core.build_ns_per_item"+m] = g.perCall("core.Replica.BuildPropagation" + m)
		if m != ".m1" {
			v["core.apply_ns_per_item"+m] = g.perCall("core.Replica.ApplyPropagation" + m)
		}
	}
	nextNs, nextItems := g.sums("core.ChunkSession.Next.probe")
	v["core.chunk_next_ns_per_item"] = ratio(nextNs, nextItems)
	applyNs, applyItems := g.sums("core.Replica.ApplyChunk.probe")
	v["core.apply_chunk_ns_per_item"] = ratio(applyNs, applyItems)
	v["core.reconcile_serve_us_per_round"] = g.perCall("core.Replica.ServeReconcile.probe") / 1e3
	v["store.get_ns"] = g.perCall("store.Store.Get")
	v["store.ensure_ns"] = g.perCall("store.Store.Ensure")
	v["logvec.add_ns"] = g.perCall("logvec.Component.Add")
	v["logvec.tail_ns_per_rec"] = g.perCall("logvec.Component.TailAfter")
	v["vv.compare_ns"] = g.perCall("vv.VV.Compare")
	v["vv.merge_ns"] = g.perCall("vv.VV.Merge")
	v["ring.partition_of_ns"] = g.perCall("ring.Ring.PartitionOf")
	v["bench.ladder_coverage"] = ratio(ladderSessionNs(lad.spans), ship.p(50))
	return v
}

// ladderSessionNs returns the median, over the ladder's sessions, of the
// time its rungs took together — every child span of the session except
// the source's own updates and pruning, which in the live run happen
// before the timed PullFrom and not inside it.
func ladderSessionNs(spans []span) float64 {
	roots := make(map[int32]float64)
	for _, s := range spans {
		if s.Name == "ladder.session" {
			roots[s.ID] = 0
		}
	}
	for _, s := range spans {
		if _, ok := roots[s.Parent]; ok && s.Name != "core.Replica.Update" && s.Name != "core.Replica.Prune" {
			roots[s.Parent] += float64(s.End - s.Start)
		}
	}
	sums := make([]float64, 0, len(roots))
	for _, t := range roots {
		sums = append(sums, t)
	}
	if len(sums) == 0 {
		return 0
	}
	return median(sums)
}
