package main

import "colorfulxml/internal/obs"

// layerMetrics assembles the per-layer metrics of a traced run: medians of
// the workload's own spans where it makes the call, of the probes' spans
// where it does not, and deltas of the program's own counters over the
// traced half of the timed region.
func layerMetrics(p *prober, inst *instance, untraced, traced timed,
	tracers []*tracer, before, after, final *obs.Snapshot) []metric {
	us := func(name string) float64 { return p.p50(name) / 1e3 }
	ms := func(name string) float64 { return p.p50(name) / 1e6 }
	workloadUs := func(name string, q float64) float64 { return quantile(p.inWorkload(name), q) / 1e3 }
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(traced.attempted)
	updates := ops * float64(inst.updatesPerOp)
	spans := 0
	for _, tr := range tracers {
		spans += len(tr.spans)
	}
	return []metric{
		{"client.query_us", workloadUs("client.query", 0.5), "us"},
		{"client.stmt_us", workloadUs("client.stmt", 0.5), "us"},
		{"client.ping_us", us("client.ping"), "us"},
		{"client.query_p99_us", workloadUs("client.query", 0.99), "us"},
		{"client.update_us", workloadUs("client.update", 0.5), "us"},

		{"wire.frame_encode_ns", p.p50("wire.frame_encode"), "ns"},
		{"wire.frame_decode_ns", p.p50("wire.frame_decode"), "ns"},
		{"wire.items_codec_ns_per_item", p.derived["wire.items_codec_ns_per_item"], "ns"},
		{"wire.bytes_per_op", ratio(delta("wire_bytes_read_total")+delta("wire_bytes_written_total"), ops), "count"},
		{"wire.frames_per_op", ratio(delta("wire_frames_read_total")+delta("wire_frames_written_total"), ops), "count"},

		{"net.loopback_rtt_us", us("net.loopback_rtt"), "us"},
		{"server.ping_overhead_us", us("client.ping") - us("net.loopback_rtt"), "us"},
		{"server.query_overhead_us", us("client.query") - us("colorful.session_query"), "us"},
		// Whole-process totals after the last drain; they must be equal.
		{"server.requests", float64(final.Counters["server_requests_total"]), "count"},
		{"server.responses", float64(final.Counters["server_responses_total"]), "count"},

		{"colorful.session_query_us", us("colorful.session_query"), "us"},
		{"colorful.stmt_query_us", us("colorful.stmt_query"), "us"},
		{"colorful.kernel_overhead_us", us("colorful.stmt_query") - us("engine.exec.point"), "us"},
		{"colorful.update_us.vote", workloadUs("colorful.update.vote", 0.5), "us"},
		{"colorful.update_us.tag-add", workloadUs("colorful.update.tag-add", 0.5), "us"},
		{"colorful.update_us.tag-del", workloadUs("colorful.update.tag-del", 0.5), "us"},
		{"colorful.update_us.subtree-add", us("colorful.update.subtree-add"), "us"},
		{"colorful.refresh_us", us("colorful.refresh"), "us"},
		{"colorful.evaluator_fallback_ratio", ratio(delta("db_evaluator_fallbacks_total"), delta("db_queries_total")), "count"},
		{"colorful.plan_cache_hit_ratio", ratio(delta("plan_cache_hits_total"), delta("plan_cache_hits_total")+delta("plan_cache_misses_total")), "count"},
		{"colorful.full_rebuilds", delta("db_snapshot_full_rebuilds_total"), "count"},

		{"plan.compile_us", p.derived["plan.compile_us"], "us"},
		{"plan.cache_get_ns", p.p50("plan.cache_get"), "ns"},
		{"plan.unsupported", p.derived["plan.unsupported"], "count"},

		{"engine.exec_us.point", us("engine.exec.point"), "us"},
		{"engine.exec_us.pathscan", us("engine.exec.pathscan"), "us"},
		{"engine.exec_us.predjoin", us("engine.exec.predjoin"), "us"},
		{"engine.exec_us.flwor", us("engine.exec.flwor"), "us"},
		{"engine.exec_us.crosscolor", us("engine.exec.crosscolor"), "us"},
		{"engine.exec_us.hop", us("engine.exec.hop"), "us"},
		{"engine.clone_ns", p.p50("engine.clone"), "ns"},
		{"engine.rows_per_result", ratio(delta("engine_operator_rows_total"), delta("engine_rows_out_total")), "count"},
		{"engine.mallocs_per_exec", p.derived["engine.mallocs_per_exec"], "count"},

		{"storage.eqcontent_ns", p.p50("storage.eqcontent"), "ns"},
		{"storage.scantag_us", us("storage.scantag"), "us"},
		{"storage.clone_us", us("storage.clone"), "us"},
		{"storage.apply_us", us("storage.apply"), "us"},
		{"storage.changes_per_update", ratio(delta("storage_changes_applied_total"), updates), "count"},
		{"storage.load_ms", ms("storage.load"), "ms"},
		{"storage.checkpoint_ms", ms("storage.checkpoint"), "ms"},
		{"storage.checkpoint_bytes_per_node", p.derived["storage.checkpoint_bytes_per_node"], "count"},
		{"storage.populate_s", inst.populateS, "s"},
		{"storage.recover_ms", inst.recoverMs, "ms"},
		{"storage.recover_records", float64(inst.recoverRecords), "count"},
		{"btree.get_ns", p.p50("btree.get"), "ns"},

		{"pagestore.pin_ns", p.p50("pagestore.pin"), "ns"},
		{"pagestore.hit_ratio", ratio(delta("pagestore_pool_hits_total"), delta("pagestore_pool_hits_total")+delta("pagestore_page_reads_total")), "count"},
		{"pagestore.page_reads_per_op", ratio(delta("pagestore_page_reads_total"), ops), "count"},

		{"wal.append_sync_us", us("wal.append_sync"), "us"},
		{"wal.encode_ns", p.p50("wal.encode"), "ns"},
		{"wal.bytes_per_update", ratio(delta("wal_bytes_total"), updates), "count"},
		{"wal.bytes_per_user_byte", ratio(delta("wal_bytes_total"), ops*inst.userBytesPerOp), "count"},
		{"wal.fsyncs_per_update", ratio(delta("wal_fsyncs_total"), updates), "count"},
		{"wal.checkpoints", delta("db_checkpoints_total"), "count"},
		// What the end-to-end times leave out: the mean wait per WAL fsync.
		{"vfs.sync_wait_us", ratio(float64(traced.deviceWait)/1e3, delta("wal_fsyncs_total")), "us"},

		{"trace.overhead_pct", 100 * (1 - ratio(traced.opsPerSecond(), untraced.opsPerSecond())), "%"},
		{"trace.spans", float64(spans), "count"},
		{"machine.slowdown", traced.slowdown, "count"},

		// Demoted from the end-to-end set: see README.md.
		{"e2e.lat_p95_ms", untraced.p95Ms(), "ms"},
	}
}
