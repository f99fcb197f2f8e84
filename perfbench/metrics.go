package main

import (
	"boss/internal/compress"
	"boss/internal/harness"
	"boss/internal/mem"
)

// e2eMetrics is what an untraced run reports, in BENCHMARK.json order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
	{"live_heap_mib", "MiB"},
	{"sim_qps", "1/s"},
	{"device_bytes_per_query", "B"},
}

// hostMetrics are the host timings of the timed phase. On a shared
// two-CPU machine they spread across runs by more than a tenth, so
// BENCHMARK.json lists them per layer; an untraced run still prints them
// after the end-to-end metrics.
var hostMetrics = []metricDef{
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"goodput_ratio", "ratio"},
}

// overheadMetrics are the metrics a traced run compares with the
// untraced run before it, as traced ÷ untraced: what tracing cost.
var overheadMetrics = append(append([]metricDef(nil), e2eMetrics...), hostMetrics...)

// layerMetrics is what a traced run reports. A layer a workload does not
// exercise reports 0.
var layerMetrics = func() []metricDef {
	defs := append(append([]metricDef(nil), hostMetrics...),
		metricDef{"max_rate_qps", "1/s"},
		metricDef{"trace.spans_per_req", "count"},
		metricDef{"trace.nesting_errors", "count"},
	)
	for _, d := range overheadMetrics {
		defs = append(defs, metricDef{"trace.overhead." + d.name, "ratio"})
	}
	defs = append(defs, []metricDef{
		{"setup.wall_s", "s"},
		{"gen.late_p99_ms", "ms"},
		{"gen.late_max_ms", "ms"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"query.parse_us", "us"},
		{"front.submit_us", "us"},
		{"front.queue_wait_ms", "ms"},
		{"front.batch_size", "count"},
		{"front.dedup_ratio", "ratio"},
		{"front.degraded_ratio", "ratio"},
		{"front.shed_ratio", "ratio"},
		{"pool.search_ms", "ms"},
		{"pool.batch_exec_ms", "ms"},
		{"pool.retries", "count"},
		{"pool.hedges", "count"},
		{"pool.events_retained", "count"},
		{"core.run_ms", "ms"},
		{"core.docs_evaluated_per_query", "count"},
		{"core.blocks_fetched_per_query", "count"},
		{"core.blocks_skipped_ratio", "ratio"},
		{"cache.posting_hit_ratio", "ratio"},
		{"cache.doc_hit_ratio", "ratio"},
		{"cache.evictions_per_query", "count"},
		{"cache.bypasses", "count"},
	}...)
	for _, s := range compress.AllSchemes() {
		defs = append(defs,
			metricDef{"decomp.decode_ns_per_block." + s.String(), "ns"},
			metricDef{"decomp.cycles_per_block." + s.String(), "cycles"},
			metricDef{"compress.decode_ns_per_block." + s.String(), "ns"})
	}
	defs = append(defs,
		metricDef{"compress.encode_ns_per_block", "ns"},
		metricDef{"index.decode_block_us", "us"},
		metricDef{"index.build_s", "s"},
		metricDef{"corpus.generate_s", "s"},
		metricDef{"fetch.doc_us", "us"},
		metricDef{"docstore.decode_mb_s", "MB/s"},
		metricDef{"sim.latency_us_per_query", "us"},
	)
	for c := 0; c < int(mem.NumCategories); c++ {
		defs = append(defs, metricDef{"sim.device_bytes." + catName(c), "B"})
	}
	defs = append(defs, metricDef{"engine.run_ms", "ms"}, metricDef{"iiu.run_ms", "ms"})
	for _, e := range harness.Experiments() {
		defs = append(defs, metricDef{"harness." + e.ID + "_s", "s"})
	}
	return defs
}()
