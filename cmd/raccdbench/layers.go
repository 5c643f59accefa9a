package main

// layerMetric is one per-layer metric of a --trace 1 run. Each workload
// reports every one; a layer the workload does not exercise in the
// benchmark's process reads 0 (the sim layers run inside the daemons'
// store compute callback on serve-mix; the serving layers do not run on
// the simulation workloads).
type layerMetric struct {
	name, unit string
}

var layerMetrics = []layerMetric{
	// workloads / rts
	{"workloads.get_s", "s"},
	{"rts.graph_build_s", "s"},
	{"rts.graph_build_us_per_task", "us"},
	{"rts.dispatch_self_s", "s"},
	{"rts.tasks", "count"},
	{"rts.edges", "count"},
	// sim
	{"sim.runs", "count"},
	{"sim.construct_ms_per_run", "ms"},
	{"sim.check_s", "s"},
	{"host.gc_cpu_frac", "frac"},
	{"host.alloc_objects_per_run", "count"},
	// coherence and the structures under it
	{"coherence.access_s", "s"},
	{"coherence.access_calls", "count"},
	{"coherence.ns_per_access", "ns"},
	{"coherence.register_s", "s"},
	{"coherence.register_calls", "count"},
	{"coherence.invalidate_s", "s"},
	{"coherence.invalidate_calls", "count"},
	{"coherence.l1_hit_ratio", "frac"},
	{"coherence.coh_fills", "count"},
	{"coherence.nc_fills", "count"},
	{"coherence.upgrades", "count"},
	{"coherence.recovery_flushes", "count"},
	{"coherence.llc_hit_ratio", "frac"},
	{"directory.accesses", "count"},
	{"directory.victim_recalls", "count"},
	{"noc.byte_hops", "count"},
	{"mem.reads", "count"},
	{"mem.writes", "count"},
	// runner
	{"runner.busy_frac", "frac"},
	{"runner.tail_s", "s"},
	// resultstore
	{"resultstore.hit_ratio", "frac"},
	{"resultstore.self_ms_p50", "ms"},
	{"resultstore.puts", "count"},
	{"resultstore.coalesced", "count"},
	{"resultstore.compute_s", "s"},
	// service / fabric
	{"service.queue_wait_ms_p50", "ms"},
	{"service.exec_ms_p50", "ms"},
	{"service.store_ms_p50", "ms"},
	{"fabric.rtt_ms_p50", "ms"},
	{"service.coord_handler_s", "s"},
	{"service.worker_handler_s", "s"},
	{"fabric.worker_requests", "count"},
	{"fabric.worker_skew", "ratio"},
	{"service.sims_per_fresh_spec", "ratio"},
	// client
	{"client.requests_per_batch", "count"},
	{"client.submit_ms_p50", "ms"},
	{"client.wait_ms_p50", "ms"},
	{"client.result_ms_p50", "ms"},
	{"client.refused", "count"},
	{"client.hit_ms_p50", "ms"},
	{"client.hit_ms_tail", "ms"},
	{"client.miss_ms_p50", "ms"},
	// the trace itself
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"trace.accounted_frac", "frac"},
}
