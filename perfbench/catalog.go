package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; TestCatalogMatchesBenchmarkJSON keeps the two
// in step.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what a user of the harness sees; every workload reports all
// of them (README.md gives each workload's reading of each metric).
var endToEnd = []metricDef{
	{"sojourn_p50_us", "us"},
	{"harness_p50_us", "us"},
	{"study_wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by the traced run: first the tail figures that host
// interference moves too far to bound (README.md, "Host interference"),
// then the layers, each timed from outside around a public call.
var perLayer = []metricDef{
	{"tail.sojourn_p95_us", "us"},
	{"tail.sojourn_p99_us", "us"},
	{"tail.harness_p99_us", "us"},
	{"tail.max_qps_at_slo", "req/s"},
	{"core.pacer_late_p50_us", "us"},
	{"core.pacer_late_p99_us", "us"},
	{"core.pacer_cpu_frac", "ratio"},
	{"core.record_ns", "ns"},
	{"core.loopback_rtt_p50_us", "us"},
	{"core.loopback_rtt_p99_us", "us"},
	{"netproto.write_ns", "ns"},
	{"netproto.read_ns", "ns"},
	{"apps.masstree.process_p50_us", "us"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.gc_cycles", "count"},
	{"load.schedule_ns_per_arrival", "ns"},
	{"cluster.ns_per_event", "ns"},
	{"pipeline.ns_per_event", "ns"},
	{"cluster.pick_ns.random", "ns"},
	{"cluster.pick_ns.leastq", "ns"},
	{"cluster.pick_ns.jsq2", "ns"},
	{"stats.summary_ns_per_sample", "ns"},
	{"stats.window_ns_per_sample", "ns"},
	{"sim.mgk_ns_per_req", "ns"},
	{"sweep.grid_wall_s", "s"},
	{"plan.search_wall_s", "s"},
	{"sim.mgk_wall_s", "s"},
	{"sweep.alloc_bytes_per_event", "B"},
	{"sweep.parallel_eff", "ratio"},
	{"sweep.events", "count"},
	{"plan.events_simulated", "count"},
	{"plan.cells_run", "count"},
	{"plan.cells_pruned", "count"},
	{"plan.cells_memoized", "count"},
	{"trace.overhead_frac", "ratio"},
}
