package main

// The metric vocabulary. BENCHMARK.json at the repo root lists the same
// names and units; TestBenchmarkJSONMatchesTables keeps the two in step.
//
// Every workload prints every end-to-end metric, so the names are
// workload-neutral: an "op" is one call (Selector.Choose + Selector.Report)
// on the setup-* workloads and one relayed packet on media-relay. README.md
// maps them to the per-path names (choose_p50_us, fwd_pps, ...) the issue
// and later PRs use.

type metricDef struct {
	name, unit string
	// End-to-end metrics only: which direction is better, and the share of
	// the reference median a metric may worsen by before it is a regression
	// (-repeat uses it to judge whether two sets of runs agree).
	lowerBetter bool
	bound       float64
}

// endToEnd is what an untraced run's result line carries, for the driver.
var endToEnd = []metricDef{
	// build the system + warm-up
	{"setup_s", "s", true, 0.25},
	// Selector.Choose latency / one-way forward latency
	{"op_p50_us", "us", true, 0.25},
	{"op_p99_us", "us", true, 0.25},
	// calls/s (2 closed-loop clients) / packets/s (window 64)
	{"ops_per_s", "1/s", false, 0.25},
	// process user+sys CPU per op in the throughput phase
	{"cpu_us_per_op", "us", true, 0.25},
	// VmHWM at the end of the run
	{"peak_rss_mb", "MB", true, 0.20},
}

// programGated are the two end-to-end metrics BENCHMARK.json cannot carry,
// because the driver wants every listed metric from every workload and
// never 0: an untraced run prints them by name where they apply and
// -repeat holds them to these bounds.
var programGated = []metricDef{
	// bytes under the WAL root ÷ calls logged; setup-wal and setup-ring
	{"wal_bytes_per_call", "B", true, 0.01},
	// operations failed ÷ attempted; the bound is absolute
	{"failed_frac", "ratio", true, 0},
}

// untracedList is what an untraced run prints and -repeat compares.
var untracedList = append(append([]metricDef(nil), endToEnd...), programGated...)

// perLayer is printed by traced runs (-trace 1). A metric that does not
// apply to the workload being run reads 0.
var perLayer = []metricDef{
	{name: "client.selector_self_us_p50", unit: "us"},
	{name: "client.stale_decisions", unit: "count"},
	{name: "client.lost_reports", unit: "count"},

	{name: "controller.client_choose_us_p50", unit: "us"},
	{name: "controller.client_report_us_p50", unit: "us"},
	{name: "controller.handler_choose_us_p50", unit: "us"},
	{name: "controller.handler_report_us_p50", unit: "us"},
	{name: "controller.http_self_us_p50", unit: "us"},
	{name: "controller.handler_self_us_p50", unit: "us"},
	{name: "controller.retries", unit: "count"},
	{name: "controller.redirects", unit: "count"},
	{name: "controller.snapshots", unit: "count"},
	{name: "controller.snapshot_bytes", unit: "B"},
	{name: "controller.allocs_per_call", unit: "count"},

	{name: "core.choose_ns_p50", unit: "ns"},
	{name: "core.observe_ns_p50", unit: "ns"},
	{name: "core.choose_direct_ns_p50", unit: "ns"},
	{name: "core.observe_direct_ns_p50", unit: "ns"},
	{name: "core.share_of_handler", unit: "ratio"},
	{name: "core.relayed_frac", unit: "ratio"},

	{name: "transport.choose_json_ns", unit: "ns"},
	{name: "transport.report_json_ns", unit: "ns"},
	{name: "transport.choose_req_bytes", unit: "B"},
	{name: "transport.frame_unmarshal_ns", unit: "ns"},
	{name: "transport.frame_marshal_ns", unit: "ns"},
	{name: "transport.frame_allocs", unit: "count"},

	{name: "wal.append_ns_p50", unit: "ns"},
	{name: "wal.sync_ms_p50", unit: "ms"},
	{name: "wal.replay_tail_us_at_1k", unit: "us"},
	{name: "wal.replay_tail_us_at_16k", unit: "us"},
	{name: "wal.bytes_per_record", unit: "B"},
	{name: "wal.bytes_per_call", unit: "B"},

	{name: "ring.owner_lookup_ns", unit: "ns"},
	{name: "ring.gate_self_us_p50", unit: "us"},
	{name: "ring.redirect_us_p50", unit: "us"},
	{name: "ring.router_hop_us_p50", unit: "us"},
	{name: "ring.decay_ratio", unit: "ratio"},
	{name: "ring.shard_imbalance", unit: "ratio"},

	{name: "relay.handle_ns_p50", unit: "ns"},
	{name: "relay.handle_ns_p99", unit: "ns"},
	{name: "relay.writeto_ns_p50", unit: "ns"},
	{name: "relay.readfrom_wait_frac", unit: "ratio"},
	{name: "relay.dropped", unit: "count"},
	{name: "relay.kernel_drops", unit: "count"},
	{name: "relay.allocs_per_pkt", unit: "count"},
	{name: "relay.sessions", unit: "count"},

	{name: "wan.writeto_ns_p50", unit: "ns"},
	{name: "wan.shaped_pps_ratio", unit: "ratio"},
	{name: "wan.delay_error_us_p50", unit: "us"},

	{name: "bench.trace_overhead_frac", unit: "ratio"},
	{name: "bench.gen_wait_frac", unit: "ratio"},
}
