package main

// decl declares one reported metric; BENCHMARK.json lists the same
// names and units (a test keeps the two in step).
type decl struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run, on every workload. The
// batch workloads count each program analysis as one request.
var endToEnd = []decl{
	{"races_per_s", "1/s"}, // races classified per wall second (batch: median over full passes)
	{"ttfv_p50_ms", "ms"},  // request to its first verdict, or to its end if it has no race
	{"ttfv_p90_ms", "ms"},
	{"req_p50_ms", "ms"}, // request to its end (service: due time to the done event)
	{"req_p99_ms", "ms"},
	{"fresh_p50_ms", "ms"},  // first submission of a program (batch: the first pass)
	{"repeat_p50_ms", "ms"}, // resubmission of a program (batch: later passes)
	{"slo_frac", "frac"},    // requests that ended within --slo-ms; failures count as misses
	{"setup_s", "s"},        // input generation (and daemon start to /readyz), median of setupReps
	{"peak_rss_mb", "MiB"},  // VmHWM of the process doing the analysis
}

// perLayer are the metrics of a --trace 1 run, on every workload; a
// layer the workload does not load reports 0. Counts are per pass over
// the workload's distinct programs at pool width 1, and repeat exactly
// from run to run.
var perLayer = []decl{
	{"bytecode.compile_us", "us"},
	{"bytecode.self_ms", "ms"},
	{"sa.analyze_us", "us"},
	{"sa.self_ms", "ms"},
	{"race.detect_us", "us"},
	{"race.steps", "count"},
	{"race.self_ms", "ms"},
	{"core.classify_p50_ms", "ms"},
	{"core.classify_p90_ms", "ms"},
	{"core.alternates", "count"},
	{"core.primary_paths", "count"},
	{"core.branches", "count"},
	{"core.path_items_run", "count"},
	{"core.pruned_schedules", "count"},
	{"core.truncated_paths", "count"},
	{"core.self_ms", "ms"},
	{"vm.clone_allocs", "count"},
	{"vm.clone_bytes", "B"},
	{"vm.fused_ops", "count"},
	{"vm.exec_mips", "Minstr/s"},
	{"vm.self_ms", "ms"},
	{"ckpt.hits", "count"},
	{"ckpt.sym_hits", "count"},
	{"ckpt.sibling_memo_hits", "count"},
	{"solver.queries", "count"},
	{"solver.cache_hits", "count"},
	{"solver.cache_hit_ratio", "ratio"},
	{"server.wait_p50_ms", "ms"},
	{"server.wait_p99_ms", "ms"},
	{"server.run_fresh_p50_ms", "ms"},
	{"server.run_repeat_p50_ms", "ms"},
	{"server.warm_frac", "frac"},
	{"server.tier_flushes", "count"},
	{"server.tier_evictions", "count"},
	{"server.shed", "count"},
	{"server.degraded", "count"},
	{"server.tier_bytes", "B"},
	{"server.self_ms", "ms"},
	{"dstore.disk_bytes", "B"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()
