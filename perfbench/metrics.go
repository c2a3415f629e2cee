package main

// metric is one reported figure with its unit.
type metric struct {
	name, unit string
}

// endToEnd are the figures a radbench user sees, reported with tracing
// off: the median over the fresh processes of one run.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's figures, named after the repo's
// modules. Layers a workload never calls report 0 (see README.md for
// the layer → end-to-end metric → workload map).
var perLayer = []metric{
	{"machine.step_ns", "ns"},
	{"machine.sample_ns", "ns"},
	{"machine.ns_per_sim_s", "ns"},
	{"machine.samples", "count"},
	{"machine.self_frac", "ratio"},
	{"ild.observe_ns", "ns"},
	{"ild.fit_ms", "ms"},
	{"ild.samples", "count"},
	{"ild.self_frac", "ratio"},
	{"emr.new_ns", "ns"},
	{"emr.new_mb", "MiB"},
	{"emr.run_ns", "ns"},
	{"emr.runs", "count"},
	{"emr.pool_hit_ratio", "ratio"},
	{"mem.newdram_ns", "ns"},
	{"emr.self_frac", "ratio"},
	{"fault.schedule_ns", "ns"},
	{"mission.schedule_ns", "ns"},
	{"downlink.encode_ns", "ns"},
	{"downlink.decode_ns", "ns"},
	{"downlink.frames_sent", "count"},
	{"downlink.retx_ratio", "ratio"},
	{"downlink.self_frac", "ratio"},
	{"guard.observe_ns", "ns"},
	{"adapt.observe_ns", "ns"},
	{"adapt.moves", "count"},
	{"sched.trials", "count"},
	{"sched.busy_frac", "ratio"},
	{"sched.overhead_ns_per_trial", "ns"},
	{"resultcache.open_ms", "ms"},
	{"resultcache.key_ns", "ns"},
	{"resultcache.get_ns", "ns"},
	{"resultcache.put_ns", "ns"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.bytes", "bytes"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"telemetry.overhead_frac", "ratio"},
	{"experiments.self_frac", "ratio"},
}
