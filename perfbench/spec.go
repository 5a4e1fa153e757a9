package main

// metricSpec declares one reported metric: its name, unit and the direction
// in which it improves. The lists below are the benchmark's contract; they
// are mirrored field for field by BENCHMARK.json at the repository root
// (perfbench_test.go checks the two agree).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the repository sees, reported by every
// untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"run_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mib", "MiB", "lower"},
}

// perLayer are the metrics of single layers, reported by every traced run
// (--trace 1). README.md maps each to the end-to-end metric it should move.
var perLayer = []metricSpec{
	// analytic-sweep: replay of the Fig. 7 grid through core and ctmc.
	{"core.new_s", "s", "lower"},
	{"ctmc.build_s", "s", "lower"},
	{"ctmc.solve_s", "s", "lower"},
	{"core.measures_s", "s", "lower"},
	{"core.states", "count", "lower"},
	{"ctmc.transitions", "count", "lower"},
	{"ctmc.sweeps", "count", "lower"},
	{"ctmc.ns_per_sweep_nnz", "ns", "lower"},
	{"experiments.busy_frac", "frac", "higher"},
	// replicated-7cell: the runner and a sequential replay of its seeds.
	{"runner.replications", "count", "lower"},
	{"runner.rep_setup_s", "s", "lower"},
	{"runner.rep_run_s", "s", "lower"},
	{"runner.merge_s", "s", "lower"},
	{"runner.busy_frac", "frac", "higher"},
	{"sim.ns_per_event_serial", "ns", "lower"},
	{"runtime.steady_allocs_per_event", "count", "lower"},
	// city-169cell: set-up, the shard barrier, partition balance, probes and
	// the same configuration on the serial engine.
	{"scenario.apply_s", "s", "lower"},
	{"sim.new_s", "s", "lower"},
	{"shard.windows", "count", "lower"},
	{"shard.merged_messages", "count", "lower"},
	{"shard.advance_s", "s", "lower"},
	{"shard.window_s", "s", "lower"},
	{"shard.barrier_wait_frac", "frac", "lower"},
	{"partition.max_group_share", "frac", "lower"},
	{"probe.windows", "count", "lower"},
	{"probe.export_s", "s", "lower"},
	{"sim.serial_run_s", "s", "lower"},
	{"shard.speedup", "ratio", "higher"},
	// Scoped to the selected --workload (see README.md).
	{"des.pool_hit_rate", "frac", "higher"},
	{"runtime.allocs_per_event", "count", "lower"},
	{"runtime.bytes_per_event", "B", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"cpu.des", "frac", "lower"},
	{"cpu.sim", "frac", "lower"},
	{"cpu.tcp", "frac", "lower"},
	{"cpu.stats", "frac", "lower"},
	{"cpu.shard", "frac", "lower"},
	{"cpu.scenario", "frac", "lower"},
	{"cpu.ctmc", "frac", "lower"},
	{"cpu.core", "frac", "lower"},
	{"cpu.runtime", "frac", "lower"},
}

// scopedMetrics are the per-layer metrics a traced run takes on the selected
// workload; every other per-layer metric has exactly one owning workload.
var scopedMetrics = map[string]bool{
	"des.pool_hit_rate":        true,
	"runtime.allocs_per_event": true,
	"runtime.bytes_per_event":  true,
	"runtime.gc_pause_s":       true,
	"trace.overhead_frac":      true,
}

// cpuPackages maps each cpu.* share to the package whose self time it
// counts; cpu.runtime also takes internal/runtime/... (see packageOf).
var cpuPackages = map[string]string{
	"cpu.des":      "repro/internal/des",
	"cpu.sim":      "repro/internal/sim",
	"cpu.tcp":      "repro/internal/tcp",
	"cpu.stats":    "repro/internal/stats",
	"cpu.shard":    "repro/internal/shard",
	"cpu.scenario": "repro/internal/scenario",
	"cpu.ctmc":     "repro/internal/ctmc",
	"cpu.core":     "repro/internal/core",
	"cpu.runtime":  "runtime",
}
