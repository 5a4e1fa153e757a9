package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/sim"
)

// layerMetrics are per-layer values keyed by metric name.
type layerMetrics map[string]float64

// traced runs the traced breakdown of every workload in one process, so
// every per-layer metric is measured by its owning workload. The scoped
// metrics (cpu.*, trace.overhead_frac, des.pool_hit_rate, runtime.*) come
// from the selected workload where it produces them, else from the first
// other workload that does (des.pool_hit_rate on analytic-sweep, which has
// no event calendar).
func traced(selected *workload, seed int64, t *tally) (layerMetrics, error) {
	all := layerMetrics{}
	var own layerMetrics
	for _, w := range workloads {
		m, err := w.trace(rotation(w.inputs, seed)[0], w == selected, t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if w == selected {
			own = m
			continue
		}
		for k, v := range m {
			if _, seen := all[k]; !seen || !scopedMetrics[k] {
				all[k] = v
			}
		}
	}
	for k, v := range own {
		all[k] = v
	}
	return all, nil
}

// observation is what observe measures around one plain operation.
type observation struct {
	res           opResult
	before, after probe.Snapshot // telemetry registry
}

// observe runs op once without the profiler, recording the telemetry
// registry and the allocator around it, and derives the scoped allocation
// and pool metrics into m. The returned function, for the selected workload,
// runs op three more times — twice under the CPU profiler for the cpu.*
// shares, then once more plain — for the tracing overhead. The caller reads
// anything op captures before calling it.
func observe(op func() (opResult, error), primary bool, m layerMetrics, t *tally, label string) (observation, func() error) {
	var o observation
	var mem0, mem1 runtime.MemStats
	runtime.GC()
	o.before = probe.Default.Snapshot()
	runtime.ReadMemStats(&mem0)
	res, err := op()
	runtime.ReadMemStats(&mem1)
	o.after = probe.Default.Snapshot()
	o.res = res
	t.check(label, err)

	if ev := float64(res.events); ev > 0 {
		m["runtime.allocs_per_event"] = float64(mem1.Mallocs-mem0.Mallocs) / ev
		m["runtime.bytes_per_event"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / ev
	}
	m["runtime.gc_pause_s"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e9
	hits := o.after.PoolHits - o.before.PoolHits
	misses := o.after.PoolMisses - o.before.PoolMisses
	if hits+misses > 0 {
		m["des.pool_hit_rate"] = float64(hits) / float64(hits+misses)
	}

	profiled := func() error {
		if !primary {
			return nil
		}
		// Two profiled calls between the plain one above and a second plain
		// one (A B B A), so a drift in host speed cancels out of the overhead.
		var tracedRun time.Duration
		shares, err := profileShares(func() {
			for k := 0; k < 2; k++ {
				runtime.GC()
				res, err := op()
				t.check(label+" (profiled)", err)
				tracedRun += res.run
			}
		})
		if err != nil {
			return err
		}
		runtime.GC()
		res, err := op()
		t.check(label, err)
		for name, pkg := range cpuPackages {
			m[name] = shares[pkg]
		}
		m["trace.overhead_frac"] = tracedRun.Seconds()/(o.res.run+res.run).Seconds() - 1
		return nil
	}
	return o, profiled
}

// analyticTrace observes Fig7CDT calls, then replays the Fig. 7 grid point by
// point through core and ctmc.
func analyticTrace(_ int, primary bool, t *tally) (layerMetrics, error) {
	m := layerMetrics{}
	o, profiled := observe(func() (opResult, error) { return analyticOp(0) }, primary, m, t, "analytic-sweep")
	if err := profiled(); err != nil {
		return nil, err
	}

	var newT, buildT, solveT, measT, pointT time.Duration
	var states, transitions, sweeps int64
	var nnzSweeps float64
	for i, p := range fig7Grid() {
		cfg := quickModelConfig(p)
		t0 := time.Now()
		model, err := core.New(cfg)
		dNew := time.Since(t0)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := model.BuildGenerator(); err != nil {
			return nil, err
		}
		dBuild := time.Since(t1)
		t2 := time.Now()
		res, err := model.Solve(fig7Solver)
		dSolve := time.Since(t2)
		if err != nil {
			return nil, err
		}
		t3 := time.Now()
		meas, err := model.MeasuresFrom(res.Pi)
		dMeas := time.Since(t3)
		if err != nil {
			return nil, err
		}

		newT += dNew
		buildT += dBuild
		measT += dMeas
		// Solve builds its own generator and derives the measures; both are
		// timed on their own above, so the rest is the Gauss–Seidel solve.
		solveT += dSolve - dBuild - dMeas
		pointT += dNew + dSolve
		states += int64(res.Solver.NumStates)
		transitions += res.Solver.Transitions
		sweeps += int64(res.Solver.Iterations)
		nnzSweeps += float64(res.Solver.Iterations) * float64(res.Solver.Transitions)

		var err2 error
		switch {
		case !res.Solver.Converged:
			err2 = fmt.Errorf("grid point %d did not converge in %d sweeps", i, res.Solver.Iterations)
		case !(res.Solver.Residual <= residualBound):
			err2 = fmt.Errorf("grid point %d: residual %.3g above %.3g", i, res.Solver.Residual, residualBound)
		default:
			err2 = checkCDT(i, meas.CarriedDataTraffic)
		}
		t.check(fmt.Sprintf("analytic-sweep replay point %d", i), err2)
	}
	if sweeps != fig7Sweeps {
		t.check("analytic-sweep replay", fmt.Errorf("%w: %d sweeps, pinned %d", errWorkloadChanged, sweeps, fig7Sweeps))
	}

	m["core.new_s"] = newT.Seconds()
	m["ctmc.build_s"] = buildT.Seconds()
	m["ctmc.solve_s"] = solveT.Seconds()
	m["core.measures_s"] = measT.Seconds()
	m["core.states"] = float64(states)
	m["ctmc.transitions"] = float64(transitions)
	m["ctmc.sweeps"] = float64(sweeps)
	m["ctmc.ns_per_sweep_nnz"] = solveT.Seconds() * 1e9 / nnzSweeps
	m["experiments.busy_frac"] = pointT.Seconds() / (procs * o.res.run.Seconds())
	return m, nil
}

// replicatedTrace runs one plain replicated-7cell operation, replays its
// replication seeds sequentially through sim.New and Run, merges them with
// runner.Merge, and measures steady-state allocations.
func replicatedTrace(i int, primary bool, t *tally) (layerMetrics, error) {
	pin := replicatedPins[i]
	m := layerMetrics{}
	var reps int
	o, profiled := observe(func() (opResult, error) {
		res, sum, err := runReplicated(pin)
		reps = sum.Replications
		return res, err
	}, primary, m, t, "replicated-7cell")
	if err := profiled(); err != nil {
		return nil, err
	}

	var setupT, runT time.Duration
	var events uint64
	results := make([]sim.Results, 0, reps)
	for r := 0; r < reps; r++ {
		cfg := simBaseConfig()
		cfg.Seed = runner.SeedFor(pin.seed, r)
		t0 := time.Now()
		s, err := sim.New(cfg)
		setupT += time.Since(t0)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		res, err := s.Run()
		runT += time.Since(t1)
		if err != nil {
			return nil, err
		}
		events += res.Events
		results = append(results, res)
	}
	t0 := time.Now()
	merged := runner.Merge(results, simBaseConfig().ConfidenceLevel)
	mergeT := time.Since(t0)
	t.check("replicated-7cell sequential replay", checkResults(merged.Merged, pin))

	steady, err := steadyAllocsPerEvent(runner.SeedFor(pin.seed, 0))
	if err != nil {
		return nil, err
	}

	m["runner.replications"] = float64(reps)
	m["runner.rep_setup_s"] = setupT.Seconds()
	m["runner.rep_run_s"] = runT.Seconds()
	m["runner.merge_s"] = mergeT.Seconds()
	m["runner.busy_frac"] = (setupT + runT).Seconds() / (procs * o.res.run.Seconds())
	m["sim.ns_per_event_serial"] = runT.Seconds() * 1e9 / float64(events)
	m["runtime.steady_allocs_per_event"] = steady
	return m, nil
}

// steadyAllocsPerEvent runs one replication over the benchmark's horizon and
// over twice its measurement period; the difference of the two runs'
// allocations per difference of events excludes set-up and warm-up.
func steadyAllocsPerEvent(seed int64) (float64, error) {
	var allocs, events [2]uint64
	for k := range allocs {
		cfg := simBaseConfig()
		cfg.Seed = seed
		cfg.MeasurementSec *= float64(k + 1)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s, err := sim.New(cfg)
		if err != nil {
			return 0, err
		}
		res, err := s.Run()
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m1)
		allocs[k], events[k] = m1.Mallocs-m0.Mallocs, res.Events
	}
	return (float64(allocs[1]) - float64(allocs[0])) / (float64(events[1]) - float64(events[0])), nil
}

// cityTrace times the set-up layers, runs one plain sharded operation with
// the shard and probe layers read from the telemetry registry, and runs the
// same configuration on the serial engine, which must reproduce the sharded
// digest bit for bit.
func cityTrace(i int, primary bool, t *tally) (layerMetrics, error) {
	pin := cityPins[i]
	m := layerMetrics{}
	var applies, builds []float64
	for k := 0; k < 5; k++ {
		c, err := newCityRun(pin.seed)
		if err != nil {
			return nil, err
		}
		applies = append(applies, c.apply.Seconds())
		builds = append(builds, c.build.Seconds())
	}

	var (
		runT, exportT time.Duration
		groups        []uint64
		windows       int
		digest        string
		cfg           sim.Config
	)
	o, profiled := observe(func() (opResult, error) {
		c, err := newCityRun(pin.seed)
		if err != nil {
			return opResult{}, err
		}
		r, run, export, err := c.call(pin)
		runT, exportT, cfg = run, export, c.cfg
		if err == nil {
			groups, windows, digest = c.engine.GroupEvents(), c.engine.Series().Windows(), resultDigest(r)
		}
		return opResult{run: run + export, setup: c.setup(), events: r.Events}, err
	}, primary, m, t, "city-169cell")
	m["shard.windows"] = float64(o.after.WindowsAdvanced - o.before.WindowsAdvanced)
	m["shard.merged_messages"] = float64(o.after.MessagesMerged - o.before.MessagesMerged)
	advance := float64(o.after.AdvanceNanos - o.before.AdvanceNanos)
	wait := float64(o.after.BarrierWaitNanos - o.before.BarrierWaitNanos)
	m["shard.advance_s"] = advance / 1e9
	m["shard.window_s"] = float64(o.after.WindowNanos-o.before.WindowNanos) / 1e9
	m["shard.barrier_wait_frac"] = wait / (advance + wait)
	m["partition.max_group_share"] = maxShare(groups)
	m["probe.windows"] = float64(windows)
	m["probe.export_s"] = exportT.Seconds()
	shardedRun := runT
	if err := profiled(); err != nil {
		return nil, err
	}

	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	serial, err := s.Run()
	serialT := time.Since(t0)
	if err != nil {
		return nil, err
	}
	var mismatch error
	if d := resultDigest(serial); d != digest {
		mismatch = fmt.Errorf("serial digest %s, sharded %s", d, digest)
	}
	t.check("city-169cell serial replay", mismatch)

	sort.Float64s(applies)
	sort.Float64s(builds)
	m["scenario.apply_s"] = median(applies)
	m["sim.new_s"] = median(builds)
	m["sim.serial_run_s"] = serialT.Seconds()
	m["shard.speedup"] = serialT.Seconds() / shardedRun.Seconds()
	return m, nil
}

// maxShare is the largest group's share of all events.
func maxShare(groups []uint64) float64 {
	var sum, top uint64
	for _, g := range groups {
		sum += g
		top = max(top, g)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) / float64(sum)
}
