// Trace: replaying a measured arrival series — empirical traffic the paper's
// stationary-load models cannot express. The example loads the committed
// sample trace (trace.csv next to this program: per-window arrival rates and
// mean payload sizes measured over a half-hour busy cycle), compiles it into
// the normalized piecewise-constant temporal profile of internal/scenario,
// and wraps it periodically so the busy cycle repeats for the whole run. It
// verifies the replay is bit-identical between one group and the sharded
// engine, then runs replicated experiments of the trace replay and the
// uniform (constant-rate) baseline from the same seeds and prints the
// per-cell comparison with cross-replication confidence intervals: same mean
// load by construction — the trace is normalized to mean rate 1 — so any
// difference between the two columns is the burstiness of the arrival
// pattern. With -series the cross-replication merge of the probe
// time series (mean ± CI half-width per probe window) is written as CSV, so
// the within-cycle response is visible window by window.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"reflect"

	"repro/internal/cluster"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	reps := flag.Int("replications", 4, "independent replications per configuration")
	seriesPath := flag.String("series", "", "write the trace replay's merged probe series (mean ± CI per window and cell) to this CSV file")
	flag.Parse()

	topo, err := cluster.Preset(7)
	if err != nil {
		log.Fatal(err)
	}

	// A scaled-down cell and a short run keep the example fast;
	// cmd/gprs-sim -trace runs the full-size version on any CSV.
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 500
	cfg.MeasurementSec = 3600
	cfg.Batches = 5
	cfg.Seed = 42
	cfg.Probe = &probe.Spec{IntervalSec: 100}

	rows := loadTrace()
	spec := scenario.Spec{
		Name: "measured-trace",
		Temporal: scenario.Temporal{
			Kind:      scenario.Trace,
			Rows:      rows,
			PeriodSec: 1800,
		},
	}
	traceCfg := cfg
	prof, err := scenario.Apply(&traceCfg, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d windows over a %gs cycle, mean payload %.0f bytes (reporting only; the paper's 480-byte packet model is unchanged)\n",
		len(rows), spec.Temporal.PeriodSec, prof.MeanPayloadBytes())
	fmt.Printf("normalized per-window scale: %v\n\n", windowScales(spec, topo))

	// The determinism contract holds under empirical traffic too: the trace
	// replay is bit-identical between one group and the sharded engine.
	serial, err := sim.RunOnce(traceCfg, sim.ShardedOptions{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	sharded, err := sim.RunOnce(traceCfg, sim.ShardedOptions{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		log.Fatal("one-group and sharded runs diverged — the determinism contract is broken")
	}
	fmt.Printf("one group:      %d events\n", serial.Events)
	fmt.Printf("sharded engine: %d events, bit-identical results: true\n\n", sharded.Events)

	// Replicated comparison from the same seed substreams: the trace replay
	// against the uniform baseline. The trace is normalized to mean rate 1,
	// so both configurations carry the same offered load; any difference is
	// the burstiness of the arrival pattern.
	traceSum := replicate(traceCfg, *reps)
	baseSum := replicate(cfg, *reps)

	fmt.Printf("per-cell comparison, %d replications (± cross-replication CI half-width):\n", *reps)
	fmt.Printf("  %4s %22s %22s %24s %24s\n", "cell", "CVT uniform", "CVT trace", "GSM block uniform", "GSM block trace")
	for i, bm := range baseSum.Merged.PerCell {
		tm := traceSum.Merged.PerCell[i]
		bi, ti := baseSum.Merged.PerCellCI[i], traceSum.Merged.PerCellCI[i]
		fmt.Printf("  %4d %15.3f ±%.3f %15.3f ±%.3f %16.4f ±%.4f %16.4f ±%.4f\n",
			bm.Cell,
			bm.CarriedVoiceTraffic, bi.CarriedVoiceTraffic.HalfWidth,
			tm.CarriedVoiceTraffic, ti.CarriedVoiceTraffic.HalfWidth,
			bm.GSMBlocking, bi.GSMBlocking.HalfWidth,
			tm.GSMBlocking, ti.GSMBlocking.HalfWidth)
	}
	fmt.Printf("\ncluster means: GSM blocking %.4f (uniform) vs %.4f (trace), throughput %.0f vs %.0f bit/s\n",
		baseSum.Merged.GSMBlockingProbability.Mean, traceSum.Merged.GSMBlockingProbability.Mean,
		baseSum.Merged.ThroughputBits.Mean, traceSum.Merged.ThroughputBits.Mean)

	if *seriesPath != "" {
		if traceSum.Series == nil {
			log.Fatal("series: replications produced no mergeable time series")
		}
		f, err := os.Create(*seriesPath)
		if err != nil {
			log.Fatal(err)
		}
		err = runner.WriteSeriesCSV(f, traceSum.Series)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("merged series written to %s (%d windows of %gs, %d replications)\n",
			*seriesPath, len(traceSum.Series.Times), traceSum.Series.IntervalSec, traceSum.Series.Replications)
	}
}

// replicate runs reps independent replications of cfg on the sharded engine
// and merges them into cross-replication confidence intervals.
func replicate(cfg sim.Config, reps int) runner.Summary {
	sum, err := runner.Run(cfg, runner.Options{
		Replications: reps,
		BaseSeed:     cfg.Seed,
		Shards:       4,
	})
	if err != nil {
		log.Fatal(err)
	}
	return sum
}

// loadTrace reads the sample CSV shipped with the example, falling back to
// the repo-relative path when the example runs from the module root.
func loadTrace() []scenario.TraceRow {
	var lastErr error
	for _, path := range []string{"trace.csv", "examples/trace/trace.csv"} {
		if _, err := os.Stat(path); err != nil {
			continue
		}
		rows, err := scenario.LoadTraceCSV(path)
		if err != nil {
			lastErr = err
			continue
		}
		return rows
	}
	if lastErr != nil {
		log.Fatal(lastErr)
	}
	log.Fatal("trace.csv not found (run from examples/trace/ or the module root)")
	return nil
}

// windowScales compiles the spec against unit base rates and samples the
// profile once per trace window in cell 0, so the reported values are the
// normalized rate multipliers themselves.
func windowScales(spec scenario.Spec, topo *cluster.Topology) []float64 {
	prof, err := spec.Compile(topo, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	var out []float64
	at := 0.0
	for range 6 {
		v, _ := prof.Rates(0, at)
		out = append(out, math.Round(v*1000)/1000)
		at = prof.NextChange(at)
	}
	return out
}
