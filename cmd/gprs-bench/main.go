// Command gprs-bench is the performance harness of the repository: it runs a
// pinned set of simulator workloads — the paper's base seven-cell Model 3
// configuration on the serial engine, the 19-cell hotspot scenario on the
// serial and the 4-shard engine, the city-scale 169-cell hotspot scenario on
// the 8-group locality-partitioned engine, and an 8-replication runner
// fan-out — and
// emits one schema-versioned BENCH_<date>.json report (events/sec, ns/event,
// allocs/event, B/event, host metadata) into -out.
//
// When the trajectory directory (-baseline) holds earlier reports, the fresh
// numbers are compared against the newest report from an equal host at the
// same fidelity and the run exits non-zero if any workload's events/sec
// regressed by more than -tol (default 15%). Reports from a different host
// class are advisory: the deltas are printed but never fail the run, so a
// trajectory committed from one machine does not spuriously gate another.
//
// -quick shrinks the simulated horizons for CI (quick and full reports are
// never compared against each other). The configurations are pinned: editing
// them breaks comparability of the trajectory, so changes must start a new
// baseline (delete or archive the old BENCH_*.json points).
//
// Examples:
//
//	gprs-bench                      # full run, gate + append under benchdata/
//	gprs-bench -quick               # CI fidelity
//	gprs-bench -out /tmp/bench -baseline benchdata -tol 0.15
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gprs-bench:", err)
		os.Exit(1)
	}
}

// workload is one pinned benchmark: a closure returning the number of
// simulation events it executed.
type workload struct {
	name string
	run  func() (uint64, error)
}

func run(args []string) error {
	fs := flag.NewFlagSet("gprs-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced-fidelity run (CI setting)")
	out := fs.String("out", "benchdata", "directory the BENCH_<date>.json report is written to")
	baselineDir := fs.String("baseline", "benchdata", "trajectory directory compared against (empty disables the gate)")
	tol := fs.Float64("tol", 0.15, "relative events/sec regression tolerance")
	date := fs.String("date", "", "report date override (YYYY-MM-DD; default today)")
	telemetry := fs.String("telemetry", "", "serve live pprof/expvar telemetry on this address (e.g. :6060) for the duration of the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *date == "" {
		*date = time.Now().Format("2006-01-02")
	}
	if *telemetry != "" {
		addr, err := probe.ServeTelemetry(*telemetry)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}

	report := bench.Report{
		SchemaVersion: bench.SchemaVersion,
		Date:          *date,
		Quick:         *quick,
		Host:          bench.CurrentHost(),
	}
	harnessStart := time.Now()
	for _, w := range workloads(*quick) {
		res, err := measure(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		report.Results = append(report.Results, res)
		fmt.Printf("%-28s %12.0f ev/s  %8.1f ns/ev  %8.4f allocs/ev  %8.1f B/ev  %6.1f ms GC  %6.1f MiB heap  (%d events)\n",
			res.Name, res.EventsPerSec, res.NsPerEvent, res.AllocsPerEvent, res.BytesPerEvent,
			res.GCPauseTotalSec*1e3, float64(res.PeakHeapBytes)/(1<<20), res.Events)
	}
	report.WallSec = time.Since(harnessStart).Seconds()

	path, err := bench.WriteFile(*out, report)
	if err != nil {
		return err
	}
	fmt.Printf("\nreport written to %s\n", path)

	if *baselineDir == "" {
		return nil
	}
	trajectory, err := bench.LoadDir(*baselineDir)
	if err != nil {
		return err
	}
	// Never gate against the file this run just wrote (out and baseline
	// default to the same directory, and filenames are canonical per
	// date+fidelity, so the overwritten point would always compare as 0%).
	sameDir := filepath.Clean(*out) == filepath.Clean(*baselineDir)
	kept := trajectory[:0]
	for _, r := range trajectory {
		if sameDir && r.Filename() == report.Filename() {
			continue
		}
		kept = append(kept, r)
	}
	base, gated := bench.LatestBaseline(kept, report.Host, report.Quick)
	if base == nil {
		fmt.Println("no baseline in trajectory; nothing to gate against")
		return nil
	}
	cmp := bench.Compare(base, report, *tol, gated)
	fmt.Printf("\nbaseline %s (host match: %v, tolerance %.0f%%):\n", base.Date, gated, 100**tol)
	for _, d := range cmp.Deltas {
		fmt.Println(" ", d)
	}
	if cmp.Failed() {
		return fmt.Errorf("events/sec regression beyond %.0f%% tolerance", 100**tol)
	}
	return nil
}

// measure runs one workload and derives its metrics from wall time and
// runtime.MemStats deltas. A GC round before the run keeps previously
// retained garbage out of the allocation deltas.
func measure(w workload) (bench.Result, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	events, err := w.run()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return bench.Result{}, err
	}
	if events == 0 {
		return bench.Result{}, fmt.Errorf("workload executed no events")
	}
	ev := float64(events)
	return bench.Result{
		Name:            w.name,
		Events:          events,
		WallSec:         wall,
		EventsPerSec:    ev / wall,
		NsPerEvent:      wall * 1e9 / ev,
		AllocsPerEvent:  float64(after.Mallocs-before.Mallocs) / ev,
		BytesPerEvent:   float64(after.TotalAlloc-before.TotalAlloc) / ev,
		GCPauseTotalSec: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
		PeakHeapBytes:   after.HeapSys,
	}, nil
}

// baseConfig is the pinned base workload configuration: the paper's Model 3
// base parameter setting at 0.5 calls/s per cell.
func baseConfig(cells int, quick bool) (sim.Config, error) {
	topo, err := cluster.Preset(cells)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.Seed = 1
	cfg.WarmupSec = 500
	cfg.MeasurementSec = 4000
	cfg.Batches = 5
	if quick {
		cfg.WarmupSec = 200
		cfg.MeasurementSec = 1000
	}
	return cfg, nil
}

// hotspotConfig is the pinned heterogeneous workload: the hotspot scenario
// preset on a wrap-around hex-ring cluster of the given size.
func hotspotConfig(cells int, quick bool) (sim.Config, error) {
	cfg, err := baseConfig(cells, quick)
	if err != nil {
		return sim.Config{}, err
	}
	spec, err := scenario.Preset(scenario.Hotspot)
	if err != nil {
		return sim.Config{}, err
	}
	if _, err := (scenario.Workload{Spec: &spec}).Apply(&cfg); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

func simEvents(cfg sim.Config, shards int) (uint64, error) {
	res, err := sim.RunOnce(cfg, sim.ShardedOptions{Shards: shards})
	if err != nil {
		return 0, err
	}
	return res.Events, nil
}

// workloads returns the pinned benchmark set.
func workloads(quick bool) []workload {
	return []workload{
		{"serial/base-7cell", func() (uint64, error) {
			cfg, err := baseConfig(7, quick)
			if err != nil {
				return 0, err
			}
			return simEvents(cfg, 1)
		}},
		{"serial/hotspot-19cell", func() (uint64, error) {
			cfg, err := hotspotConfig(19, quick)
			if err != nil {
				return 0, err
			}
			return simEvents(cfg, 1)
		}},
		{"sharded4/hotspot-19cell", func() (uint64, error) {
			cfg, err := hotspotConfig(19, quick)
			if err != nil {
				return 0, err
			}
			return simEvents(cfg, 4)
		}},
		{"sharded8/hotspot-169cell", func() (uint64, error) {
			// City-scale point: the hotspot scenario on the 169-cell
			// hex-ring preset, locality-partitioned into 8 cell groups. The
			// horizon is halved against the small workloads to keep the
			// harness wall time bounded at ~9x the cell count.
			cfg, err := hotspotConfig(169, quick)
			if err != nil {
				return 0, err
			}
			cfg.WarmupSec /= 2
			cfg.MeasurementSec /= 2
			return simEvents(cfg, 8)
		}},
		{"runner/8rep-base-7cell", func() (uint64, error) {
			cfg, err := baseConfig(7, quick)
			if err != nil {
				return 0, err
			}
			cfg.MeasurementSec /= 2 // 8 replications: keep total work bounded
			sum, err := runner.Run(cfg, runner.Options{Replications: 8, BaseSeed: 1})
			if err != nil {
				return 0, err
			}
			return sum.Merged.Events, nil
		}},
	}
}
