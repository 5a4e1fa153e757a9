// Command gprs-experiments regenerates the tables and figures of the paper's
// evaluation section and writes one CSV file per figure. Figures, sweep
// points, and simulator replications all run concurrently under one global
// -workers bound, and overlapping model solutions are memoized across
// figures. `-figure hotspot` regenerates the per-cell figures of a
// heterogeneous-load scenario — the spatial response of the cluster by hex
// distance from the scenario center (or from the corridor axis), the
// handover flow (hsp05) and where an admission policy intervenes (hsp06).
//
// The simulator flags it shares with gprs-sim — replications, adaptive
// stopping and variance reduction, cluster size, sharding and partitioning,
// workload scenario, trace, admission policy and telemetry — are bound by
// cmd/internal/simflags (see the README's CLI reference) and apply to every
// simulator run. Here -replications defaults to the fidelity's count and
// -cells to the paper's cluster (19 cells for -figure hotspot). A figure
// rejects options every one of its simulated points would reject before any
// model solve.
//
// Progress is human-readable on stderr by default; -progress-json switches
// the stream to structured JSON lines (one event per completed sweep point or
// figure group, with wall-clock elapsed and a remaining-work estimate), for
// driving dashboards or CI annotations.
//
// Examples:
//
//	gprs-experiments                      # quick fidelity, every figure
//	gprs-experiments -full -out results   # paper-resolution sweep
//	gprs-experiments -figure fig12        # a single figure
//	gprs-experiments -figure fig6 -replications 8 -workers 4
//	gprs-experiments -figure fig6 -cells 19 -shards 4
//	gprs-experiments -figure hotspot -cells 19 -replications 5
//	gprs-experiments -figure hotspot -scenario gradient
//	gprs-experiments -figure hotspot -scenario highway -cells 19
//	gprs-experiments -figure hotspot -scenario hotspot-guard
//	gprs-experiments -figure hotspot -scenario hotspot -policy guard -guard 2
//	gprs-experiments -full -progress-json 2>progress.jsonl
//	gprs-experiments -full -telemetry :6060
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/simflags"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gprs-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gprs-experiments", flag.ContinueOnError)
	shared := simflags.Register(fs)
	var (
		full   = fs.Bool("full", false, "run the paper-resolution parameter setting (slow)")
		figure = fs.String("figure", "all", "figure to regenerate: all, tables, fig5 ... fig15, hotspot")
		outDir = fs.String("out", "results", "directory for CSV output")
		noSim  = fs.Bool("no-sim", false, "skip the detailed-simulator series of figs 5 and 6")
		tol    = fs.Float64("tol", 0, "steady-state solver tolerance (0 = 1e-6)")
		quiet  = fs.Bool("quiet", false, "suppress progress output on stderr")
		pjson  = fs.Bool("progress-json", false, "emit structured JSON-lines progress events on stderr instead of human-readable lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	work, ro, err := shared.Bind()
	if err != nil {
		return err
	}

	start := time.Now()
	opts := experiments.Options{
		Fidelity:        experiments.Quick,
		Workers:         ro.Workers,
		WithSimulation:  !*noSim,
		Tolerance:       *tol,
		Replications:    ro.Replications,
		Precision:       ro.Precision,
		Target:          ro.Target,
		MinReplications: ro.MinReplications,
		MaxReplications: ro.MaxReplications,
		VR:              ro.VR,
		SimSeed:         ro.BaseSeed,
		Shards:          ro.Shards,
		Workload:        work,
	}
	if *full {
		opts.Fidelity = experiments.Full
	}
	switch {
	case *quiet:
		// No progress stream at all.
	case *pjson:
		opts.ProgressRecord = jsonProgress(os.Stderr, start)
	default:
		opts.ProgressRecord = func(ev experiments.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), progressText(ev))
		}
	}

	name := strings.ToLower(*figure)
	if name == "tables" || name == "all" {
		fmt.Fprint(stdout, experiments.TableBaseParameters().String())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiments.TableTrafficModels().String())
		fmt.Fprintln(stdout)
		if name == "tables" {
			return nil
		}
	}

	if err := shared.StartTelemetry(); err != nil {
		return err
	}
	figs, err := experiments.Figures(name, opts)
	if err != nil {
		return err
	}
	for _, fig := range figs {
		fmt.Fprint(stdout, experiments.FormatFigure(fig))
		fmt.Fprintln(stdout)
	}
	paths, err := experiments.WriteAllCSV(figs, *outDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d CSV files to %s in %.1fs\n", len(paths), *outDir, time.Since(start).Seconds())
	return nil
}

// progressLine is one JSON-lines record of -progress-json: the structured
// experiments event plus wall-clock pacing derived from it.
type progressLine struct {
	experiments.ProgressEvent
	// ElapsedSec is the wall-clock time since the run started.
	ElapsedSec float64 `json:"elapsed_sec"`
	// ETASec estimates the remaining wall-clock time of the event's figure
	// from its completed-point fraction; omitted on group events and on the
	// run's first point (no pace yet).
	ETASec float64 `json:"eta_sec,omitempty"`
}

// jsonProgress returns an experiments.ProgressRecord callback that streams
// one JSON line per completion event to w. Calls are serialized by the
// experiments package, so the encoder needs no extra locking.
func jsonProgress(w *os.File, start time.Time) func(experiments.ProgressEvent) {
	enc := json.NewEncoder(w)
	return func(ev experiments.ProgressEvent) {
		line := progressLine{ProgressEvent: ev, ElapsedSec: time.Since(start).Seconds()}
		if ev.Kind == "point" && ev.Done > 0 && ev.Total > ev.Done {
			line.ETASec = line.ElapsedSec / float64(ev.Done) * float64(ev.Total-ev.Done)
		}
		if err := enc.Encode(line); err != nil {
			fmt.Fprintf(os.Stderr, "progress-json: %v\n", err)
		}
	}
}

// progressText renders one progress event as a human-readable line.
func progressText(ev experiments.ProgressEvent) string {
	if ev.Kind == "group" {
		return fmt.Sprintf("%s done (%d/%d figure groups)", ev.Figure, ev.Done, ev.Total)
	}
	note := ""
	if ev.Adaptive {
		note = ", hit replication cap"
		if ev.Converged {
			note = fmt.Sprintf(", converged at %.2g relative half-width", ev.RelativeHalfWidth)
		}
	}
	return fmt.Sprintf("%s: simulated point %d/%d (%d replications%s)", ev.Figure, ev.Done, ev.Total, ev.Replications, note)
}
