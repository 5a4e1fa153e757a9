// Command gprs-experiments regenerates the tables and figures of the paper's
// evaluation section and writes one CSV file per figure. Figures, sweep
// points, and simulator replications all run concurrently under one global
// -workers bound; simulator series carry cross-replication confidence
// intervals from -replications independent runs seeded from -seed. Overlapping
// model solutions are memoized across figures. -cells selects the simulated
// cluster size (7 is the paper's cluster; 19 and 37 are generated wrap-around
// hex rings) and -shards > 1 runs each simulator replication on the sharded
// multi-cell engine without changing the results. Progress is reported on
// stderr.
//
// -scenario/-scenario-file install a heterogeneous-load workload scenario
// (internal/scenario) on every simulator run; `-figure hotspot` regenerates
// the per-cell hotspot figures — the spatial response of the cluster by hex
// distance from the scenario center (or from the corridor axis for corridor
// scenarios such as the highway preset), the first workload the analytical
// model cannot express. Scenarios with a mobility profile (highway,
// hotspot-pedestrian) additionally skew the per-cell handover flow, reported
// by the hsp05 figure. -trace replays a measured arrival series from a CSV
// file (header time_sec,{rate_per_s|arrivals}[,payload_bytes]), replacing the
// temporal profile of whatever scenario is selected.
//
// -policy (with -guard/-ho-queue/-ho-deadline) installs a handover admission
// policy (internal/policy) on every simulator run, overriding any policy the
// scenario declares; the policy presets (hotspot-guard, hotspot-hoqueue,
// highway-retry) bundle a policy with a matching load shape. The hsp06
// figure reports where in the cluster the policy intervenes.
//
// Progress is human-readable by default; -progress-json switches the stderr
// stream to structured JSON lines (one event per completed sweep point or
// figure group, with wall-clock elapsed and a remaining-work estimate), for
// driving dashboards or CI annotations. -telemetry serves live pprof and
// expvar runtime metrics over HTTP for the duration of the run.
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
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gprs-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gprs-experiments", flag.ContinueOnError)
	var (
		full    = fs.Bool("full", false, "run the paper-resolution parameter setting (slow)")
		figure  = fs.String("figure", "all", "figure to regenerate: all, tables, fig5 ... fig15")
		outDir  = fs.String("out", "results", "directory for CSV output")
		workers = fs.Int("workers", 0, "concurrent model solutions and simulator runs (0 = NumCPU); also sizes adaptive growth batches — pin it to reproduce -precision runs across machines")
		noSim   = fs.Bool("no-sim", false, "skip the detailed-simulator series of figs 5 and 6")
		tol     = fs.Float64("tol", 0, "steady-state solver tolerance (0 = default)")
		reps    = fs.Int("replications", 0, "independent simulator replications per point (0 = fidelity default; ignored with -precision)")
		prec    = fs.Float64("precision", 0, "adaptive stopping: relative CI half-width target for -target (0 = fixed -replications)")
		minReps = fs.Int("min-reps", 0, "adaptive mode: replications in the first batch (0 = 4)")
		maxReps = fs.Int("max-reps", 0, "adaptive mode: replication cap (0 = 64)")
		vrName  = fs.String("vr", "none", "variance reduction for simulator points: none, antithetic, control")
		target  = fs.String("target", "throughput", "measure watched by -precision: "+strings.Join(runner.MeasureNames(), ", "))
		seed    = fs.Int64("seed", 1, "base seed of the simulator replications")
		cells   = fs.Int("cells", 0, "simulated cluster size: 0/7 (paper) or a wrap-around hex-ring preset (cluster.PresetSizes)")
		shards  = fs.Int("shards", 1, "cell groups advanced in parallel per simulator replication (1 = one group)")
		partFlg = fs.String("partition", "", "cell→group partitioning of -shards > 1 runs: kind[:groups] with kinds "+strings.Join(partition.Kinds(), ", ")+", or explicit JSON (default: locality); never affects results")
		scnName = fs.String("scenario", "", "built-in workload scenario for all simulator runs: "+strings.Join(scenario.Names(), ", "))
		scnFile = fs.String("scenario-file", "", "JSON workload-scenario file (overrides -scenario)")
		trcFile = fs.String("trace", "", "replay a measured arrival trace from this CSV file (header time_sec,{rate_per_s|arrivals}[,payload_bytes]); replaces the scenario's temporal profile")
		polName = fs.String("policy", "", "handover admission policy for all simulator runs (overrides the scenario's): "+strings.Join(policy.Names(), ", "))
		guard   = fs.Int("guard", 0, "voice channels reserved for handovers (-policy guard)")
		hoQueue = fs.Int("ho-queue", 0, "per-cell handover queue capacity (-policy queue)")
		hoDead  = fs.Float64("ho-deadline", 0, "queued-handover deadline in seconds (-policy queue)")
		quiet   = fs.Bool("quiet", false, "suppress progress output on stderr")
		pjson   = fs.Bool("progress-json", false, "emit structured JSON-lines progress events on stderr instead of human-readable lines")
		telem   = fs.String("telemetry", "", "serve live pprof/expvar telemetry on this address (e.g. :6060) for the duration of the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *telem != "" {
		addr, err := probe.ServeTelemetry(*telem)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry on http://%s/debug/pprof/ and /debug/vars\n", addr)
	}
	vr, err := runner.ParseVR(*vrName)
	if err != nil {
		return err
	}
	targetMeasure, err := runner.ParseMeasure(*target)
	if err != nil {
		return err
	}
	if *cells != 0 {
		// Validate up front: figures solve their full analytical sweeps
		// before the simulator runs, so a bad cluster size must not surface
		// only after minutes of wasted model solutions.
		if _, err := cluster.Preset(*cells); err != nil {
			return err
		}
	}

	start := time.Now()
	opts := experiments.Options{
		Fidelity:        experiments.Quick,
		Workers:         *workers,
		WithSimulation:  !*noSim,
		Tolerance:       *tol,
		Replications:    *reps,
		Precision:       *prec,
		Target:          targetMeasure,
		MinReplications: *minReps,
		MaxReplications: *maxReps,
		VR:              vr,
		SimSeed:         *seed,
		Cells:           *cells,
		Shards:          *shards,
	}
	if *partFlg != "" {
		spec, err := partition.ParseSpec(*partFlg)
		if err != nil {
			return fmt.Errorf("-partition: %w", err)
		}
		opts.Partition = spec
	}
	if *full {
		opts.Fidelity = experiments.Full
	}
	switch {
	case *scnFile != "":
		spec, err := scenario.Load(*scnFile)
		if err != nil {
			return err
		}
		opts.Scenario = &spec
	case *scnName != "":
		spec, err := scenario.Preset(*scnName)
		if err != nil {
			return err
		}
		opts.Scenario = &spec
	}
	if *trcFile != "" {
		// -trace replaces the temporal profile of whatever scenario the other
		// flags selected (the uniform baseline when they selected none), so a
		// measured arrival series can modulate any spatial shape.
		rows, err := scenario.LoadTraceCSV(*trcFile)
		if err != nil {
			return err
		}
		spec := scenario.Spec{Name: "trace"}
		if opts.Scenario != nil {
			spec = *opts.Scenario
		}
		spec.Temporal = scenario.Temporal{Kind: scenario.Trace, Rows: rows}
		if err := spec.Validate(); err != nil {
			return err
		}
		opts.Scenario = &spec
	}
	pol, err := resolvePolicyFlags(*polName, *guard, *hoQueue, *hoDead)
	if err != nil {
		return err
	}
	opts.Policy = pol
	switch {
	case *quiet:
		// No progress stream at all.
	case *pjson:
		opts.ProgressRecord = jsonProgress(os.Stderr, start)
	default:
		opts.Progress = func(msg string) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), msg)
		}
	}

	if *figure == "tables" || *figure == "all" {
		fmt.Print(experiments.TableBaseParameters().String())
		fmt.Println()
		fmt.Print(experiments.TableTrafficModels().String())
		fmt.Println()
		if *figure == "tables" {
			return nil
		}
	}

	figs, err := selectFigures(*figure, opts)
	if err != nil {
		return err
	}
	for _, fig := range figs {
		fmt.Print(experiments.FormatFigure(fig))
		fmt.Println()
	}
	paths, err := experiments.WriteAllCSV(figs, *outDir)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d CSV files to %s in %.1fs\n", len(paths), *outDir, time.Since(start).Seconds())
	return nil
}

// resolvePolicyFlags turns the -policy flag family into the policy override
// of experiments.Options. An empty -policy returns nil (the scenario's
// declaration, if any, stands) but rejects orphaned policy parameters;
// "none" returns a None-kind configuration, which the experiments layer
// treats as an explicit reset to the paper's default admission rule. The
// guard reservation is bounded against the channel plan per run
// (sim.Config.Validate), not here, where no plan exists yet.
func resolvePolicyFlags(name string, guard, queueCap int, deadline float64) (*policy.Config, error) {
	if name == "" {
		if guard != 0 || queueCap != 0 || deadline != 0 {
			return nil, fmt.Errorf("-guard/-ho-queue/-ho-deadline need -policy (known: %s)", strings.Join(policy.Names(), ", "))
		}
		return nil, nil
	}
	kind, err := policy.Parse(name)
	if err != nil {
		return nil, err
	}
	p := policy.Config{Kind: kind, Guard: guard, QueueCapacity: queueCap, QueueDeadlineSec: deadline}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return &p, nil
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

func selectFigures(name string, opts experiments.Options) ([]experiments.Figure, error) {
	single := func(fig experiments.Figure, err error) ([]experiments.Figure, error) {
		if err != nil {
			return nil, err
		}
		return []experiments.Figure{fig}, nil
	}
	switch strings.ToLower(name) {
	case "all":
		return experiments.AllFigures(opts)
	case "fig5":
		return single(experiments.Fig5ThresholdCalibration(opts))
	case "fig6":
		return experiments.Fig6Validation(opts)
	case "fig7":
		return experiments.Fig7CDT(opts)
	case "fig8":
		return experiments.Fig8PLP(opts)
	case "fig9":
		return experiments.Fig9QD(opts)
	case "fig10":
		return experiments.Fig10SessionLimit(opts)
	case "fig11":
		return experiments.Fig11TwoPercent(opts)
	case "fig12":
		return experiments.Fig12FivePercent(opts)
	case "fig13":
		return experiments.Fig13TenPercent(opts)
	case "fig14":
		return experiments.Fig14VoiceImpact(opts)
	case "fig15":
		return experiments.Fig15GPRSPopulation(opts)
	case "hotspot":
		return experiments.HotspotFigures(opts)
	default:
		return nil, fmt.Errorf("unknown figure %q (use all, tables, fig5 ... fig15, hotspot)", name)
	}
}
