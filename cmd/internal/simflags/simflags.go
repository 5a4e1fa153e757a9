// Package simflags binds the simulator flags that gprs-sim and
// gprs-experiments share: replication control, the workload (cluster,
// sharding, partition, scenario, trace, admission policy) and -telemetry.
// Register defines them on a command's flag set; Bind turns their values into
// a scenario.Workload and runner.Options once, and StartTelemetry serves
// -telemetry once the command's own checks have passed. Counts default to 0,
// meaning the command's own default.
package simflags

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Flags holds the shared flag values until Bind reads them.
type Flags struct {
	opts   runner.Options
	cells  int
	policy policy.Config

	vr, target, partition, scenario, scenarioFile, trace, policyName, telemetry string
}

// Register defines the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.opts.Replications, "replications", 0, "independent simulator replications to run and merge (0 = command default; ignored with -precision)")
	fs.IntVar(&f.opts.Workers, "workers", 0, "concurrent simulator runs and model solutions (0 = NumCPU); also sizes adaptive growth batches — pin it to reproduce -precision runs across machines")
	fs.Int64Var(&f.opts.BaseSeed, "seed", 1, "base random seed (replication substreams derive from it)")
	fs.Float64Var(&f.opts.Precision, "precision", 0, "adaptive stopping: relative CI half-width target for -target (0 = fixed -replications)")
	fs.IntVar(&f.opts.MinReplications, "min-reps", 0, "adaptive mode: replications in the first batch (0 = 4)")
	fs.IntVar(&f.opts.MaxReplications, "max-reps", 0, "adaptive mode: replication cap (0 = 64)")
	fs.StringVar(&f.vr, "vr", "none", "variance reduction: none, antithetic, control")
	fs.StringVar(&f.target, "target", "throughput", "measure watched by -precision: "+strings.Join(runner.MeasureNames(), ", "))
	fs.IntVar(&f.cells, "cells", 0, "cluster size, one of "+intsLabel(cluster.PresetSizes())+" (0 = command default; 7 is the paper's cluster, larger sizes are wrap-around hex rings)")
	fs.IntVar(&f.opts.Shards, "shards", 1, "cell groups advanced in parallel per replication (1 = one group)")
	fs.StringVar(&f.partition, "partition", "", "cell→group partitioning of -shards > 1 runs: kind[:groups] with kinds "+strings.Join(partition.Kinds(), ", ")+", or explicit JSON (default: locality, one group per shard); never affects results")
	fs.StringVar(&f.scenario, "scenario", "", "built-in workload scenario: "+strings.Join(scenario.Names(), ", "))
	fs.StringVar(&f.scenarioFile, "scenario-file", "", "JSON workload-scenario file (overrides -scenario)")
	fs.StringVar(&f.trace, "trace", "", "replay a measured arrival trace from this CSV file (header time_sec,{rate_per_s|arrivals}[,payload_bytes]); replaces the scenario's temporal profile")
	fs.StringVar(&f.policyName, "policy", "", "handover admission policy (overrides the scenario's): "+strings.Join(policy.Names(), ", "))
	fs.IntVar(&f.policy.Guard, "guard", 0, "voice channels reserved for handovers (-policy guard)")
	fs.IntVar(&f.policy.QueueCapacity, "ho-queue", 0, "per-cell handover queue capacity (-policy queue)")
	fs.Float64Var(&f.policy.QueueDeadlineSec, "ho-deadline", 0, "maximum wait of a queued handover in seconds (-policy queue)")
	fs.StringVar(&f.telemetry, "telemetry", "", "serve live pprof/expvar telemetry on this address (e.g. :6060) for the duration of the run")
	return f
}

// Bind turns the parsed flag values into the workload and replication
// options of a run, rejecting negative counts, unsupported cluster sizes,
// unknown names and orphaned policy parameters. Checks that need the channel
// plan (a guard reservation that
// leaves no channel for fresh calls) are left to runner.Validate on the
// configuration the workload is applied to.
func (f *Flags) Bind() (scenario.Workload, runner.Options, error) {
	w := scenario.Workload{Cells: f.cells}
	o := f.opts
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"replications", float64(o.Replications)},
		{"workers", float64(o.Workers)},
		{"shards", float64(o.Shards)},
		{"min-reps", float64(o.MinReplications)},
		{"max-reps", float64(o.MaxReplications)},
		{"precision", o.Precision},
	} {
		if c.v < 0 {
			return w, o, fmt.Errorf("-%s %g: must not be negative", c.name, c.v)
		}
	}
	if _, err := cluster.Preset(w.Cells); w.Cells != 0 && err != nil {
		return w, o, err
	}
	var err error
	if o.VR, err = runner.ParseVR(f.vr); err != nil {
		return w, o, err
	}
	if o.Target, err = runner.ParseMeasure(f.target); err != nil {
		return w, o, err
	}
	if f.partition != "" {
		if w.Partition, err = partition.ParseSpec(f.partition); err != nil {
			return w, o, fmt.Errorf("-partition: %w", err)
		}
	}
	if w.Spec, err = f.scenarioSpec(); err != nil {
		return w, o, err
	}
	if w.Policy, err = f.policyOverride(); err != nil {
		return w, o, err
	}
	return w, o, nil
}

// StartTelemetry serves -telemetry, when set, for the rest of the process.
// Commands call it after their own checks, so a rejected run binds no port.
func (f *Flags) StartTelemetry() error {
	if f.telemetry == "" {
		return nil
	}
	addr, err := probe.ServeTelemetry(f.telemetry)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	fmt.Fprintf(os.Stderr, "telemetry on http://%s/debug/pprof/ and /debug/vars\n", addr)
	return nil
}

// scenarioSpec resolves -scenario/-scenario-file/-trace into a scenario, nil
// when none is set. A -trace CSV replaces the temporal profile of whatever
// scenario the other flags selected (or rides on the uniform spatial baseline
// when it is the only one), so a measured arrival series can modulate any
// spatial shape.
func (f *Flags) scenarioSpec() (*scenario.Spec, error) {
	var spec scenario.Spec
	var err error
	switch {
	case f.scenarioFile != "":
		spec, err = scenario.Load(f.scenarioFile)
	case f.scenario != "":
		spec, err = scenario.Preset(f.scenario)
	case f.trace == "":
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if f.trace != "" {
		rows, err := scenario.LoadTraceCSV(f.trace)
		if err != nil {
			return nil, err
		}
		if spec.Name == "" {
			spec.Name = "trace"
		}
		spec.Temporal = scenario.Temporal{Kind: scenario.Trace, Rows: rows}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	return &spec, nil
}

// policyOverride resolves the -policy flag family. An empty -policy returns
// nil (the scenario's declaration, if any, stands) but rejects orphaned
// policy parameters; "none" returns the None kind, which
// scenario.Workload.Apply treats as a reset to the paper's default admission
// rule.
func (f *Flags) policyOverride() (*policy.Config, error) {
	p := f.policy
	if f.policyName == "" {
		if p != (policy.Config{}) {
			return nil, fmt.Errorf("-guard/-ho-queue/-ho-deadline need -policy (known: %s)", strings.Join(policy.Names(), ", "))
		}
		return nil, nil
	}
	var err error
	if p.Kind, err = policy.Parse(f.policyName); err != nil {
		return nil, err
	}
	if err := p.Validate(0); err != nil {
		return nil, err
	}
	return &p, nil
}

// intsLabel joins integer preset sizes into a "7, 19, 37, ..." flag label.
func intsLabel(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ", ")
}
