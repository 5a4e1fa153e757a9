// Command gprs-sim runs the detailed network-level GPRS simulator (hexagonal
// cluster, TDMA-block transmission, TCP flow control) and prints the mid-cell
// measures with 95% confidence intervals. With -replications R > 1 the run
// fans R independent replications (seeded from disjoint substreams of -seed)
// out across -workers CPUs and reports cross-replication intervals; the
// merged results are bit-identical for a given (seed, replications) pair
// regardless of the worker count. -cells selects the cluster size (7 is the
// paper's cluster; the larger presets up to city scale — 19, 37, 61, ...,
// 331 — are generated wrap-around hex rings) and -shards > 1 advances cell
// groups of each replication in parallel conservative time windows — again
// without changing the results. -partition pins the cell→group assignment
// (kind[:groups] — locality, index-range — or an explicit JSON spec); the
// default is the locality-aware grouping of internal/partition, and no
// partitioning ever changes the results.
//
// -scenario installs a built-in heterogeneous-load workload scenario
// (hotspot cells, load gradients, busy-hour ramps, highway corridors) and
// -scenario-file loads one from a JSON file. Scenarios can shape mobility as
// well as load: dwell-time multipliers per cell (fast vehicles on a highway
// corridor, slow pedestrians in a hotspot — presets highway and
// hotspot-pedestrian) skew the handover flow itself. One-group and sharded
// runs stay bit-identical under every scenario, and -percell prints the
// per-cell report that makes the spatial response visible — including the
// handover-flow columns (HO in/out/fail), the signature of mobility
// scenarios — with cross-replication confidence half-widths when more than
// one replication ran. -trace replays a measured arrival series from a CSV
// file (header time_sec,{rate_per_s|arrivals}[,payload_bytes]): the series is
// normalized to mean rate 1 and replaces the temporal profile of whatever
// scenario is selected, so empirical traffic can modulate any spatial shape.
//
// -policy selects the handover admission policy (internal/policy): "guard"
// reserves -guard voice channels for handovers, "queue" parks blocked voice
// handovers in a per-cell queue bounded by -ho-queue entries and -ho-deadline
// seconds, and "retry" forwards a failed handover once to the source cell's
// next neighbour. Scenarios can carry a policy of their own (presets
// hotspot-guard, hotspot-hoqueue, highway-retry); an explicit -policy
// overrides it, and -policy none restores the paper's default admission rule.
// When a policy engaged, -percell appends its counters — guard-blocked fresh
// calls, handovers queued/served/expired, retry forwards, and calls that
// completed during the handover interruption.
//
// -precision enables the adaptive stopping rule: instead of a fixed
// -replications count, replications are added in batches until the relative
// confidence half-width of the -target measure drops below the threshold,
// within [-min-reps, -max-reps]. -vr selects a variance-reduction scheme
// (antithetic replication pairs, or the Erlang-B control-variate estimator).
// See the README's "Statistical methodology" section for the estimators.
//
// -series arms the deterministic time-series probes (internal/probe) and
// writes one record per probe window and cell — queue depth, voice calls,
// sessions, cumulative packet/blocking/handover counters, and per-window PLP
// and throughput — without perturbing the simulation: results stay
// bit-identical with probes on or off. The format is JSONL when the path ends
// in .jsonl, CSV otherwise; -series-dt sets the window width in simulated
// seconds. Replicated runs emit the cross-replication merge (mean ± CI
// half-width per window and cell). -telemetry serves live pprof and expvar
// runtime metrics (events/sec, shard barrier waits, replication progress)
// over HTTP for the duration of the run.
//
// Examples:
//
//	gprs-sim -model 3 -rate 0.5 -pdch 1 -measure 20000
//	gprs-sim -rate 0.5 -replications 8 -workers 4
//	gprs-sim -rate 0.5 -precision 0.05 -max-reps 32
//	gprs-sim -rate 0.5 -precision 0.05 -vr antithetic
//	gprs-sim -rate 0.5 -cells 19 -shards 4
//	gprs-sim -rate 0.5 -cells 61 -shards 4 -partition locality:4
//	gprs-sim -rate 0.5 -cells 19 -scenario hotspot -percell
//	gprs-sim -rate 0.5 -cells 19 -scenario highway -percell
//	gprs-sim -rate 0.5 -scenario-file rush.json
//	gprs-sim -rate 0.5 -trace measured.csv -percell
//	gprs-sim -rate 0.5 -series out.csv -series-dt 10
//	gprs-sim -rate 0.5 -replications 8 -series merged.jsonl
//	gprs-sim -rate 0.5 -measure 100000 -telemetry :6060
package main

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
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gprs-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gprs-sim", flag.ContinueOnError)
	var (
		modelID = fs.Int("model", 3, "traffic model (1, 2, or 3)")
		rate    = fs.Float64("rate", 0.5, "total GSM+GPRS call arrival rate per cell (calls/s)")
		pdch    = fs.Int("pdch", 1, "number of PDCHs permanently reserved for GPRS")
		gprsPct = fs.Float64("gprs", 0.05, "fraction of arriving calls that are GPRS sessions")
		tcpOff  = fs.Bool("no-tcp", false, "disable TCP flow control (open-loop IPP sources)")
		warmup  = fs.Float64("warmup", 2000, "warm-up time discarded before measuring (s)")
		measure = fs.Float64("measure", 20000, "measured simulation time (s)")
		batches = fs.Int("batches", 10, "number of batch-means batches")
		seed    = fs.Int64("seed", 1, "base random seed")
		reps    = fs.Int("replications", 1, "independent replications to run and merge")
		workers = fs.Int("workers", 0, "concurrent replications (0 = NumCPU); also sizes adaptive growth batches — pin it to reproduce -precision runs across machines")
		cells   = fs.Int("cells", 7, "cluster size, one of "+intsLabel(cluster.PresetSizes())+" (7 is the paper's cluster, larger sizes are wrap-around hex rings)")
		shards  = fs.Int("shards", 1, "cell groups advanced in parallel per replication (1 = one group)")
		partFlg = fs.String("partition", "", "cell→group partitioning of -shards > 1 runs: kind[:groups] with kinds "+strings.Join(partition.Kinds(), ", ")+", or explicit JSON (default: locality, one group per shard); never affects results")
		scnName = fs.String("scenario", "", "built-in workload scenario: "+strings.Join(scenario.Names(), ", "))
		scnFile = fs.String("scenario-file", "", "JSON workload-scenario file (overrides -scenario)")
		trcFile = fs.String("trace", "", "replay a measured arrival trace from this CSV file (header time_sec,{rate_per_s|arrivals}[,payload_bytes]); replaces the scenario's temporal profile")
		polName = fs.String("policy", "", "handover admission policy (overrides the scenario's): "+strings.Join(policy.Names(), ", "))
		guard   = fs.Int("guard", 0, "voice channels reserved for handovers (-policy guard)")
		hoQueue = fs.Int("ho-queue", 0, "per-cell handover queue capacity (-policy queue)")
		hoDead  = fs.Float64("ho-deadline", 0, "maximum wait of a queued handover in seconds (-policy queue)")
		perCell = fs.Bool("percell", false, "print the per-cell report after the mid-cell measures")
		prec    = fs.Float64("precision", 0, "adaptive stopping: relative CI half-width target for -target (0 = fixed -replications)")
		minReps = fs.Int("min-reps", 0, "adaptive mode: replications in the first batch (0 = 4)")
		maxReps = fs.Int("max-reps", 0, "adaptive mode: replication cap (0 = 64)")
		vrName  = fs.String("vr", "none", "variance reduction: none, antithetic, control")
		target  = fs.String("target", "throughput", "measure watched by -precision: "+strings.Join(runner.MeasureNames(), ", "))
		series  = fs.String("series", "", "write per-window per-cell time series to this file (.jsonl = JSON lines, otherwise CSV)")
		serieDT = fs.Float64("series-dt", 10, "probe window width of -series in simulated seconds")
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

	topo, err := cluster.Preset(*cells)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(traffic.Model(*modelID), *rate)
	cfg.Topology = topo
	cfg.Channels.ReservedPDCH = *pdch
	cfg.GPRSFraction = *gprsPct
	cfg.EnableTCP = !*tcpOff
	cfg.WarmupSec = *warmup
	cfg.MeasurementSec = *measure
	cfg.Batches = *batches
	cfg.Seed = *seed
	if *series != "" {
		cfg.Probe = &probe.Spec{IntervalSec: *serieDT}
	}
	if *partFlg != "" {
		spec, err := partition.ParseSpec(*partFlg)
		if err != nil {
			return fmt.Errorf("-partition: %w", err)
		}
		cfg.Partition = spec
	}

	scenarioLabel := "uniform (paper baseline)"
	if spec, ok, err := resolveScenario(*scnName, *scnFile, *trcFile); err != nil {
		return err
	} else if ok {
		prof, err := scenario.Apply(&cfg, spec)
		if err != nil {
			return err
		}
		scenarioLabel = describeProfile(spec, prof, cfg.Mobility)
	}
	if err := applyPolicyFlags(&cfg, *polName, *guard, *hoQueue, *hoDead); err != nil {
		return err
	}
	policyLabel := "default admission (paper)"
	if cfg.Policy != nil {
		policyLabel = describePolicy(cfg.Policy)
	}

	if *reps < 1 {
		*reps = 1
	}
	repsLabel := fmt.Sprintf("%d replication(s)", *reps)
	if *prec > 0 {
		repsLabel = fmt.Sprintf("adaptive replications (%.3g relative half-width on %s)", *prec, targetMeasure)
	}
	fmt.Printf("simulating %s, rate %.3g calls/s per cell, %d cells, %d reserved PDCHs, TCP %v, %s, scenario %s, policy %s...\n",
		traffic.Model(*modelID), *rate, *cells, *pdch, cfg.EnableTCP, repsLabel, scenarioLabel, policyLabel)

	if *reps <= 1 && *prec <= 0 && vr == runner.VRNone {
		// A single run bypasses runner.Run deliberately: it uses cfg.Seed
		// directly (not the SeedFor substream of a base seed) and reports
		// batch-means intervals, matching the pre-replication-engine
		// behaviour of this command.
		res, ser, err := sim.RunOnceSeries(cfg, sim.ShardedOptions{Shards: *shards})
		if err != nil {
			return err
		}
		fmt.Print(res.String())
		if *perCell {
			printPerCell(res.PerCell, nil)
		}
		if *series != "" {
			if err := writeRunSeries(*series, ser); err != nil {
				return err
			}
			fmt.Printf("series written to %s (%d windows of %gs)\n", *series, ser.Windows(), ser.IntervalSec)
		}
		return nil
	}

	sum, err := runner.Run(cfg, runner.Options{
		Replications:    *reps,
		Workers:         *workers,
		BaseSeed:        *seed,
		Shards:          *shards,
		Precision:       *prec,
		Target:          targetMeasure,
		MinReplications: *minReps,
		MaxReplications: *maxReps,
		VR:              vr,
		Progress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "replication %d/%d done\n", done, total)
		},
	})
	if err != nil {
		return err
	}
	fmt.Print(sum.String())
	if *perCell {
		printPerCell(sum.Merged.PerCell, sum.Merged.PerCellCI)
	}
	if *series != "" {
		if sum.Series == nil {
			return fmt.Errorf("series: replications produced no mergeable time series")
		}
		if err := writeMergedSeries(*series, sum.Series); err != nil {
			return err
		}
		fmt.Printf("merged series written to %s (%d windows of %gs, %d replications)\n",
			*series, len(sum.Series.Times), sum.Series.IntervalSec, sum.Series.Replications)
	}
	return nil
}

// intsLabel joins integer preset sizes into a "7, 19, 37, ..." flag label.
func intsLabel(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ", ")
}

// writeRunSeries writes a single-run probe series to path: JSON lines when
// the path ends in .jsonl, CSV otherwise.
func writeRunSeries(path string, s *probe.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = probe.WriteJSONL(f, s)
	} else {
		err = probe.WriteCSV(f, s)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeMergedSeries writes the cross-replication series merge to path: JSON
// lines when the path ends in .jsonl, CSV otherwise.
func writeMergedSeries(path string, s *runner.SeriesSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = runner.WriteSeriesJSONL(f, s)
	} else {
		err = runner.WriteSeriesCSV(f, s)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// applyPolicyFlags installs the -policy flag family on the configuration. An
// empty -policy leaves whatever the scenario installed (or the paper's
// default) untouched, but rejects orphaned policy parameters; "none"
// explicitly restores the default admission rule. Parameter-mixing errors
// (a -guard with -policy queue, say) surface here, before the run starts.
func applyPolicyFlags(cfg *sim.Config, name string, guard, queueCap int, deadline float64) error {
	if name == "" {
		if guard != 0 || queueCap != 0 || deadline != 0 {
			return fmt.Errorf("-guard/-ho-queue/-ho-deadline need -policy (known: %s)", strings.Join(policy.Names(), ", "))
		}
		return nil
	}
	kind, err := policy.Parse(name)
	if err != nil {
		return err
	}
	p := policy.Config{Kind: kind, Guard: guard, QueueCapacity: queueCap, QueueDeadlineSec: deadline}
	if err := p.Validate(cfg.Channels.GSMChannels()); err != nil {
		return err
	}
	cfg.Policy = nil
	if kind != policy.None {
		cfg.Policy = &p
	}
	return nil
}

// describePolicy labels the installed policy for the run header.
func describePolicy(p *policy.Config) string {
	switch p.Kind {
	case policy.GuardChannels:
		return fmt.Sprintf("guard (%d reserved)", p.Guard)
	case policy.QueuedHandovers:
		return fmt.Sprintf("queue (capacity %d, deadline %gs)", p.QueueCapacity, p.QueueDeadlineSec)
	case policy.DirectedRetry:
		return "retry (one forward)"
	default:
		return p.Kind.String()
	}
}

// resolveScenario turns the -scenario/-scenario-file/-trace flags into a
// scenario spec; ok is false when none is set. A -trace CSV replaces the
// temporal profile of whatever scenario the other flags selected (or rides on
// the uniform spatial baseline when it is the only flag), so a measured
// arrival series can modulate any spatial shape.
func resolveScenario(name, file, trace string) (spec scenario.Spec, ok bool, err error) {
	switch {
	case file != "":
		spec, err = scenario.Load(file)
	case name != "":
		spec, err = scenario.Preset(name)
	case trace == "":
		return scenario.Spec{}, false, nil
	}
	if err != nil {
		return spec, false, err
	}
	if trace != "" {
		rows, err := scenario.LoadTraceCSV(trace)
		if err != nil {
			return spec, false, err
		}
		if spec.Name == "" {
			spec.Name = "trace"
		}
		spec.Temporal = scenario.Temporal{Kind: scenario.Trace, Rows: rows}
		if err := spec.Validate(); err != nil {
			return spec, false, err
		}
	}
	return spec, true, nil
}

// describeProfile labels a compiled scenario for the run header, including
// the dwell-multiplier range when the scenario shapes mobility.
func describeProfile(spec scenario.Spec, prof *scenario.Profile, mob sim.MobilityProfile) string {
	name := spec.Name
	if name == "" {
		name = "custom"
	}
	lo, hi := weightRange(prof.Weights())
	label := fmt.Sprintf("%q (cell weights %.3g..%.3g)", name, lo, hi)
	if dp, ok := mob.(*scenario.DwellProfile); ok && dp != nil {
		mlo, mhi := weightRange(dp.Weights())
		label += fmt.Sprintf(", dwell multipliers %.3g..%.3g", mlo, mhi)
	}
	return label
}

// weightRange returns the smallest and largest entry of a weight vector.
func weightRange(weights []float64) (lo, hi float64) {
	lo, hi = weights[0], weights[0]
	for _, w := range weights {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	return lo, hi
}

// printPerCell renders the per-cell report as a small table. When the
// cross-replication intervals are available (replicated runs; see
// sim.Results.PerCellCI), every point estimate carries its confidence
// half-width; a single run prints bare point estimates.
func printPerCell(cells []sim.CellMeasures, cis []sim.CellIntervals) {
	// policyActive gates the six admission-policy columns: under the paper's
	// default policy they are identically zero and would only widen the table.
	policyActive := false
	for _, m := range cells {
		if m.GuardBlockedCalls != 0 || m.HandoversQueued != 0 || m.HandoverQueueServed != 0 ||
			m.HandoverQueueExpired != 0 || m.HandoverRetries != 0 || m.HandoverTransitEnds != 0 {
			policyActive = true
			break
		}
	}
	policyHeader, policyRow := "", func(sim.CellMeasures) string { return "" }
	if policyActive {
		policyHeader = fmt.Sprintf(" %9s %8s %8s %8s %8s %8s",
			"guard blk", "HO qd", "HO srv", "HO exp", "HO rty", "HO end")
		policyRow = func(m sim.CellMeasures) string {
			return fmt.Sprintf(" %9d %8d %8d %8d %8d %8d",
				m.GuardBlockedCalls, m.HandoversQueued, m.HandoverQueueServed,
				m.HandoverQueueExpired, m.HandoverRetries, m.HandoverTransitEnds)
		}
	}
	if len(cis) != len(cells) {
		fmt.Printf("per-cell measures:\n")
		fmt.Printf("  %4s %8s %8s %8s %8s %10s %12s %8s %8s %8s%s\n",
			"cell", "CVT", "AGS", "CDT", "queue", "GSM block", "tput (bit/s)", "HO in", "HO out", "HO fail", policyHeader)
		for _, m := range cells {
			fmt.Printf("  %4d %8.3f %8.3f %8.3f %8.3f %10.4f %12.0f %8d %8d %8d%s\n",
				m.Cell, m.CarriedVoiceTraffic, m.AverageSessions, m.CarriedDataTraffic,
				m.MeanQueueLength, m.GSMBlocking, m.ThroughputBits,
				m.HandoversIn, m.HandoversOut, m.HandoverFailures, policyRow(m))
		}
		return
	}
	fmt.Printf("per-cell measures (± cross-replication CI half-width):\n")
	fmt.Printf("  %4s %16s %16s %16s %16s %18s %20s %8s %8s %8s%s\n",
		"cell", "CVT", "AGS", "CDT", "queue", "GSM block", "tput (bit/s)", "HO in", "HO out", "HO fail", policyHeader)
	pm := func(v float64, iv stats.Interval) string {
		return fmt.Sprintf("%.3f ±%.3f", v, iv.HalfWidth)
	}
	for i, m := range cells {
		iv := cis[i]
		fmt.Printf("  %4d %16s %16s %16s %16s %18s %20s %8d %8d %8d%s\n",
			m.Cell,
			pm(m.CarriedVoiceTraffic, iv.CarriedVoiceTraffic),
			pm(m.AverageSessions, iv.AverageSessions),
			pm(m.CarriedDataTraffic, iv.CarriedDataTraffic),
			pm(m.MeanQueueLength, iv.MeanQueueLength),
			fmt.Sprintf("%.4f ±%.4f", m.GSMBlocking, iv.GSMBlocking.HalfWidth),
			fmt.Sprintf("%.0f ±%.0f", m.ThroughputBits, iv.ThroughputBits.HalfWidth),
			m.HandoversIn, m.HandoversOut, m.HandoverFailures, policyRow(m))
	}
}
