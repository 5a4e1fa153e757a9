// Command gprs-sim runs the detailed network-level GPRS simulator (hexagonal
// cluster, TDMA-block transmission, TCP flow control) and prints the mid-cell
// measures with 95% confidence intervals.
//
// The simulator flags it shares with gprs-experiments — replications,
// adaptive stopping and variance reduction, cluster size, sharding and
// partitioning, workload scenario, trace, admission policy and telemetry —
// are bound by cmd/internal/simflags (see the README's CLI reference). Here
// -cells defaults to the paper's seven-cell cluster and -replications to one
// run, which uses -seed directly and reports batch-means intervals; more
// replications report cross-replication intervals that are bit-identical for
// a given (seed, replications) pair regardless of -workers and -shards.
//
// -percell prints the per-cell report that makes a scenario's spatial
// response visible — including the handover-flow columns (HO in/out/fail),
// the signature of mobility scenarios, and, when a policy engaged, its
// counters (guard-blocked fresh calls, handovers queued/served/expired,
// retry forwards, calls that completed during the handover interruption) —
// with cross-replication confidence half-widths when more than one
// replication ran.
//
// -series arms the deterministic time-series probes (internal/probe) and
// writes one record per probe window and cell — queue depth, voice calls,
// sessions, cumulative packet/blocking/handover counters, and per-window PLP
// and throughput — without perturbing the simulation: results stay
// bit-identical with probes on or off. The format is JSONL when the path ends
// in .jsonl, CSV otherwise; -series-dt sets the window width in simulated
// seconds. Replicated runs emit the cross-replication merge (mean ± CI
// half-width per window and cell).
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
	"io"
	"os"
	"strings"

	"repro/cmd/internal/simflags"
	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gprs-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("gprs-sim", flag.ContinueOnError)
	shared := simflags.Register(fs)
	var (
		modelID = fs.Int("model", 3, "traffic model (1, 2, or 3)")
		rate    = fs.Float64("rate", 0.5, "total GSM+GPRS call arrival rate per cell (calls/s)")
		pdch    = fs.Int("pdch", 1, "number of PDCHs permanently reserved for GPRS")
		gprsPct = fs.Float64("gprs", 0.05, "fraction of arriving calls that are GPRS sessions")
		tcpOff  = fs.Bool("no-tcp", false, "disable TCP flow control (open-loop IPP sources)")
		warmup  = fs.Float64("warmup", 2000, "warm-up time discarded before measuring (s)")
		measure = fs.Float64("measure", 20000, "measured simulation time (s)")
		batches = fs.Int("batches", 10, "number of batch-means batches")
		perCell = fs.Bool("percell", false, "print the per-cell report after the mid-cell measures")
		series  = fs.String("series", "", "write per-window per-cell time series to this file (.jsonl = JSON lines, otherwise CSV)")
		serieDT = fs.Float64("series-dt", 10, "probe window width of -series in simulated seconds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	work, ro, err := shared.Bind()
	if err != nil {
		return err
	}
	if work.Cells == 0 {
		work.Cells = 7
	}
	if ro.Replications == 0 {
		ro.Replications = 1
	}

	cfg := sim.DefaultConfig(traffic.Model(*modelID), *rate)
	cfg.Channels.ReservedPDCH = *pdch
	cfg.GPRSFraction = *gprsPct
	cfg.EnableTCP = !*tcpOff
	cfg.WarmupSec = *warmup
	cfg.MeasurementSec = *measure
	cfg.Batches = *batches
	cfg.Seed = ro.BaseSeed
	if *series != "" {
		cfg.Probe = &probe.Spec{IntervalSec: *serieDT}
	}
	prof, err := work.Apply(&cfg)
	if err != nil {
		return err
	}
	if err := runner.Validate(cfg, ro); err != nil {
		return err
	}
	// Create the -series file before the run, so an unwritable path fails at
	// once; a run that fails later leaves no partial file behind.
	var seriesOut *os.File
	if *series != "" {
		if seriesOut, err = os.Create(*series); err != nil {
			return err
		}
		defer func() {
			if cerr := seriesOut.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				os.Remove(*series)
			}
		}()
	}
	jsonl := strings.HasSuffix(*series, ".jsonl")
	if err := shared.StartTelemetry(); err != nil {
		return err
	}
	scenarioLabel := "uniform (paper baseline)"
	if prof != nil {
		scenarioLabel = describeProfile(prof, cfg.Mobility)
	}
	policyLabel := "default admission (paper)"
	if cfg.Policy != nil {
		policyLabel = describePolicy(cfg.Policy)
	}

	repsLabel := fmt.Sprintf("%d replication(s)", ro.Replications)
	if ro.Precision > 0 {
		repsLabel = fmt.Sprintf("adaptive replications (%.3g relative half-width on %s)", ro.Precision, ro.Target)
	}
	fmt.Fprintf(stdout, "simulating %s, rate %.3g calls/s per cell, %d cells, %d reserved PDCHs, TCP %v, %s, scenario %s, policy %s...\n",
		traffic.Model(*modelID), *rate, work.Cells, *pdch, cfg.EnableTCP, repsLabel, scenarioLabel, policyLabel)

	if ro.Replications == 1 && ro.Precision == 0 && ro.VR == runner.VRNone {
		// A single run bypasses runner.Run deliberately: it uses cfg.Seed
		// directly (not the SeedFor substream of a base seed) and reports
		// batch-means intervals, matching the pre-replication-engine
		// behaviour of this command.
		res, ser, err := sim.RunOnceSeries(cfg, sim.ShardedOptions{Shards: ro.Shards})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.String())
		if *perCell {
			printPerCell(stdout, res.PerCell, nil)
		}
		if *series != "" {
			if err := writeRunSeries(seriesOut, jsonl, ser); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "series written to %s (%d windows of %gs)\n", *series, ser.Windows(), ser.IntervalSec)
		}
		return nil
	}

	ro.Progress = func(done, total int) {
		fmt.Fprintf(os.Stderr, "replication %d/%d done\n", done, total)
	}
	sum, err := runner.Run(cfg, ro)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, sum.String())
	if *perCell {
		printPerCell(stdout, sum.Merged.PerCell, sum.Merged.PerCellCI)
	}
	if *series != "" {
		if sum.Series == nil {
			return fmt.Errorf("series: replications produced no mergeable time series")
		}
		if err := writeMergedSeries(seriesOut, jsonl, sum.Series); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "merged series written to %s (%d windows of %gs, %d replications)\n",
			*series, len(sum.Series.Times), sum.Series.IntervalSec, sum.Series.Replications)
	}
	return nil
}

// writeRunSeries writes a single-run probe series to w as JSON lines or CSV.
func writeRunSeries(w io.Writer, jsonl bool, s *probe.Series) error {
	if jsonl {
		return probe.WriteJSONL(w, s)
	}
	return probe.WriteCSV(w, s)
}

// writeMergedSeries writes the cross-replication series merge to w as JSON
// lines or CSV.
func writeMergedSeries(w io.Writer, jsonl bool, s *runner.SeriesSummary) error {
	if jsonl {
		return runner.WriteSeriesJSONL(w, s)
	}
	return runner.WriteSeriesCSV(w, s)
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

// describeProfile labels a compiled scenario for the run header, including
// the dwell-multiplier range when the scenario shapes mobility.
func describeProfile(prof *scenario.Profile, mob sim.MobilityProfile) string {
	name := prof.Name()
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
func printPerCell(w io.Writer, cells []sim.CellMeasures, cis []sim.CellIntervals) {
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
		fmt.Fprintf(w, "per-cell measures:\n")
		fmt.Fprintf(w, "  %4s %8s %8s %8s %8s %10s %12s %8s %8s %8s%s\n",
			"cell", "CVT", "AGS", "CDT", "queue", "GSM block", "tput (bit/s)", "HO in", "HO out", "HO fail", policyHeader)
		for _, m := range cells {
			fmt.Fprintf(w, "  %4d %8.3f %8.3f %8.3f %8.3f %10.4f %12.0f %8d %8d %8d%s\n",
				m.Cell, m.CarriedVoiceTraffic, m.AverageSessions, m.CarriedDataTraffic,
				m.MeanQueueLength, m.GSMBlocking, m.ThroughputBits,
				m.HandoversIn, m.HandoversOut, m.HandoverFailures, policyRow(m))
		}
		return
	}
	fmt.Fprintf(w, "per-cell measures (± cross-replication CI half-width):\n")
	fmt.Fprintf(w, "  %4s %16s %16s %16s %16s %18s %20s %8s %8s %8s%s\n",
		"cell", "CVT", "AGS", "CDT", "queue", "GSM block", "tput (bit/s)", "HO in", "HO out", "HO fail", policyHeader)
	pm := func(v float64, iv stats.Interval) string {
		return fmt.Sprintf("%.3f ±%.3f", v, iv.HalfWidth)
	}
	for i, m := range cells {
		iv := cis[i]
		fmt.Fprintf(w, "  %4d %16s %16s %16s %16s %18s %20s %8d %8d %8d%s\n",
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
