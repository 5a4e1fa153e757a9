package sim

import (
	"fmt"
	"strings"

	"repro/internal/probe"
	"repro/internal/stats"
)

// Results reports the mid-cell measurements of one simulation run as
// batch-means confidence intervals, mirroring the performance measures of the
// analytical model (Section 4.2 of the paper).
type Results struct {
	// CarriedDataTraffic is the time-average number of PDCHs transmitting
	// data (CDT).
	CarriedDataTraffic stats.Interval
	// PacketLossProbability is the fraction of packets arriving at the BSC
	// that are dropped because the buffer is full (PLP).
	PacketLossProbability stats.Interval
	// QueueingDelay is the mean time a delivered packet spends in the BSC
	// buffer, in seconds (QD).
	QueueingDelay stats.Interval
	// ThroughputBits is the delivered data rate in bit/s.
	ThroughputBits stats.Interval
	// ThroughputPerUserBits is the delivered data rate per active GPRS
	// session in bit/s (ATU).
	ThroughputPerUserBits stats.Interval
	// AverageSessions is the time-average number of active GPRS sessions
	// (AGS).
	AverageSessions stats.Interval
	// CarriedVoiceTraffic is the time-average number of busy voice channels
	// (CVT).
	CarriedVoiceTraffic stats.Interval
	// GSMBlockingProbability is the fraction of fresh GSM calls blocked in
	// the mid cell.
	GSMBlockingProbability stats.Interval
	// GPRSBlockingProbability is the fraction of fresh GPRS session requests
	// blocked in the mid cell.
	GPRSBlockingProbability stats.Interval
	// MeanQueueLength is the time-average BSC buffer occupancy in packets.
	MeanQueueLength stats.Interval

	// CellCounters holds the mid cell's counter totals over the measurement
	// period, a copy of PerCell[cluster.MidCell].CellCounters. After the
	// runner's merge they are summed over the replications, so the promoted
	// ratio methods (LossProbability and the others) give a ratio of summed
	// counters, not the averaged interval of the same name.
	probe.CellCounters
	// TCP retransmission-timeout and fast-recovery totals of the whole run,
	// warm-up included, summed over every cell of the cluster.
	TCPTimeouts     int64
	TCPFastRecovers int64
	// SimulatedSec is the measurement period in simulated seconds; Events
	// counts every event the run processed, warm-up included.
	SimulatedSec float64
	Events       uint64

	// PerCell reports every cell of the cluster over the measurement period,
	// indexed by cell id. Under the paper's symmetric load all cells are
	// statistically identical and only the mid cell is of interest; under
	// heterogeneous scenarios (hotspot cells, load gradients — see
	// internal/scenario) the spatial shape of the response is the result.
	PerCell []CellMeasures

	// PerCellCI carries cross-replication confidence intervals over every
	// per-cell measure, indexed by cell id like PerCell. A single simulation
	// run cannot produce them (PerCell holds point estimates only), so this
	// field is nil on the Results of one run and is populated by the
	// replication runner's merge: each interval is a Student-t interval over
	// the per-replication values of one cell's measure (over antithetic pair
	// means or control-variate-adjusted values when the runner's variance
	// reduction is enabled).
	PerCellCI []CellIntervals
}

// CellMeasures summarizes one cell of the cluster over the whole measurement
// period. Unlike the mid-cell intervals of Results these are point estimates
// (time averages and ratios of totals); cross-replication confidence
// intervals over them come from the runner package.
type CellMeasures struct {
	// Cell is the cell id (cluster.MidCell is the measured mid cell).
	Cell int
	// CarriedDataTraffic is the time-average number of PDCHs transmitting
	// data in this cell.
	CarriedDataTraffic float64
	// MeanQueueLength is the time-average BSC buffer occupancy in packets.
	MeanQueueLength float64
	// CarriedVoiceTraffic is the time-average number of busy voice channels.
	CarriedVoiceTraffic float64
	// AverageSessions is the time-average number of active GPRS sessions.
	AverageSessions float64
	// PacketLossProbability is the fraction of packets offered to this cell's
	// BSC buffer that were dropped.
	PacketLossProbability float64
	// QueueingDelaySec is the mean buffer time of the packets this cell
	// delivered.
	QueueingDelaySec float64
	// ThroughputBits is the data rate this cell delivered in bit/s.
	ThroughputBits float64
	// GSMBlocking and GPRSBlocking are the fresh-arrival blocking fractions.
	GSMBlocking  float64
	GPRSBlocking float64

	// CellCounters holds the cell's counter totals over the measurement
	// period. After the runner's merge they are summed over the
	// replications, so the promoted ratio methods (LossProbability and the
	// others) give a ratio of summed counters, while the point-estimate
	// fields above hold the average of the per-replication values.
	probe.CellCounters
}

// CellIntervals carries cross-replication confidence intervals for the
// point-estimate measures of one cell's CellMeasures. It is produced by the
// replication runner's merge (see Results.PerCellCI); the counter totals of
// CellMeasures have no interval form and are summed instead.
type CellIntervals struct {
	// Cell is the cell id (cluster.MidCell is the measured mid cell).
	Cell int
	// CarriedDataTraffic is the interval over the per-replication
	// time-average PDCHs transmitting data in this cell.
	CarriedDataTraffic stats.Interval
	// MeanQueueLength is the interval over the time-average BSC buffer
	// occupancy in packets.
	MeanQueueLength stats.Interval
	// CarriedVoiceTraffic is the interval over the time-average busy voice
	// channels.
	CarriedVoiceTraffic stats.Interval
	// AverageSessions is the interval over the time-average active GPRS
	// sessions.
	AverageSessions stats.Interval
	// PacketLossProbability is the interval over the per-replication packet
	// loss fractions.
	PacketLossProbability stats.Interval
	// QueueingDelaySec is the interval over the per-replication mean buffer
	// times in seconds.
	QueueingDelaySec stats.Interval
	// ThroughputBits is the interval over the per-replication delivered data
	// rates in bit/s.
	ThroughputBits stats.Interval
	// GSMBlocking and GPRSBlocking are the intervals over the fresh-arrival
	// blocking fractions.
	GSMBlocking  stats.Interval
	GPRSBlocking stats.Interval
}

// String renders the results as a small table.
func (r Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mid-cell results over %.0f s (%d events)\n", r.SimulatedSec, r.Events)
	rows := []struct {
		name string
		iv   stats.Interval
	}{
		{"CDT (PDCHs)", r.CarriedDataTraffic},
		{"PLP", r.PacketLossProbability},
		{"QD (s)", r.QueueingDelay},
		{"throughput (bit/s)", r.ThroughputBits},
		{"ATU (bit/s)", r.ThroughputPerUserBits},
		{"AGS (sessions)", r.AverageSessions},
		{"CVT (channels)", r.CarriedVoiceTraffic},
		{"GSM blocking", r.GSMBlockingProbability},
		{"GPRS blocking", r.GPRSBlockingProbability},
		{"mean queue length", r.MeanQueueLength},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-20s %s\n", row.name, row.iv.String())
	}
	fmt.Fprintf(&b, "  offered=%d lost=%d delivered=%d handovers in/out=%d/%d tcp timeouts=%d fast recoveries=%d\n",
		r.PacketsOffered, r.PacketsLost, r.PacketsDelivered, r.HandoversIn, r.HandoversOut,
		r.TCPTimeouts, r.TCPFastRecovers)
	return b.String()
}

// batchAccumulator collects the per-batch observations of the mid cell and
// produces the batch-means intervals.
type batchAccumulator struct {
	level float64

	cdt        *stats.BatchMeans
	plp        *stats.BatchMeans
	qd         *stats.BatchMeans
	throughput *stats.BatchMeans
	atu        *stats.BatchMeans
	ags        *stats.BatchMeans
	cvt        *stats.BatchMeans
	gsmBlock   *stats.BatchMeans
	gprsBlock  *stats.BatchMeans
	queueLen   *stats.BatchMeans
}

func newBatchAccumulator(level float64) *batchAccumulator {
	mk := stats.NewBatchMeans
	return &batchAccumulator{
		level:      level,
		cdt:        mk(),
		plp:        mk(),
		qd:         mk(),
		throughput: mk(),
		atu:        mk(),
		ags:        mk(),
		cvt:        mk(),
		gsmBlock:   mk(),
		gprsBlock:  mk(),
		queueLen:   mk(),
	}
}

func (a *batchAccumulator) results() Results {
	return Results{
		CarriedDataTraffic:      a.cdt.ConfidenceInterval(a.level),
		PacketLossProbability:   a.plp.ConfidenceInterval(a.level),
		QueueingDelay:           a.qd.ConfidenceInterval(a.level),
		ThroughputBits:          a.throughput.ConfidenceInterval(a.level),
		ThroughputPerUserBits:   a.atu.ConfidenceInterval(a.level),
		AverageSessions:         a.ags.ConfidenceInterval(a.level),
		CarriedVoiceTraffic:     a.cvt.ConfidenceInterval(a.level),
		GSMBlockingProbability:  a.gsmBlock.ConfidenceInterval(a.level),
		GPRSBlockingProbability: a.gprsBlock.ConfidenceInterval(a.level),
		MeanQueueLength:         a.queueLen.ConfidenceInterval(a.level),
	}
}
