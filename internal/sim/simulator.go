package sim

import (
	"repro/internal/cluster"
	"repro/internal/probe"
)

// collectRun drives an engine through warm-up and the batched measurement
// period and assembles the mid-cell results.
func collectRun(e *Sharded) (Results, error) {
	cfg := &e.config
	cells := e.cells
	probe.Default.RunsStarted.Add(1)
	for _, c := range cells {
		c.start()
	}

	warmupEnd := cfg.WarmupSec
	if err := e.advanceTo(warmupEnd); err != nil {
		return Results{}, err
	}

	mid := cells[cluster.MidCell]
	acc := newBatchAccumulator(cfg.ConfidenceLevel)

	// Reset every cell's measurement window at the end of the warm-up and
	// keep a copy of its counters, so each cell — not only the mid cell — can
	// be reported over the measurement period. Resetting touches only the
	// time-weighted statistics, never the event flow, so mid-cell results are
	// unaffected by the extra bookkeeping.
	start := make([]probe.CellCounters, len(cells))
	for i, c := range cells {
		start[i] = c.resetBatchWindow(warmupEnd)
	}
	snap := start[cluster.MidCell]

	batchDur := cfg.MeasurementSec / float64(cfg.Batches)
	// Arm the probe (when configured) over the exact measurement span the
	// batch loop will cover: the final batch end below computes the same
	// float expression, so the probe's clamped last window coincides with the
	// terminal aggregates bit for bit.
	ps := e.pstate
	if ps != nil {
		ps.arm(warmupEnd, warmupEnd+float64(cfg.Batches)*batchDur)
	}
	// Publish wall-clock progress at coarse boundaries only (warm-up end and
	// batch ends), keeping the event hot path free of atomics.
	lastEvents := e.processedEvents()
	probe.Default.EventsProcessed.Add(lastEvents)
	end := warmupEnd
	snapInt := mid.gaugeIntegralsAt(warmupEnd)
	for b := 1; b <= cfg.Batches; b++ {
		end = warmupEnd + float64(b)*batchDur
		if err := advanceProbed(e, ps, end); err != nil {
			return Results{}, err
		}
		snapInt = mid.finishBatch(acc, snap, snapInt, end, batchDur)
		snap = mid.counts
		cur := e.processedEvents()
		probe.Default.EventsProcessed.Add(cur - lastEvents)
		lastEvents = cur
	}

	res := acc.results()
	res.PerCell = perCellMeasures(cells, start, end, cfg.MeasurementSec)
	res.CellCounters = res.PerCell[cluster.MidCell].CellCounters
	for _, c := range cells {
		res.TCPTimeouts += c.tcpTimeouts
		res.TCPFastRecovers += c.tcpFastRecovers
	}
	res.SimulatedSec = cfg.MeasurementSec
	res.Events = e.processedEvents()

	hits, misses, free := e.poolStats()
	probe.Default.PoolHits.Add(hits)
	probe.Default.PoolMisses.Add(misses)
	probe.Default.FreeEvents.Store(free)
	probe.Default.RunsCompleted.Add(1)
	return res, nil
}

// perCellMeasures assembles the per-cell report at the end of a run. Every
// cell — the mid cell included — reports its time-weighted statistics
// directly over the measurement window: windows are reset once, at the end of
// the warm-up, and batch boundaries and probe windows only read running
// integrals. The probe's final window reads the same accumulators at the same
// time with the non-mutating MeanAt, so it reproduces these gauge values bit
// for bit (pinned by TestSeriesMatchesPerCellAggregates).
func perCellMeasures(cells []*cell, start []probe.CellCounters, end, measurementSec float64) []CellMeasures {
	out := make([]CellMeasures, len(cells))
	for i, c := range cells {
		d := c.counts.Sub(start[i])
		out[i] = CellMeasures{
			Cell:                  i,
			CarriedDataTraffic:    c.pdchUsage.Mean(end),
			MeanQueueLength:       c.queueLen.Mean(end),
			CarriedVoiceTraffic:   c.voiceOcc.Mean(end),
			AverageSessions:       c.sessOcc.Mean(end),
			PacketLossProbability: d.LossProbability(),
			QueueingDelaySec:      d.QueueingDelay(),
			ThroughputBits:        d.Throughput(measurementSec),
			GSMBlocking:           d.GSMBlocking(),
			GPRSBlocking:          d.GPRSBlocking(),
			CellCounters:          d,
		}
	}
	return out
}
