package sim

import (
	"repro/internal/cluster"
	"repro/internal/probe"
	"repro/internal/traffic"
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
	// keep its counter snapshot, so each cell — not only the mid cell — can
	// be reported over the measurement period. Resetting touches only the
	// time-weighted statistics, never the event flow, so mid-cell results are
	// unaffected by the extra bookkeeping.
	perStart := make([]cellSnapshot, len(cells))
	hoStart := make([]hoSnapshot, len(cells))
	for i, c := range cells {
		perStart[i] = c.resetBatchWindow(warmupEnd)
		hoStart[i] = c.handoverSnapshot()
	}
	snap := perStart[cluster.MidCell]
	warmStart := snap

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
		snap = mid.snapshot()
		cur := e.processedEvents()
		probe.Default.EventsProcessed.Add(cur - lastEvents)
		lastEvents = cur
	}

	res := acc.results()
	final := mid.snapshot()
	res.PacketsOffered = final.offered - warmStart.offered
	res.PacketsLost = final.lost - warmStart.lost
	res.PacketsDelivered = final.delivered - warmStart.delivered
	res.HandoversIn = mid.handoversIn - hoStart[cluster.MidCell].in
	res.HandoversOut = mid.handoversOut - hoStart[cluster.MidCell].out
	for _, c := range cells {
		res.TCPTimeouts += c.tcpTimeouts
		res.TCPFastRecovers += c.tcpFastRecovers
	}
	res.SimulatedSec = cfg.MeasurementSec
	res.Events = e.processedEvents()
	res.PerCell = perCellMeasures(cells, perStart, hoStart, end, cfg.MeasurementSec)

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
func perCellMeasures(cells []*cell, perStart []cellSnapshot,
	hoStart []hoSnapshot, end, measurementSec float64) []CellMeasures {
	out := make([]CellMeasures, len(cells))
	for i, c := range cells {
		cur := c.snapshot()
		m := CellMeasures{Cell: i}
		m.CarriedDataTraffic = c.pdchUsage.Mean(end)
		m.MeanQueueLength = c.queueLen.Mean(end)
		m.CarriedVoiceTraffic = c.voiceOcc.Mean(end)
		m.AverageSessions = c.sessOcc.Mean(end)
		m.PacketsOffered = cur.offered - perStart[i].offered
		m.PacketsLost = cur.lost - perStart[i].lost
		m.PacketsDelivered = cur.delivered - perStart[i].delivered
		ho := c.handoverSnapshot()
		m.HandoversIn = ho.in - hoStart[i].in
		m.HandoversOut = ho.out - hoStart[i].out
		m.VoiceHandoversOut = ho.voiceOut - hoStart[i].voiceOut
		m.SessionHandoversOut = ho.sessOut - hoStart[i].sessOut
		m.HandoverArrivals = ho.arrivals - hoStart[i].arrivals
		m.HandoverFailures = ho.failures - hoStart[i].failures
		m.GuardBlockedCalls = ho.guardBlocked - hoStart[i].guardBlocked
		m.HandoversQueued = ho.queued - hoStart[i].queued
		m.HandoverQueueServed = ho.served - hoStart[i].served
		m.HandoverQueueExpired = ho.expired - hoStart[i].expired
		m.HandoverRetries = ho.retries - hoStart[i].retries
		m.HandoverTransitEnds = ho.transitEnds - hoStart[i].transitEnds
		if m.PacketsOffered > 0 {
			m.PacketLossProbability = float64(m.PacketsLost) / float64(m.PacketsOffered)
		}
		if m.PacketsDelivered > 0 {
			m.QueueingDelaySec = (cur.delaySum - perStart[i].delaySum) / float64(m.PacketsDelivered)
		}
		m.ThroughputBits = float64(m.PacketsDelivered) * float64(traffic.PacketSizeBits) / measurementSec
		if gsmArr := cur.gsmArrivals - perStart[i].gsmArrivals; gsmArr > 0 {
			m.GSMBlocking = float64(cur.gsmBlocked-perStart[i].gsmBlocked) / float64(gsmArr)
		}
		if gprsArr := cur.gprsArrivals - perStart[i].gprsArrivals; gprsArr > 0 {
			m.GPRSBlocking = float64(cur.gprsBlocked-perStart[i].gprsBlocked) / float64(gprsArr)
		}
		out[i] = m
	}
	return out
}
