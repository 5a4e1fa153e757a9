package sim

import "repro/internal/probe"

// probeState drives the sim-time series sampling of one run: window
// boundaries, per-cell counter baselines, and the recorded series. It is
// created at engine construction when Config.Probe is set and armed by
// collectRun at the end of the warm-up.
type probeState struct {
	spec   probe.Spec
	cells  []*cell
	series *probe.Series

	counts []cellSnapshot
	hos    []hoSnapshot

	startT, finalT float64
	armed, done    bool
	sampled        int
}

func newProbeState(spec probe.Spec, cells []*cell) *probeState {
	return &probeState{spec: spec, cells: cells}
}

// arm begins recording at the measurement start, right after the model's
// resetBatchWindow restarted every cell's gauges there: it snapshots every
// cell's cumulative counters as baselines and preallocates the full series so
// sampling never allocates. start and final must be the measurement-loop's
// exact warm-up end and final batch end.
func (ps *probeState) arm(start, final float64) {
	ps.startT, ps.finalT = start, final
	capacity := ps.spec.Windows(final - start)
	ps.series = probe.NewSeries(len(ps.cells), ps.spec.IntervalSec, start, capacity)
	ps.counts = make([]cellSnapshot, len(ps.cells))
	ps.hos = make([]hoSnapshot, len(ps.cells))
	for i, c := range ps.cells {
		ps.counts[i] = c.snapshot()
		ps.hos[i] = c.handoverSnapshot()
	}
	ps.armed = true
}

// nextBoundary returns the next window-end sample time, clamped to the
// measurement end, or ok=false once every window has been sampled (or the
// probe is not armed yet).
func (ps *probeState) nextBoundary() (t float64, ok bool) {
	if !ps.armed || ps.done {
		return 0, false
	}
	t = ps.startT + float64(ps.sampled+1)*ps.spec.IntervalSec
	if t >= ps.finalT {
		t = ps.finalT
	}
	return t, true
}

// sample records one window at time t (every cell's engine clock is at t).
// The windowed gauge means come from the model's own accumulators through the
// non-mutating MeanAt, which leaves their integrals untouched, so sampling
// cannot perturb the terminal aggregates (see the determinism contract of
// package probe). All appends land in preallocated capacity: the armed
// sampler path performs no allocations.
func (ps *probeState) sample(t float64) {
	s := ps.series
	s.Times = append(s.Times, t)
	for i, c := range ps.cells {
		cs := &s.Cells[i]
		base := &ps.counts[i]
		hbase := &ps.hos[i]
		cs.PacketsOffered = append(cs.PacketsOffered, c.packetsOffered-base.offered)
		cs.PacketsLost = append(cs.PacketsLost, c.packetsLost-base.lost)
		cs.PacketsDelivered = append(cs.PacketsDelivered, c.packetsDelivered-base.delivered)
		cs.DelaySumSec = append(cs.DelaySumSec, c.delaySum-base.delaySum)
		cs.GSMArrivals = append(cs.GSMArrivals, c.gsmArrivals-base.gsmArrivals)
		cs.GSMBlocked = append(cs.GSMBlocked, c.gsmBlocked-base.gsmBlocked)
		cs.GPRSArrivals = append(cs.GPRSArrivals, c.gprsArrivals-base.gprsArrivals)
		cs.GPRSBlocked = append(cs.GPRSBlocked, c.gprsBlocked-base.gprsBlocked)
		cs.HandoversIn = append(cs.HandoversIn, c.handoversIn-hbase.in)
		cs.HandoversOut = append(cs.HandoversOut, c.handoversOut-hbase.out)
		cs.HandoverArrivals = append(cs.HandoverArrivals, c.handoverArrivals-hbase.arrivals)
		cs.HandoverFailures = append(cs.HandoverFailures, c.handoverFailures-hbase.failures)
		cs.GuardBlocked = append(cs.GuardBlocked, c.guardBlockedCalls-hbase.guardBlocked)
		cs.Queued = append(cs.Queued, c.hoQueued-hbase.queued)
		cs.QueueServed = append(cs.QueueServed, c.hoQueueServed-hbase.served)
		cs.QueueExpired = append(cs.QueueExpired, c.hoQueueExpired-hbase.expired)
		cs.Retries = append(cs.Retries, c.hoRetries-hbase.retries)
		cs.TransitEnds = append(cs.TransitEnds, c.hoTransitEnds-hbase.transitEnds)
		cs.QueueLen = append(cs.QueueLen, c.queuedPackets())
		cs.VoiceCalls = append(cs.VoiceCalls, c.voiceCalls)
		cs.Sessions = append(cs.Sessions, c.sessions)
		cs.CarriedData = append(cs.CarriedData, c.pdchUsage.MeanAt(t))
		cs.MeanQueueLen = append(cs.MeanQueueLen, c.queueLen.MeanAt(t))
		cs.CarriedVoice = append(cs.CarriedVoice, c.voiceOcc.MeanAt(t))
		cs.AvgSessions = append(cs.AvgSessions, c.sessOcc.MeanAt(t))
	}
	ps.sampled++
	if t == ps.finalT {
		ps.done = true
	}
}

// advanceProbed advances the engine to time `to`, stopping at every pending
// probe window boundary on the way to sample the cells there. With a nil
// probe state this is exactly e.advanceTo(to). The extra intermediate
// advance targets repartition the engine's work without changing it: a
// single calendar pops the same total event order either way, and the shard
// engine's conservative windows deliver the same messages in the same
// deterministically merged order (pinned empirically by
// TestGoldenResultDigestsProbesArmed).
func advanceProbed(e *Sharded, ps *probeState, to float64) error {
	if ps == nil {
		return e.advanceTo(to)
	}
	for {
		t, ok := ps.nextBoundary()
		if !ok || t > to {
			break
		}
		if err := e.advanceTo(t); err != nil {
			return err
		}
		ps.sample(t)
	}
	return e.advanceTo(to)
}
