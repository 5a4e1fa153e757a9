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

	base []probe.CellCounters

	startT, finalT float64
	armed, done    bool
	sampled        int
}

func newProbeState(spec probe.Spec, cells []*cell) *probeState {
	return &probeState{spec: spec, cells: cells}
}

// arm begins recording at the measurement start, right after the model's
// resetBatchWindow restarted every cell's gauges there: it copies every
// cell's cumulative counters as baselines and preallocates the full series so
// sampling never allocates. start and final must be the measurement-loop's
// exact warm-up end and final batch end.
func (ps *probeState) arm(start, final float64) {
	ps.startT, ps.finalT = start, final
	capacity := ps.spec.Windows(final - start)
	ps.series = probe.NewSeries(len(ps.cells), ps.spec.IntervalSec, start, capacity)
	ps.base = make([]probe.CellCounters, len(ps.cells))
	for i, c := range ps.cells {
		ps.base[i] = c.counts
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
		cs.Samples = append(cs.Samples, probe.Sample{
			CellCounters: c.counts.Sub(ps.base[i]),
			QueueLen:     c.queuedPackets(),
			VoiceCalls:   c.voiceCalls,
			Sessions:     c.sessions,
			CarriedData:  c.pdchUsage.MeanAt(t),
			MeanQueueLen: c.queueLen.MeanAt(t),
			CarriedVoice: c.voiceOcc.MeanAt(t),
			AvgSessions:  c.sessOcc.MeanAt(t),
		})
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
