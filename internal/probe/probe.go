// Package probe is the in-run instrumentation layer of the repository: it
// defines the deterministic sim-time series the engines can record while a
// run is in flight (Spec, Series), the wall-clock runtime metrics every
// layer publishes through atomic counters (Runtime), and the live telemetry
// endpoint serving net/http/pprof and expvar snapshots (ServeTelemetry).
//
// # Determinism contract
//
// Arming a probe must never change a single bit of any simulation result.
// Three mechanisms combine to guarantee this, mirroring the engine
// contracts of internal/shard and internal/des:
//
//   - No model events, no model draws: sampling schedules nothing on any
//     event calendar and draws nothing from any random variate stream. The
//     measurement loop of internal/sim advances the engines to the probe
//     window boundaries between batch boundaries — a pure repartitioning of
//     the advance targets, which every grouping executes identically (a
//     single calendar pops the same total order either way; the shard
//     engine's conservative windows deliver the same messages in the same
//     merged order).
//
//   - Read-only gauges: the windowed time averages come from the model's
//     own per-cell time-weighted statistics through the non-mutating
//     stats.TimeWeighted.MeanAt, which leaves their integrals and clocks
//     untouched, so the terminal aggregates perform exactly the float
//     accumulation steps of an unprobed run (Mean would advance the
//     integral mid-run and change them by ulps).
//
//   - Out-of-band results: the recorded Series travels next to sim.Results,
//     never inside it, so golden result digests are bit-identical with
//     probes armed or disarmed. TestGoldenResultDigestsProbesArmed pins
//     this for every scenario preset on one group and on four shards.
//
// The armed sampler path is allocation-free: every series buffer is
// preallocated to its full window capacity when the probe is armed (once per
// run), and sampling appends into that capacity. The allocation pins of
// internal/sim hold the armed path to the same <= 0.001 allocs/event budget
// as the bare engines.
package probe

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidSpec is returned for malformed probe specifications.
var ErrInvalidSpec = errors.New("probe: invalid spec")

// maxWindows bounds the preallocated series capacity per run; a spec whose
// interval would produce more windows is rejected at validation time rather
// than silently truncated or allowed to exhaust memory.
const maxWindows = 1 << 20

// Spec configures the sim-time series probe of one run: the engines sample
// every cell at fixed sim-time window boundaries of IntervalSec, recording
// counters cumulative since the measurement start plus instantaneous and
// time-averaged gauges. The final window is clamped to the measurement end,
// so the last sample always coincides with the terminal aggregates.
type Spec struct {
	// IntervalSec is the sampling window length in simulated seconds. It
	// must be positive and finite.
	IntervalSec float64
}

// Validate reports whether the spec is well formed for a run measuring
// measurementSec simulated seconds.
func (s Spec) Validate(measurementSec float64) error {
	if s.IntervalSec <= 0 || math.IsNaN(s.IntervalSec) || math.IsInf(s.IntervalSec, 0) {
		return fmt.Errorf("%w: interval %v s", ErrInvalidSpec, s.IntervalSec)
	}
	if measurementSec > 0 && measurementSec/s.IntervalSec > maxWindows {
		return fmt.Errorf("%w: interval %v s over %v s yields more than %d windows",
			ErrInvalidSpec, s.IntervalSec, measurementSec, maxWindows)
	}
	return nil
}

// Windows returns the preallocation capacity for a run measuring
// measurementSec simulated seconds: the regular windows plus one clamped
// final window.
func (s Spec) Windows(measurementSec float64) int {
	return int(measurementSec/s.IntervalSec) + 2
}

// Series is the recorded sim-time series of one run: one sample per window
// boundary, for every cell of the cluster. Counters are cumulative since the
// measurement start (per-window deltas telescope exactly back to the
// terminal totals); the time-averaged gauges are cumulative means over
// [StartSec, Times[k]], so the final sample of every counter and (non-mid)
// gauge reproduces the corresponding terminal PerCell aggregate bit for bit.
type Series struct {
	// IntervalSec is the nominal window length the series was sampled at.
	IntervalSec float64
	// StartSec is the measurement start (end of the warm-up) in simulated
	// seconds; the first window covers [StartSec, Times[0]].
	StartSec float64
	// Times holds the window-end sample times in simulated seconds. The last
	// entry is the measurement end exactly.
	Times []float64
	// Cells holds one series per cell, indexed by cell id.
	Cells []CellSeries
}

// Windows returns the number of recorded windows.
func (s *Series) Windows() int { return len(s.Times) }

// CellSeries is the per-cell slice of a Series: every field is indexed like
// Series.Times. Counter fields are cumulative since the measurement start;
// QueueLen, VoiceCalls and Sessions are instantaneous values at the window
// end; the four mean gauges are cumulative time-weighted averages over
// [Series.StartSec, window end].
type CellSeries struct {
	// Cell is the cell id.
	Cell int

	// PacketsOffered, PacketsLost and PacketsDelivered are the cumulative
	// BSC buffer counters.
	PacketsOffered, PacketsLost, PacketsDelivered []int64
	// DelaySumSec is the cumulative queueing delay of delivered packets.
	DelaySumSec []float64
	// GSMArrivals, GSMBlocked, GPRSArrivals and GPRSBlocked are the
	// cumulative fresh-arrival and blocking counters.
	GSMArrivals, GSMBlocked, GPRSArrivals, GPRSBlocked []int64
	// HandoversIn, HandoversOut, HandoverArrivals and HandoverFailures are
	// the cumulative handover-flow counters.
	HandoversIn, HandoversOut, HandoverArrivals, HandoverFailures []int64
	// GuardBlocked, Queued, QueueServed, QueueExpired, Retries and
	// TransitEnds are the cumulative admission-policy counters (see
	// sim.CellMeasures: GuardBlockedCalls, HandoversQueued,
	// HandoverQueueServed, HandoverQueueExpired, HandoverRetries,
	// HandoverTransitEnds).
	GuardBlocked, Queued, QueueServed, QueueExpired, Retries, TransitEnds []int64

	// QueueLen, VoiceCalls and Sessions are instantaneous occupancy gauges
	// at the window end.
	QueueLen, VoiceCalls, Sessions []int

	// CarriedData, MeanQueueLen, CarriedVoice and AvgSessions are the
	// cumulative time-weighted means of PDCH usage, buffer occupancy, busy
	// voice channels and active sessions.
	CarriedData, MeanQueueLen, CarriedVoice, AvgSessions []float64
}

// NewSeries allocates a series for the given cell count with every buffer
// preallocated to capacity windows, so recording samples never allocates.
func NewSeries(cells int, intervalSec, startSec float64, capacity int) *Series {
	s := &Series{
		IntervalSec: intervalSec,
		StartSec:    startSec,
		Times:       make([]float64, 0, capacity),
		Cells:       make([]CellSeries, cells),
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		c.Cell = i
		c.PacketsOffered = make([]int64, 0, capacity)
		c.PacketsLost = make([]int64, 0, capacity)
		c.PacketsDelivered = make([]int64, 0, capacity)
		c.DelaySumSec = make([]float64, 0, capacity)
		c.GSMArrivals = make([]int64, 0, capacity)
		c.GSMBlocked = make([]int64, 0, capacity)
		c.GPRSArrivals = make([]int64, 0, capacity)
		c.GPRSBlocked = make([]int64, 0, capacity)
		c.HandoversIn = make([]int64, 0, capacity)
		c.HandoversOut = make([]int64, 0, capacity)
		c.HandoverArrivals = make([]int64, 0, capacity)
		c.HandoverFailures = make([]int64, 0, capacity)
		c.GuardBlocked = make([]int64, 0, capacity)
		c.Queued = make([]int64, 0, capacity)
		c.QueueServed = make([]int64, 0, capacity)
		c.QueueExpired = make([]int64, 0, capacity)
		c.Retries = make([]int64, 0, capacity)
		c.TransitEnds = make([]int64, 0, capacity)
		c.QueueLen = make([]int, 0, capacity)
		c.VoiceCalls = make([]int, 0, capacity)
		c.Sessions = make([]int, 0, capacity)
		c.CarriedData = make([]float64, 0, capacity)
		c.MeanQueueLen = make([]float64, 0, capacity)
		c.CarriedVoice = make([]float64, 0, capacity)
		c.AvgSessions = make([]float64, 0, capacity)
	}
	return s
}
