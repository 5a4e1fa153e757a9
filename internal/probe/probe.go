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
// # One counter record
//
// CellCounters declares the per-cell flow counters once. The simulator's
// cells each hold one value of it; warm-up, batch and probe baselines are
// plain copies; Sub differences two copies and the ratio methods derive
// loss probability, queueing delay, throughput and blocking from a span. A
// Sample is the record plus the seven occupancy gauges, a CellSeries is one
// cell's preallocated []Sample, and Series.Window gives the per-window deltas
// that the exporters here and the cross-replication merge of internal/runner
// both use. The JSON tags of the record are the export column names.
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

// Window returns the counter deltas of cell over window k — the difference
// of its cumulative samples at k and k-1, or the sample itself for the first
// window — together with the window length in simulated seconds.
func (s *Series) Window(cell, k int) (delta CellCounters, dt float64) {
	samples := s.Cells[cell].Samples
	delta, start := samples[k].CellCounters, s.StartSec
	if k > 0 {
		delta, start = delta.Sub(samples[k-1].CellCounters), s.Times[k-1]
	}
	return delta, s.Times[k] - start
}

// CellSeries is the per-cell slice of a Series: Samples is indexed like
// Series.Times.
type CellSeries struct {
	// Cell is the cell id.
	Cell int
	// Samples holds one sample per window end.
	Samples []Sample
}

// Sample is one cell's probe reading at a window end: the flow counters
// cumulative since the measurement start, the instantaneous occupancy gauges
// at the window end, and the cumulative time-weighted means over
// [Series.StartSec, window end]. The JSON tags are the column names of the
// series exports (see CSVHeader).
type Sample struct {
	CellCounters

	// QueueLen, VoiceCalls and Sessions are instantaneous occupancy gauges
	// at the window end.
	QueueLen   int `json:"queue_len"`
	VoiceCalls int `json:"voice_calls"`
	Sessions   int `json:"sessions"`

	// CarriedData, MeanQueueLen, CarriedVoice and AvgSessions are the
	// cumulative time-weighted means of PDCH usage, buffer occupancy, busy
	// voice channels and active sessions.
	CarriedData  float64 `json:"carried_data_cum"`
	MeanQueueLen float64 `json:"mean_queue_cum"`
	CarriedVoice float64 `json:"carried_voice_cum"`
	AvgSessions  float64 `json:"avg_sessions_cum"`
}

// NewSeries allocates a series for the given cell count with every sample
// buffer preallocated to capacity windows, so recording samples never
// allocates.
func NewSeries(cells int, intervalSec, startSec float64, capacity int) *Series {
	s := &Series{
		IntervalSec: intervalSec,
		StartSec:    startSec,
		Times:       make([]float64, 0, capacity),
		Cells:       make([]CellSeries, cells),
	}
	for i := range s.Cells {
		s.Cells[i] = CellSeries{Cell: i, Samples: make([]Sample, 0, capacity)}
	}
	return s
}
