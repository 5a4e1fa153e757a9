// Allocation-budget pins for the steady-state event hot path. The tests are
// excluded from race builds: race instrumentation inserts allocations of its
// own, which would fail the budgets spuriously.
//
//go:build !race

package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/probe"
	"repro/internal/traffic"
)

// allocPinConfig is the steady-state workload of the allocation pins:
// uniform constant load, no time-varying profiles. tcpPath selects between
// the open-loop traffic model and the closed-loop TCP transfers — both are
// under the allocation-free contract: connection records, their per-segment
// bookkeeping slices, and the segment/ACK transit hops are pooled per cell
// like every other model record.
func allocPinConfig(cells int, tcpPath bool) Config {
	topo, err := cluster.Preset(cells)
	if err != nil {
		panic(err)
	}
	cfg := DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.EnableTCP = tcpPath
	cfg.Seed = 7
	return cfg
}

// measureAllocsPerEvent advances the engine repeatedly by the given window
// and reports (allocations per event, events per window). The first advance
// inside AllocsPerRun is a warm-up run, which tops the freelists up to the
// steady-state population before measurement starts.
func measureAllocsPerEvent(t *testing.T, advance func(to float64), processed func() uint64,
	start, window float64) (float64, float64) {
	t.Helper()
	const runs = 5
	now := start
	before := processed()
	perRun := testing.AllocsPerRun(runs, func() {
		now += window
		advance(now)
	})
	events := processed() - before
	if events == 0 {
		t.Fatal("degenerate steady state: no events processed")
	}
	eventsPerRun := float64(events) / (runs + 1) // AllocsPerRun adds one warm-up run
	return perRun / eventsPerRun, eventsPerRun
}

// TestSerialSteadyStateAllocs pins the tentpole contract on the one-group
// engine (New, every cell on one calendar): after warm-up, the event hot path performs (essentially) zero
// allocations per event — on the open-loop path and on the TCP path, which
// pools connection and transit records per cell. The epsilon tolerates
// freelist growth at new concurrent-population peaks (including a connection
// record's per-segment slices growing to a new largest transfer) — O(peak),
// not O(events).
func TestSerialSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tcpPath bool
	}{{"openloop", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(allocPinConfig(7, tc.tcpPath))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range s.cells {
				c.start()
			}
			advance := func(to float64) {
				if err := s.advanceTo(to); err != nil {
					t.Fatal(err)
				}
			}
			advance(2000) // reach steady state, grow every pool to its peak
			perEvent, eventsPerRun := measureAllocsPerEvent(t, advance, s.processedEvents, 2000, 500)
			if eventsPerRun < 1000 {
				t.Fatalf("only %.0f events per window; the pin would be vacuous", eventsPerRun)
			}
			if perEvent > 0.001 {
				t.Errorf("one-group hot path allocates %.5f allocs/event (%.0f events/window), want 0",
					perEvent, eventsPerRun)
			}
		})
	}
}

// pinEngine builds an allocation-pin engine: New for shards 0, otherwise
// NewSharded on that many workers. One worker gets the historic
// one-cell-per-group partition, so it still crosses the shard engine's
// windows, outbox buffering and barrier merge — on the calling goroutine,
// where the budget is exact.
func pinEngine(t *testing.T, cfg Config, shards int) *Sharded {
	t.Helper()
	var s *Sharded
	var err error
	switch shards {
	case 0:
		s, err = New(cfg)
	case 1:
		cfg.Partition = &partition.Spec{Kind: partition.KindIndexRange, Groups: cfg.Topology.NumCells()}
		fallthrough
	default:
		s, err = NewSharded(cfg, ShardedOptions{Shards: shards})
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestProbeArmedSteadyStateAllocs pins the observability contract of the
// probe layer: with the time-series probes armed — the sampler recording a
// window every 25 s from the model's own accumulators — the steady-state hot
// path must stay within the same (essentially zero) allocation budget as the
// unprobed engines. All series buffers are preallocated at arm time, so
// sampling appends within capacity. Checked on the one-group engine and on
// the 1-worker sharded engine.
func TestProbeArmedSteadyStateAllocs(t *testing.T) {
	const start, window = 2000.0, 500.0
	const final = start + 6*window // one warm-up run plus 5 measured runs
	for _, e := range []struct {
		name   string
		shards int
	}{{"one-group", 0}, {"sharded1", 1}} {
		cfg := allocPinConfig(7, false)
		cfg.Probe = &probe.Spec{IntervalSec: 25}
		s := pinEngine(t, cfg, e.shards)
		for _, c := range s.cells {
			c.start()
		}
		if err := advanceProbed(s, s.pstate, start); err != nil {
			t.Fatal(err)
		}
		s.pstate.arm(start, final)
		perEvent, eventsPerRun := measureAllocsPerEvent(t,
			func(to float64) {
				if err := advanceProbed(s, s.pstate, to); err != nil {
					t.Fatal(err)
				}
			},
			s.processedEvents, start, window)
		if eventsPerRun < 1000 {
			t.Fatalf("%s: only %.0f events per window; the pin would be vacuous", e.name, eventsPerRun)
		}
		if perEvent > 0.001 {
			t.Errorf("%s: probe-armed hot path allocates %.5f allocs/event (%.0f events/window), want 0",
				e.name, perEvent, eventsPerRun)
		}
		if got, want := s.pstate.series.Windows(), int(final-start)/25; got != want {
			t.Fatalf("%s: %d windows sampled, want %d", e.name, got, want)
		}
	}
}

// TestQueuedHandoverSteadyStateAllocs pins the allocation contract on the
// queued-handover policy path: the overloaded pin workload keeps every cell
// saturated, so handovers are parked, served, and expired continuously, and
// the queue entries must flow through the per-cell freelist (getQHO/putQHO)
// without per-event allocations — on the one-group engine and on both
// sharded layouts. The warm-up advance grows each cell's queue backing array and
// entry pool to its bounded peak (QueueCapacity) before measurement starts.
func TestQueuedHandoverSteadyStateAllocs(t *testing.T) {
	queuePolicy := &policy.Config{Kind: policy.QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: 5}
	for _, e := range []struct {
		name   string
		shards int
	}{{"one-group", 0}, {"sharded1", 1}, {"sharded4", 4}} {
		cfg := allocPinConfig(7, false)
		cfg.Policy = queuePolicy
		s := pinEngine(t, cfg, e.shards)
		for _, c := range s.cells {
			c.start()
		}
		advance := func(to float64) {
			if err := s.advanceTo(to); err != nil {
				t.Fatal(err)
			}
		}
		advance(2000)
		perEvent, eventsPerRun := measureAllocsPerEvent(t, advance, s.processedEvents, 2000, 500)
		if eventsPerRun < 1000 {
			t.Fatalf("%s: only %.0f events per window; the pin would be vacuous", e.name, eventsPerRun)
		}
		if perEvent > 0.001 {
			t.Errorf("%s: queued-handover hot path allocates %.5f allocs/event (%.0f events/window), want 0",
				e.name, perEvent, eventsPerRun)
		}
		var queued, served, expired int64
		for _, c := range s.cells {
			queued += c.counts.Queued
			served += c.counts.QueueServed
			expired += c.counts.QueueExpired
		}
		if queued == 0 || served == 0 || expired == 0 {
			t.Errorf("%s: queue path idle during the pin (queued %d, served %d, expired %d); the pin would be vacuous",
				e.name, queued, served, expired)
		}
	}
}

// TestShardedSteadyStateAllocs pins the same contract on the sharded engine.
// One worker exercises the full sharded machinery — conservative windows,
// outbox buffering, barrier merge, pooled transit records — on the calling
// goroutine, where the budget is exact; the 4-shard layout adds the worker
// fan-out, whose per-AdvanceTo setup (channels, goroutines) is amortized over
// the thousands of events each advance processes.
func TestShardedSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tcpPath bool
	}{{"openloop", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				s := pinEngine(t, allocPinConfig(7, tc.tcpPath), shards)
				for _, c := range s.cells {
					c.start()
				}
				advance := func(to float64) {
					if err := s.advanceTo(to); err != nil {
						t.Fatal(err)
					}
				}
				advance(2000)
				perEvent, eventsPerRun := measureAllocsPerEvent(t, advance, s.processedEvents, 2000, 500)
				if eventsPerRun < 1000 {
					t.Fatalf("%d shards: only %.0f events per window; the pin would be vacuous", shards, eventsPerRun)
				}
				if perEvent > 0.001 {
					t.Errorf("%d shards: sharded hot path allocates %.5f allocs/event (%.0f events/window), want 0",
						shards, perEvent, eventsPerRun)
				}
			}
		})
	}
}
