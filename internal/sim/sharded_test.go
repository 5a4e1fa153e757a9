package sim

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/partition"
)

// shardedQuickConfig returns a short run of the scaled-down cell on the given
// preset cluster size.
func shardedQuickConfig(t *testing.T, cells int) Config {
	t.Helper()
	topo, err := cluster.Preset(cells)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(true)
	cfg.Topology = topo
	cfg.MeasurementSec = 600
	return cfg
}

func runSharded(t *testing.T, cfg Config, opt ShardedOptions) Results {
	t.Helper()
	s, err := NewSharded(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedDeterministicAcrossShardCounts is the determinism contract of
// the sharded engine: for a fixed (seed, configuration) the results are
// bit-identical for shards=1 and any shards=N, because per-cell substreams
// decouple the cells' sample paths and window-barrier messages merge in a
// deterministic order.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	cfg := shardedQuickConfig(t, 7)
	base := runSharded(t, cfg, ShardedOptions{Shards: 1})
	if base.Events == 0 || base.PacketsDelivered == 0 {
		t.Fatalf("degenerate baseline run: %+v", base)
	}
	for _, shards := range []int{2, 4, 7} {
		got := runSharded(t, cfg, ShardedOptions{Shards: shards})
		if !reflect.DeepEqual(got, base) {
			t.Errorf("shards=%d produced different results than shards=1:\n%+v\nvs\n%+v", shards, got, base)
		}
	}
}

// TestShardedMatchesSerialEngine checks the stronger property that the
// sharded engine reproduces the one-group engine (every cell on one calendar,
// run straight through) bit for bit — both deliver handovers at the same
// absolute times and both drive every cell from the same substreams, so the
// groupings are interchangeable.
func TestShardedMatchesSerialEngine(t *testing.T) {
	cfg := shardedQuickConfig(t, 7)
	serial := runQuick(t, cfg)
	got := runSharded(t, cfg, ShardedOptions{Shards: 3})
	if !reflect.DeepEqual(got, serial) {
		t.Errorf("sharded engine differs from the one-group engine:\n%+v\nvs\n%+v", got, serial)
	}

	if testing.Short() {
		return
	}
	cfg19 := shardedQuickConfig(t, 19)
	serial19 := runQuick(t, cfg19)
	got19 := runSharded(t, cfg19, ShardedOptions{Shards: 4})
	if !reflect.DeepEqual(got19, serial19) {
		t.Error("sharded engine differs from the one-group engine on the 19-cell cluster")
	}
}

func TestShardedLargeTopologies(t *testing.T) {
	if testing.Short() {
		t.Skip("large-cluster simulations skipped in -short mode")
	}
	for _, cells := range []int{19, 37} {
		cfg := shardedQuickConfig(t, cells)
		res := runSharded(t, cfg, ShardedOptions{Shards: 4})
		if res.Events == 0 || res.PacketsDelivered == 0 {
			t.Fatalf("%d cells: no traffic simulated: %+v", cells, res)
		}
		if res.HandoversIn == 0 || res.HandoversOut == 0 {
			t.Errorf("%d cells: expected handover flow through the mid cell, got in=%d out=%d",
				cells, res.HandoversIn, res.HandoversOut)
		}
		ratio := float64(res.HandoversIn) / float64(res.HandoversOut)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%d cells: handover flows badly unbalanced: in=%d out=%d",
				cells, res.HandoversIn, res.HandoversOut)
		}
		if res.CarriedVoiceTraffic.Mean <= 0 || res.AverageSessions.Mean <= 0 {
			t.Errorf("%d cells: implausible occupancies: %+v", cells, res)
		}
	}
}

// countingLimiter counts concurrent holders so the test can verify that the
// shard workers respect a shared bound.
type countingLimiter struct {
	tokens chan struct{}
	active atomic.Int32
	peak   atomic.Int32
}

func (l *countingLimiter) Acquire() {
	l.tokens <- struct{}{}
	n := l.active.Add(1)
	for {
		p := l.peak.Load()
		if n <= p || l.peak.CompareAndSwap(p, n) {
			break
		}
	}
}

func (l *countingLimiter) Release() {
	l.active.Add(-1)
	<-l.tokens
}

func TestShardedComposesWithSharedLimiter(t *testing.T) {
	cfg := shardedQuickConfig(t, 7)
	want := runSharded(t, cfg, ShardedOptions{Shards: 1})
	lim := &countingLimiter{tokens: make(chan struct{}, 2)}
	got := runSharded(t, cfg, ShardedOptions{Shards: 4, Limiter: lim})
	if !reflect.DeepEqual(got, want) {
		t.Error("limited sharded run produced different results")
	}
	if p := lim.peak.Load(); p > 2 {
		t.Errorf("observed %d concurrent shard workers, limiter cap is 2", p)
	}
}

func TestNewShardedValidation(t *testing.T) {
	cfg := quickConfig(true)
	cfg.BufferSize = 0
	if _, err := NewSharded(cfg, ShardedOptions{}); err == nil {
		t.Error("invalid configuration should be rejected")
	}
	good := quickConfig(true)
	s, err := NewSharded(good, ShardedOptions{Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 7 {
		t.Errorf("shards should be capped at the cell count, got %d", s.Shards())
	}
	if s.MidCell() != cluster.MidCell {
		t.Error("mid cell index mismatch")
	}
	if s.Config().HandoverLatencySec <= 0 {
		t.Error("defaulted configuration should carry a positive handover latency")
	}
}

// TestNewBuildsOneGroup pins the one-group constructor: New ignores a pinned
// Config.Partition without rewriting the Config it reports, builds no shard
// engine, and reproduces the sharded run of the same partition.
func TestNewBuildsOneGroup(t *testing.T) {
	cfg := shardedQuickConfig(t, 7)
	cfg.Partition = &partition.Spec{Kind: partition.KindLocality, Groups: 3}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Partition().NumGroups() != 1 || s.Shards() != 1 || s.engine != nil {
		t.Fatalf("New built %d groups on %d workers", s.Partition().NumGroups(), s.Shards())
	}
	if !reflect.DeepEqual(s.Config().Partition, cfg.Partition) {
		t.Errorf("New rewrote Config().Partition to %v", s.Config().Partition)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := runSharded(t, cfg, ShardedOptions{Shards: 2}); !reflect.DeepEqual(got, res) {
		t.Error("3-group sharded run differs from the one-group run")
	}
}

// TestHandoverLatencyIsSmallPerturbation guards the modelling assumption
// behind the message-based handovers: the default 100 ms in-transit
// interruption is negligible against the 60-120 s dwell times, so mid-cell
// occupancies must stay in a sane range compared with an (almost)
// instantaneous handover.
func TestHandoverLatencyIsSmallPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison runs skipped in -short mode")
	}
	cfg := quickConfig(true)
	cfg.MeasurementSec = 3000
	base := runQuick(t, cfg)
	tiny := cfg
	tiny.HandoverLatencySec = 1e-4
	got := runQuick(t, tiny)
	if math.Abs(got.CarriedVoiceTraffic.Mean-base.CarriedVoiceTraffic.Mean) > 0.35*math.Max(base.CarriedVoiceTraffic.Mean, 0.1) {
		t.Errorf("CVT too sensitive to handover latency: %v vs %v",
			got.CarriedVoiceTraffic.Mean, base.CarriedVoiceTraffic.Mean)
	}
	if math.Abs(got.AverageSessions.Mean-base.AverageSessions.Mean) > 0.35*math.Max(base.AverageSessions.Mean, 0.1) {
		t.Errorf("AGS too sensitive to handover latency: %v vs %v",
			got.AverageSessions.Mean, base.AverageSessions.Mean)
	}
}

func TestSubstreamSeedingDecouplesCells(t *testing.T) {
	// Two different seeds must change every cell's sample path; the old
	// affine seed*4+k derivation made nearby seeds share streams.
	a := runQuick(t, quickConfig(true))
	cfg := quickConfig(true)
	cfg.Seed = cfg.Seed + 1
	b := runQuick(t, cfg)
	if a.Events == b.Events && a.PacketsOffered == b.PacketsOffered {
		t.Error("adjacent seeds should produce different sample paths")
	}
}
