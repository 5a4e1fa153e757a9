// Partition-equivalence suite: the cell→group partitioning of the sharded
// engine must never affect results. Any valid assignment — contiguous
// index blocks, locality-grown patches, or arbitrary random groupings — and
// any worker count must reproduce the one-group engine bit for bit, under
// heterogeneous load, corridor mobility, and admission policies alike. The
// randomized matrix here plus the pinned 61-cell golden column are the
// enforcement of the determinism contract documented in internal/partition.
package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/partition"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// equivQuickConfig is scenarioQuickConfig with a shorter horizon, so the
// randomized matrix stays affordable across ~50 partitions.
func equivQuickConfig(t *testing.T, cells int) sim.Config {
	t.Helper()
	cfg := scenarioQuickConfig(t, cells)
	cfg.WarmupSec = 100
	cfg.MeasurementSec = 300
	cfg.Batches = 3
	return cfg
}

// randomGroups draws a uniformly random valid partition of n cells into k
// non-empty groups: the first k cells of a random permutation seed the
// groups, the rest scatter uniformly.
func randomGroups(r *rand.Rand, n, k int) [][]int {
	groups := make([][]int, k)
	for i, c := range r.Perm(n) {
		g := i
		if i >= k {
			g = r.Intn(k)
		}
		groups[g] = append(groups[g], c)
	}
	return groups
}

// TestRandomizedPartitionEquivalence is the property test of the partition
// determinism contract: ~50 random valid partitions of the {19,37,61}-cell
// topologies — group counts from the degenerate single group to one group
// per cell, worker counts {1,2,4} — all reproduce the one-group engine's
// Results (and their canonical digests) bit for bit, under a hotspot load,
// a highway mobility corridor, and a guard-channel admission policy.
func TestRandomizedPartitionEquivalence(t *testing.T) {
	cases := []struct {
		cells  int
		preset string
		count  int
	}{
		{19, "hotspot", 20},
		{37, "highway", 16},
		{61, "hotspot-guard", 14},
	}
	rng := rand.New(rand.NewSource(20260808))
	for _, tc := range cases {
		count := tc.count
		if testing.Short() {
			if tc.cells != 19 {
				continue
			}
			count = 6
		}
		t.Run(fmt.Sprintf("%s/%dcells", tc.preset, tc.cells), func(t *testing.T) {
			spec, err := scenario.Preset(tc.preset)
			if err != nil {
				t.Fatal(err)
			}
			cfg := equivQuickConfig(t, tc.cells)
			if _, err := scenario.Apply(&cfg, spec); err != nil {
				t.Fatal(err)
			}
			serial := mustRun(t, cfg, 1)
			if serial.Events == 0 {
				t.Fatal("degenerate run: no events")
			}
			serialDigest := policyDigest(serial)
			n := tc.cells
			for i := 0; i < count; i++ {
				var pspec *partition.Spec
				switch i {
				case 0: // degenerate: everything in one group
					pspec = &partition.Spec{Kind: partition.KindIndexRange, Groups: 1}
				case 1: // degenerate: one group per cell (historic per-cell shards)
					pspec = &partition.Spec{Kind: partition.KindIndexRange, Groups: n}
				case 2: // the default locality grouping, group count from workers
					pspec = &partition.Spec{Kind: partition.KindLocality}
				case 3:
					pspec = &partition.Spec{Kind: partition.KindLocality, Groups: 1 + rng.Intn(n)}
				default:
					k := 1 + rng.Intn(n)
					pspec = &partition.Spec{Kind: partition.KindExplicit, Explicit: randomGroups(rng, n, k)}
				}
				workers := []int{1, 2, 4}[i%3]
				pcfg := cfg
				pcfg.Partition = pspec
				e, err := sim.NewSharded(pcfg, sim.ShardedOptions{Shards: workers})
				if err != nil {
					t.Fatalf("partition %d (%v, %d workers): %v", i, pspec, workers, err)
				}
				res, err := e.Run()
				if err != nil {
					t.Fatalf("partition %d (%v, %d workers): %v", i, pspec, workers, err)
				}
				if !reflect.DeepEqual(res, serial) {
					t.Errorf("partition %d (%v, %d workers, %d groups): results differ from the one-group engine",
						i, pspec, workers, e.Partition().NumGroups())
				}
				if got := policyDigest(res); got != serialDigest {
					t.Errorf("partition %d (%v, %d workers): digest %s, want serial %s",
						i, pspec, workers, got, serialDigest)
				}
			}
		})
	}
}

// goldenPartitionDigests extends the golden-digest suite with a partitioned
// 61-cell column: the pinned digests are the one-group engine's, and both
// partitioners at both worker counts must keep reproducing them bit for bit.
var goldenPartitionDigests = []struct {
	name  string
	cells int
	want  string
}{
	{"baseline", 61, "085eba53739aacae"},
	{"hotspot", 61, "0d8a6b44304ee461"},
}

// TestGoldenPartitionedDigests pins the 61-cell partitioned column: the
// serial run must reproduce the golden digest, and so must the sharded
// engine under two partitioners (locality, index-range) × {1,4} workers.
// The whole column is skipped in -short mode (it is part of the full suite
// the race CI job runs).
func TestGoldenPartitionedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("61-cell partitioned golden column skipped in -short mode")
	}
	specs := []*partition.Spec{
		{Kind: partition.KindLocality, Groups: 4},
		{Kind: partition.KindIndexRange, Groups: 4},
	}
	for _, g := range goldenPartitionDigests {
		t.Run(fmt.Sprintf("%s/%dcells", g.name, g.cells), func(t *testing.T) {
			cfg := goldenConfig(t, g.name, g.cells)
			serial := mustRun(t, cfg, 1)
			if got := seedDigest(serial); got != g.want {
				t.Errorf("serial digest %s, want %s", got, g.want)
			}
			for _, spec := range specs {
				for _, workers := range []int{1, 4} {
					pcfg := cfg
					pcfg.Partition = spec
					e, err := sim.NewSharded(pcfg, sim.ShardedOptions{Shards: workers})
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run()
					if err != nil {
						t.Fatal(err)
					}
					if got := seedDigest(res); got != g.want {
						t.Errorf("%v x %d workers: digest %s, want %s", spec, workers, got, g.want)
					}
				}
			}
		})
	}
}

// TestLocalityPartitionBalancesHotspotEvents is the load-imbalance
// regression test: on the hotspot-19cell workload the locality-aware
// partitioner must spread the event load strictly better than the
// contiguous index-range baseline, whose first group hoards the hot centre.
// The per-group event counts come out through Sharded.GroupEvents and must
// match what the run published to the telemetry registry (probe.Default),
// which is what the telemetry-smoke CI job scrapes.
func TestLocalityPartitionBalancesHotspotEvents(t *testing.T) {
	spec, err := scenario.Preset(scenario.Hotspot)
	if err != nil {
		t.Fatal(err)
	}
	cfg := equivQuickConfig(t, 19)
	if _, err := scenario.Apply(&cfg, spec); err != nil {
		t.Fatal(err)
	}
	maxShare := func(pspec *partition.Spec) float64 {
		t.Helper()
		pcfg := cfg
		pcfg.Partition = pspec
		e, err := sim.NewSharded(pcfg, sim.ShardedOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		groups := e.GroupEvents()
		if len(groups) != 4 {
			t.Fatalf("%v: %d group event counts, want 4", pspec, len(groups))
		}
		if published := probe.Default.GroupEvents(); !reflect.DeepEqual(published, groups) {
			t.Errorf("%v: telemetry registry has %v, engine reports %v", pspec, published, groups)
		}
		var total, max uint64
		for _, n := range groups {
			total += n
			if n > max {
				max = n
			}
		}
		if total != res.Events {
			t.Errorf("%v: group events sum to %d, run processed %d", pspec, total, res.Events)
		}
		if total == 0 {
			t.Fatalf("%v: no events", pspec)
		}
		return float64(max) / float64(total)
	}
	loc := maxShare(&partition.Spec{Kind: partition.KindLocality, Groups: 4})
	base := maxShare(&partition.Spec{Kind: partition.KindIndexRange, Groups: 4})
	if loc >= base {
		t.Errorf("locality max-group event share %.4f not strictly below index-range baseline %.4f", loc, base)
	}
}
