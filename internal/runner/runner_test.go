package runner

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// testConfig returns a scaled-down, short simulator configuration so one
// replication completes in well under a second.
func testConfig() sim.Config {
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 100
	cfg.MeasurementSec = 400
	cfg.Batches = 5
	return cfg
}

func TestSeedForIsDeterministicAndWellSeparated(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := SeedFor(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SeedFor(1, %d) collides with SeedFor(1, %d)", i, prev)
		}
		seen[s] = i
	}
	if SeedFor(1, 0) != SeedFor(1, 0) {
		t.Error("SeedFor must be deterministic")
	}
	if SeedFor(1, 0) == SeedFor(2, 0) {
		t.Error("different base seeds should derive different substreams")
	}
	// Derived seeds must not collapse onto the small integers users pick as
	// base seeds (the simulator multiplies raw seeds by 4, so nearby small
	// seeds would correlate its internal streams).
	for i := 0; i < 4; i++ {
		if s := SeedFor(1, i); s >= -16 && s <= 16 {
			t.Errorf("SeedFor(1, %d) = %d is a degenerate small seed", i, s)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	var baseline Summary
	for _, workers := range []int{1, 4, 8} {
		got, err := Run(cfg, Options{Replications: 3, Workers: workers, BaseSeed: 42})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			baseline = got
			continue
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Errorf("workers=%d produced different results than workers=1:\n%v\nvs\n%v",
				workers, got, baseline)
		}
	}
	if baseline.Replications != 3 || len(baseline.PerReplication) != 3 {
		t.Fatalf("expected 3 replications, got %+v", baseline)
	}
	if baseline.Merged.CarriedDataTraffic.Batches != 3 {
		t.Errorf("merged interval should span 3 replications, got %d",
			baseline.Merged.CarriedDataTraffic.Batches)
	}
	if baseline.String() == "" {
		t.Error("Summary should render")
	}
}

func TestRunShardedEngineMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	serial, err := Run(cfg, Options{Replications: 2, BaseSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Shard-level parallelism under a shared limiter must not change the
	// merged summary: replication i still runs seed SeedFor(42, i) and the
	// sharded engine is bit-identical to the serial one.
	lim := NewLimiter(2)
	sharded, err := Run(cfg, Options{Replications: 2, BaseSeed: 42, Shards: 4, Limiter: lim})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded, serial) {
		t.Errorf("sharded replications differ from serial ones:\n%v\nvs\n%v", sharded, serial)
	}
}

// TestRunOneGroupTakesNoShardToken is the regression test for the limiter
// trap of the one-group engine: with Shards <= 1 every replication holds a
// token of the shared Limiter while it runs and passes the same Limiter down
// to the engine. The one-group calendar must run straight through without
// asking for another token; an engine that read Shards 0 as NumCPU groups,
// or that crossed shard windows with one group, would leave every in-flight
// replication waiting on a pool it has itself exhausted.
func TestRunOneGroupTakesNoShardToken(t *testing.T) {
	cfg := testConfig()
	for _, shards := range []int{0, 1} {
		lim := NewLimiter(2)
		done := make(chan error, 1)
		go func() {
			_, err := Run(cfg, Options{Replications: 4, Workers: 2, BaseSeed: 3, Shards: shards, Limiter: lim})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("shards=%d: two replications on a 2-token limiter still blocked after 2 minutes", shards)
		}
	}

	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s.ShardStats(); st.Windows != 0 || st.MergedMessages != 0 {
		t.Errorf("one-group run crossed shard barriers: %+v", st)
	}
	if s.Shards() != 1 || s.Partition().NumGroups() != 1 {
		t.Errorf("sim.New built %d workers over %d groups, want one group", s.Shards(), s.Partition().NumGroups())
	}
}

func TestRunRejectsAliasedAdmission(t *testing.T) {
	lim := NewLimiter(1)
	_, err := Run(testConfig(), Options{
		Replications: 1, BaseSeed: 1, Shards: 2, Limiter: lim, Admission: lim,
	})
	if err == nil {
		t.Fatal("Admission aliasing Limiter must be rejected (it would deadlock)")
	}
}

func TestRunShardedWithSharedAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	serial, err := Run(cfg, Options{Replications: 3, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The narrowest possible pools: one CPU token, one live simulator, three
	// replications of two shards each. The admission pool being distinct
	// from the CPU pool is what keeps this free of deadlock; the merged
	// summary must still match the serial run bit for bit.
	lim := NewLimiter(1)
	adm := NewLimiter(1)
	sharded, err := Run(cfg, Options{
		Replications: 3, BaseSeed: 7, Shards: 2, Limiter: lim, Admission: adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded, serial) {
		t.Errorf("admission-bounded sharded run differs from serial run:\n%v\nvs\n%v", sharded, serial)
	}
}

func TestRunReplicationsAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulation runs skipped in -short mode")
	}
	got, err := Run(testConfig(), Options{Replications: 2, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := got.PerReplication[0], got.PerReplication[1]
	if a.PacketsOffered == b.PacketsOffered && a.Events == b.Events {
		t.Error("distinct replications should follow distinct sample paths")
	}
	wantOffered := a.PacketsOffered + b.PacketsOffered
	if got.Merged.PacketsOffered != wantOffered {
		t.Errorf("merged offered packets = %d, want sum %d", got.Merged.PacketsOffered, wantOffered)
	}
}

func TestRunSingleReplicationKeepsBatchMeans(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run skipped in -short mode")
	}
	got, err := Run(testConfig(), Options{BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.Replications != 1 {
		t.Fatalf("default replication count should be 1, got %d", got.Replications)
	}
	if got.Merged.CarriedDataTraffic.Batches != 5 {
		t.Errorf("single replication should report its batch-means interval, got %d batches",
			got.Merged.CarriedDataTraffic.Batches)
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := testConfig()
	cfg.BufferSize = 0
	if _, err := Run(cfg, Options{Replications: 2}); err == nil {
		t.Error("invalid configuration should fail")
	}
}

// TestRunRejectsBadConfidenceLevel checks that Validate and Run reject an
// options level outside (0, 1) before simulating anything, instead of
// reporting intervals at that level or silently replacing it.
func TestRunRejectsBadConfidenceLevel(t *testing.T) {
	for _, level := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1, 1.5, -2} {
		o := Options{Replications: 2, ConfidenceLevel: level}
		if err := Validate(testConfig(), o); !errors.Is(err, sim.ErrInvalidConfig) {
			t.Errorf("level %v: Validate = %v, want sim.ErrInvalidConfig", level, err)
		}
		if _, err := Run(testConfig(), o); !errors.Is(err, sim.ErrInvalidConfig) {
			t.Errorf("level %v: Run = %v, want sim.ErrInvalidConfig", level, err)
		}
	}
}

func TestRunProgressCallback(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs skipped in -short mode")
	}
	cfg := testConfig()
	cfg.MeasurementSec = 100
	var mu sync.Mutex
	var dones []int
	_, err := Run(cfg, Options{
		Replications: 3,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != 3 {
				t.Errorf("total = %d, want 3", total)
			}
			dones = append(dones, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != 3 || dones[len(dones)-1] != 3 {
		t.Errorf("progress calls = %v, want three calls ending at 3", dones)
	}
}

func TestMergeAgainstManualWelford(t *testing.T) {
	mk := func(cdt float64, offered int64) sim.Results {
		return sim.Results{
			CarriedDataTraffic: stats.Interval{Mean: cdt, HalfWidth: 0.5, Level: 0.95, Batches: 10},
			CellCounters:       probe.CellCounters{PacketsOffered: offered},
			SimulatedSec:       100,
			Events:             1000,
		}
	}
	got := Merge([]sim.Results{mk(1, 10), mk(2, 20), mk(4, 30)}, 0.95)
	want := stats.MeanInterval([]float64{1, 2, 4}, 0.95)
	if math.Abs(got.Merged.CarriedDataTraffic.Mean-want.Mean) > 1e-12 ||
		math.Abs(got.Merged.CarriedDataTraffic.HalfWidth-want.HalfWidth) > 1e-12 {
		t.Errorf("merged CDT interval %+v, want %+v", got.Merged.CarriedDataTraffic, want)
	}
	if got.Merged.PacketsOffered != 60 || got.Merged.SimulatedSec != 300 || got.Merged.Events != 3000 {
		t.Errorf("totals not summed: %+v", got.Merged)
	}

	if one := Merge([]sim.Results{mk(1, 10)}, 0.95); one.Merged.CarriedDataTraffic.HalfWidth != 0.5 {
		t.Errorf("single-replication merge should pass the result through, got %+v",
			one.Merged.CarriedDataTraffic)
	}
	if zero := Merge(nil, 0.95); zero.Replications != 0 {
		t.Errorf("empty merge should be zero, got %+v", zero)
	}
}

// TestMergeCoversEveryResultsField guards the field lists of Merge: every
// stats.Interval field of sim.Results must appear in the measures accessor
// table, and every numeric total — each leaf of the embedded mid-cell
// probe.CellCounters included — must be summed, as must every counter of a
// per-cell report. Adding a field to sim.Results or probe.CellCounters
// without extending Merge (or CellCounters.Add) fails here instead of
// silently producing a wrong merged summary.
func TestMergeCoversEveryResultsField(t *testing.T) {
	var r sim.Results
	covered := make(map[uintptr]bool)
	for _, def := range measureDefs {
		covered[reflect.ValueOf(def.get(&r)).Pointer()] = true
	}
	rv := reflect.ValueOf(&r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Type().Field(i); f.Type == reflect.TypeOf(stats.Interval{}) && !covered[rv.Field(i).Addr().Pointer()] {
			t.Errorf("interval field %s is missing from the measures table", f.Name)
		}
	}

	one := sim.Results{PerCell: []sim.CellMeasures{{Cell: 0, CarriedVoiceTraffic: 1}}}
	totals := resultTotals(t, reflect.ValueOf(&one).Elem())
	for name := range counterNames() {
		if _, ok := totals[name]; !ok {
			t.Errorf("counter %s of the embedded probe.CellCounters is not a total of sim.Results", name)
		}
	}
	for _, fv := range totals {
		setOne(fv)
	}
	for _, fv := range resultTotals(t, reflect.ValueOf(&one.PerCell[0].CellCounters).Elem()) {
		setOne(fv)
	}

	merged := Merge([]sim.Results{one, one}, 0.95).Merged
	for name, fv := range resultTotals(t, reflect.ValueOf(&merged).Elem()) {
		if got := leafValue(fv); got != 2 {
			t.Errorf("total %s = %v after merging two replications of 1, want 2 — not summed in Merge", name, got)
		}
	}
	if len(merged.PerCell) != 1 {
		t.Fatalf("merged PerCell has %d entries, want 1", len(merged.PerCell))
	}
	pc := merged.PerCell[0]
	if pc.CarriedVoiceTraffic != 1 {
		t.Errorf("merged PerCell CVT = %v: point estimates should average (1)", pc.CarriedVoiceTraffic)
	}
	for name, fv := range resultTotals(t, reflect.ValueOf(&pc.CellCounters).Elem()) {
		if got := leafValue(fv); got != 2 {
			t.Errorf("per-cell counter %s = %v after merging two replications of 1, want 2", name, got)
		}
	}
}

// resultTotals returns the numeric leaves of a struct value by field name,
// walking into embedded structs; interval fields and the per-cell slices are
// skipped, and a field of any other kind is reported as having no merge rule.
func resultTotals(t *testing.T, v reflect.Value) map[string]reflect.Value {
	t.Helper()
	out := make(map[string]reflect.Value)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			switch {
			case f.Type == reflect.TypeOf(stats.Interval{}):
			case f.Anonymous && fv.Kind() == reflect.Struct:
				walk(fv)
			case fv.Kind() == reflect.Int64 || fv.Kind() == reflect.Uint64 || fv.Kind() == reflect.Float64:
				out[f.Name] = fv
			case fv.Kind() == reflect.Slice && (f.Name == "PerCell" || f.Name == "PerCellCI"):
				// PerCell counters are checked by the caller and by
				// TestMergePerCell; PerCellCI by TestPerCellIntervals.
			default:
				t.Errorf("field %s has no merge rule (kind %v) — extend Merge and this test", f.Name, fv.Kind())
			}
		}
	}
	walk(v)
	return out
}

// counterNames returns the field names of probe.CellCounters.
func counterNames() map[string]bool {
	names := make(map[string]bool)
	ct := reflect.TypeOf(probe.CellCounters{})
	for i := 0; i < ct.NumField(); i++ {
		names[ct.Field(i).Name] = true
	}
	return names
}

func setOne(fv reflect.Value) {
	switch fv.Kind() {
	case reflect.Int64:
		fv.SetInt(1)
	case reflect.Uint64:
		fv.SetUint(1)
	case reflect.Float64:
		fv.SetFloat(1)
	}
}

func leafValue(fv reflect.Value) float64 {
	switch fv.Kind() {
	case reflect.Int64:
		return float64(fv.Int())
	case reflect.Uint64:
		return float64(fv.Uint())
	}
	return fv.Float()
}

// TestMergePerCell checks the per-cell merge rules across replications:
// point estimates average, counter totals sum, and mismatched cell counts
// drop the merged per-cell report instead of fabricating one.
func TestMergePerCell(t *testing.T) {
	a := sim.Results{PerCell: []sim.CellMeasures{
		{Cell: 0, CarriedDataTraffic: 1, GSMBlocking: 0.2, CellCounters: probe.CellCounters{PacketsDelivered: 10, HandoversIn: 3}},
		{Cell: 1, CarriedDataTraffic: 3, GSMBlocking: 0.4, CellCounters: probe.CellCounters{PacketsDelivered: 30, HandoversIn: 5}},
	}}
	b := sim.Results{PerCell: []sim.CellMeasures{
		{Cell: 0, CarriedDataTraffic: 2, GSMBlocking: 0.4, CellCounters: probe.CellCounters{PacketsDelivered: 20, HandoversIn: 5}},
		{Cell: 1, CarriedDataTraffic: 5, GSMBlocking: 0.2, CellCounters: probe.CellCounters{PacketsDelivered: 50, HandoversIn: 7}},
	}}
	merged := Merge([]sim.Results{a, b}, 0.95).Merged
	want := []sim.CellMeasures{
		{Cell: 0, CarriedDataTraffic: 1.5, GSMBlocking: 0.3, CellCounters: probe.CellCounters{PacketsDelivered: 30, HandoversIn: 8}},
		{Cell: 1, CarriedDataTraffic: 4, GSMBlocking: 0.3, CellCounters: probe.CellCounters{PacketsDelivered: 80, HandoversIn: 12}},
	}
	for i, w := range want {
		got := merged.PerCell[i]
		if math.Abs(got.CarriedDataTraffic-w.CarriedDataTraffic) > 1e-12 ||
			math.Abs(got.GSMBlocking-w.GSMBlocking) > 1e-12 ||
			got.PacketsDelivered != w.PacketsDelivered || got.HandoversIn != w.HandoversIn {
			t.Errorf("cell %d: merged %+v, want %+v", i, got, w)
		}
	}

	short := sim.Results{PerCell: a.PerCell[:1]}
	if got := Merge([]sim.Results{a, short}, 0.95).Merged.PerCell; got != nil {
		t.Errorf("mismatched cell counts should drop the merged per-cell report, got %+v", got)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	lim := NewLimiter(3)
	if lim.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", lim.Cap())
	}
	var active, peak int32
	err := ForEach(lim, 64, func(i int) error {
		n := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		atomic.AddInt32(&active, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Errorf("observed %d concurrent tasks, limiter cap is 3", peak)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA := &indexError{5}
	errB := &indexError{2}
	err := ForEach(NewLimiter(4), 8, func(i int) error {
		switch i {
		case 5:
			return errA
		case 2:
			return errB
		}
		return nil
	})
	if err != errB {
		t.Errorf("ForEach returned %v, want the lowest-index error %v", err, errB)
	}
	if err := ForEach(nil, 4, func(int) error { return nil }); err != nil {
		t.Errorf("nil limiter should run unbounded: %v", err)
	}
	if err := ForEach(nil, 0, func(int) error { return errA }); err != nil {
		t.Errorf("empty loop should not invoke fn: %v", err)
	}
}

type indexError struct{ i int }

func (e *indexError) Error() string { return "task failed" }
