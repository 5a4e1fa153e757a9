package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, md, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2.5, 0.5, 9, 4, 4.5}, 1.5, 4, 6.75},
	} {
		s := summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.md || s.Q3 != c.q3 {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.md, c.q3)
		}
		if want := (c.q3 - c.q1) / c.md; math.Abs(s.RelativeSpread-want) > 1e-15 {
			t.Errorf("%v: spread %v, want %v", c.xs, s.RelativeSpread, want)
		}
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.RelativeSpread != 0 {
		t.Errorf("one sample: %+v", s)
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/des.(*Simulation).Step":        "repro/internal/des",
		"repro/internal/sim.(*cell).onArrival.func1":   "repro/internal/sim",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"math.Log":  "math",
		"main.main": "main",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// protobuf helpers for hand-built profiles.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return pbBytes(b, num, data)
}

func TestPackageSharesAttributesSelfTime(t *testing.T) {
	var p []byte
	for _, s := range []string{"", "repro/internal/des.(*Simulation).Step", "runtime.mallocgc",
		"repro/internal/sim.(*cell).onArrival.func1", "internal/runtime/maps.(*Map).Get"} {
		p = pbBytes(p, fieldProfileStrings, []byte(s))
	}
	for id := uint64(1); id <= 4; id++ {
		p = pbBytes(p, fieldProfileFunction, pbVarint(pbVarint(nil, fieldFunctionID, id), fieldFunctionName, id))
	}
	line := func(fn uint64) []byte { return pbVarint(nil, fieldLineFunctionID, fn) }
	// Location 1 inlines the sim closure (innermost, listed first) into des.
	loc1 := pbBytes(pbBytes(pbVarint(nil, fieldLocationID, 1), fieldLocationLine, line(3)), fieldLocationLine, line(1))
	p = pbBytes(p, fieldProfileLocation, loc1)
	p = pbBytes(p, fieldProfileLocation, pbBytes(pbVarint(nil, fieldLocationID, 2), fieldLocationLine, line(1)))
	p = pbBytes(p, fieldProfileLocation, pbBytes(pbVarint(nil, fieldLocationID, 3), fieldLocationLine, line(2)))
	p = pbBytes(p, fieldProfileLocation, pbBytes(pbVarint(nil, fieldLocationID, 4), fieldLocationLine, line(4)))
	// Samples (count, nanoseconds): packed and unpacked encodings mixed.
	p = pbBytes(p, fieldProfileSample, pbPacked(pbPacked(nil, fieldSampleLocationID, 1, 2), fieldSampleValue, 3, 30))
	p = pbBytes(p, fieldProfileSample, pbVarint(pbVarint(pbVarint(nil, fieldSampleLocationID, 2), fieldSampleValue, 5), fieldSampleValue, 50))
	p = pbBytes(p, fieldProfileSample, pbPacked(pbPacked(nil, fieldSampleLocationID, 3, 2), fieldSampleValue, 1, 15))
	p = pbBytes(p, fieldProfileSample, pbPacked(pbPacked(nil, fieldSampleLocationID, 4), fieldSampleValue, 1, 5))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := packageShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"repro/internal/sim": 0.30, "repro/internal/des": 0.50, "runtime": 0.20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	if _, err := packageShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestProfileSharesOfRealProfile(t *testing.T) {
	shares, err := profileShares(func() {
		x := 0.0
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for i := 0; i < 1e5; i++ {
				x += math.Sqrt(float64(i))
			}
		}
		_ = x
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) == 0 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want 1", shares, sum)
	}
}

func TestMetricSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's perLayer list")
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validSpec reports whether a metric declaration meets the naming rules of
// BENCHMARK.json and improves in a known direction.
func validSpec(m metricSpec) bool {
	return metricName.MatchString(m.Name) && metricUnit.MatchString(m.Unit) &&
		(m.Better == "lower" || m.Better == "higher")
}

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validSpec(m) {
			t.Errorf("invalid metric declaration %+v", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range scopedMetrics {
		if !seen[name] {
			t.Errorf("scoped metric %s is not declared", name)
		}
	}
	for name := range cpuPackages {
		if !seen[name] {
			t.Errorf("cpu metric %s is not declared", name)
		}
	}
	for _, bad := range []metricSpec{{"", "s", "lower"}, {"_x", "s", "lower"}, {"a b", "s", "lower"},
		{"ok", "", "lower"}, {"ok", "s", "up"}} {
		if validSpec(bad) {
			t.Errorf("%+v accepted", bad)
		}
	}
}

func TestRotationVisitsEveryInput(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed int64
		want []int
	}{
		{1, 5, []int{0}},
		{2, 1, []int{1, 0}},
		{2, 4, []int{0, 1}},
		{3, -1, []int{2, 0, 1}},
	} {
		if got := rotation(c.n, c.seed); !reflect.DeepEqual(got, c.want) {
			t.Errorf("rotation(%d, %d) = %v, want %v", c.n, c.seed, got, c.want)
		}
	}
}

// goldenRun is the seven-cell baseline row of the golden-digest table in
// internal/sim (scenario_equiv_test.go): digest 0646231e09b39bea.
func goldenRun(t *testing.T) sim.Results {
	t.Helper()
	topo, err := cluster.Preset(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 200
	cfg.MeasurementSec = 600
	cfg.Batches = 5
	cfg.Seed = 7
	res, err := sim.RunOnce(cfg, sim.ShardedOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultDigestReproducesGoldenDigest(t *testing.T) {
	if got := resultDigest(goldenRun(t)); got != "0646231e09b39bea" {
		t.Errorf("digest %s, want the golden seven-cell baseline 0646231e09b39bea", got)
	}
}

func TestCheckFailuresCountAsFailedOperations(t *testing.T) {
	res := goldenRun(t)
	good := simPin{seed: 7, events: res.Events, digest: "0646231e09b39bea"}
	if err := checkResults(res, good); err != nil {
		t.Fatalf("matching pin rejected: %v", err)
	}
	if err := checkResults(res, simPin{seed: 7, events: res.Events + 1, digest: good.digest}); !errors.Is(err, errWorkloadChanged) {
		t.Errorf("event-count mismatch: %v, want errWorkloadChanged", err)
	}

	// A workload whose every output has the wrong digest: each operation of
	// the run must be attempted and counted as failed.
	bad := good
	bad.digest = "0000000000000000"
	w := &workload{
		name:   "digest-mismatch",
		inputs: 2,
		setup:  func(int) (time.Duration, error) { return time.Millisecond, nil },
		op: func(int) (opResult, error) {
			return opResult{run: time.Millisecond, events: res.Events}, checkResults(res, bad)
		},
	}
	tl := &tally{log: io.Discard}
	values, err := measure(w, rotation(2, 0), time.Millisecond, tl, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if tl.attempted < 2 || tl.failed != tl.attempted {
		t.Errorf("attempted %d, failed %d: want every operation failed", tl.attempted, tl.failed)
	}
	for _, m := range endToEnd {
		if _, ok := values[m.Name]; !ok {
			t.Errorf("end-to-end metric %s missing", m.Name)
		}
	}
}
