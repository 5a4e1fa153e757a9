package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenStdout pins the stdout of short runs byte for byte: the run
// header (resolved cluster size, replication mode, scenario and policy
// labels), the mid-cell report and the per-cell tables.
func TestGoldenStdout(t *testing.T) {
	short := []string{"-measure", "500", "-warmup", "50"}
	tests := []struct {
		golden string
		args   []string
	}{
		{"sim_base", nil},
		{"sim_hotspot_guard", []string{"-cells", "19", "-scenario", "hotspot", "-policy", "guard", "-guard", "2", "-percell"}},
		{"sim_reps2", []string{"-replications", "2"}},
		{"sim_trace_gradient", []string{"-trace", "../../examples/trace/trace.csv", "-scenario", "gradient", "-percell"}},
		{"sim_policy_none_reps2", []string{"-scenario", "hotspot-guard", "-policy", "none", "-replications", "2", "-percell"}},
		{"sim_highway_sharded", []string{"-cells", "19", "-scenario", "highway", "-shards", "2", "-partition", "locality:2", "-percell"}},
		{"sim_adaptive_antithetic", []string{"-precision", "0.5", "-min-reps", "2", "-max-reps", "4", "-workers", "1", "-vr", "antithetic"}},
	}
	for _, tc := range tests {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(append(append([]string(nil), short...), tc.args...), &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("stdout differs from %s.golden\n--- got ---\n%s--- want ---\n%s", tc.golden, got.Bytes(), want)
			}
		})
	}
}

// TestGoldenSeries pins the bytes of the -series exports: the single-run CSV
// and JSONL and the two-replication merged CSV and JSONL, on a queue-policy
// hotspot run whose policy counters are non-zero. Only the file contents are
// compared; stdout names the temporary path.
func TestGoldenSeries(t *testing.T) {
	base := []string{"-cells", "7", "-scenario", "hotspot", "-policy", "queue", "-ho-queue", "4",
		"-ho-deadline", "5", "-warmup", "50", "-measure", "500", "-series-dt", "100"}
	tests := []struct {
		golden string
		args   []string
	}{
		{"series_run.csv", nil},
		{"series_run.jsonl", nil},
		{"series_reps2.csv", []string{"-replications", "2"}},
		{"series_reps2.jsonl", []string{"-replications", "2"}},
	}
	for _, tc := range tests {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "series"+filepath.Ext(tc.golden))
			args := append(append(append([]string(nil), base...), tc.args...), "-series", path)
			if err := run(args, io.Discard); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("series differs from %s.golden\n--- got ---\n%s--- want ---\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestRejectsBeforeRunning checks that configurations the run would reject
// fail before the run header is printed.
func TestRejectsBeforeRunning(t *testing.T) {
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"-policy", "guard", "-guard", "25"}, "guard channels 25"},
		{[]string{"-guard", "2"}, "need -policy"},
		{[]string{"-replications", "-3"}, "-replications"},
		{[]string{"-cells", "23"}, "unsupported cluster size 23"},
		{[]string{"-vr", "control", "-scenario", "hotspot"}, "control variates"},
		{[]string{"-warmup", "10", "-measure", "NaN"}, "invalid configuration: measurement time = NaN"},
		{[]string{"-warmup", "Inf"}, "invalid configuration: warm-up time = +Inf"},
		{[]string{"-measure", "-5"}, "invalid configuration: measurement time = -5"},
		{[]string{"-batches", "-3"}, "invalid configuration: batches = -3"},
		{[]string{"-series", filepath.Join("testdata", "no-such-dir", "s.csv")}, "no such file or directory"},
	}
	for _, tc := range tests {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one mentioning %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("printed %q before failing", out.String())
			}
		})
	}
}
