package simflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

const (
	scenarioFile = "../../../examples/hotspot/scenario.json"
	traceFile    = "../../../examples/trace/trace.csv"
)

// bind registers the shared flags on a fresh flag set, parses args and binds.
func bind(t *testing.T, args ...string) (scenario.Workload, runner.Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f.Bind()
}

func TestBind(t *testing.T) {
	gradient, err := scenario.Preset(scenario.Gradient)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name  string
		args  []string
		check func(t *testing.T, w scenario.Workload, o runner.Options)
	}{
		{"defaults", nil, func(t *testing.T, w scenario.Workload, o runner.Options) {
			if w.Cells != 0 || w.Partition != nil || w.Spec != nil || w.Policy != nil {
				t.Errorf("workload %+v, want the zero value", w)
			}
			want := runner.Options{BaseSeed: 1, Shards: 1, Target: runner.MeasureThroughput, VR: runner.VRNone}
			if !reflect.DeepEqual(o, want) {
				t.Errorf("options %+v, want %+v", o, want)
			}
		}},
		{"counts and names", []string{"-replications", "3", "-workers", "2", "-seed", "7", "-shards", "4",
			"-precision", "0.05", "-min-reps", "2", "-max-reps", "9", "-vr", "antithetic", "-target", "plp",
			"-cells", "19", "-partition", "index-range:4"},
			func(t *testing.T, w scenario.Workload, o runner.Options) {
				want := runner.Options{Replications: 3, Workers: 2, BaseSeed: 7, Shards: 4, Precision: 0.05,
					MinReplications: 2, MaxReplications: 9, VR: runner.VRAntithetic, Target: runner.MeasurePLP}
				if !reflect.DeepEqual(o, want) {
					t.Errorf("options %+v, want %+v", o, want)
				}
				if w.Cells != 19 || w.Partition == nil || w.Partition.String() != "index-range:4" {
					t.Errorf("workload cells %d partition %v", w.Cells, w.Partition)
				}
			}},
		{"scenario-file overrides scenario", []string{"-scenario", "gradient", "-scenario-file", scenarioFile},
			func(t *testing.T, w scenario.Workload, _ runner.Options) {
				if w.Spec == nil || w.Spec.Name != "evening-rush" {
					t.Errorf("spec %+v, want the file's evening-rush scenario", w.Spec)
				}
			}},
		{"trace alone rides on the uniform baseline", []string{"-trace", traceFile},
			func(t *testing.T, w scenario.Workload, _ runner.Options) {
				if w.Spec == nil || w.Spec.Name != "trace" || w.Spec.Spatial != (scenario.Spatial{}) ||
					w.Spec.Temporal.Kind != scenario.Trace || len(w.Spec.Temporal.Rows) == 0 {
					t.Errorf("spec %+v, want a trace on the uniform spatial baseline", w.Spec)
				}
			}},
		{"trace replaces only the temporal profile", []string{"-scenario", "gradient", "-trace", traceFile},
			func(t *testing.T, w scenario.Workload, _ runner.Options) {
				if w.Spec == nil || w.Spec.Name != gradient.Name || w.Spec.Spatial != gradient.Spatial ||
					w.Spec.Temporal.Kind != scenario.Trace {
					t.Errorf("spec %+v, want the gradient shape with a trace profile", w.Spec)
				}
			}},
		{"policy override", []string{"-policy", "queue", "-ho-queue", "4", "-ho-deadline", "5"},
			func(t *testing.T, w scenario.Workload, _ runner.Options) {
				want := policy.Config{Kind: policy.QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: 5}
				if w.Policy == nil || *w.Policy != want {
					t.Errorf("policy %+v, want %+v", w.Policy, want)
				}
			}},
		{"policy none resets the scenario's policy", []string{"-scenario", "hotspot-guard", "-policy", "none"},
			func(t *testing.T, w scenario.Workload, _ runner.Options) {
				cfg := sim.DefaultConfig(traffic.Model3, 0.5)
				if _, err := w.Apply(&cfg); err != nil {
					t.Fatal(err)
				}
				if cfg.Policy != nil {
					t.Errorf("policy %+v survived -policy none", cfg.Policy)
				}
				cfg = sim.DefaultConfig(traffic.Model3, 0.5)
				w.Policy = nil
				if _, err := w.Apply(&cfg); err != nil {
					t.Fatal(err)
				}
				if cfg.Policy == nil || cfg.Policy.Kind != policy.GuardChannels {
					t.Errorf("without -policy the scenario's guard policy must stand, got %+v", cfg.Policy)
				}
			}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w, o, err := bind(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, w, o)
		})
	}
}

func TestBindRejects(t *testing.T) {
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"-replications", "-3"}, "-replications"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-shards", "-2"}, "-shards"},
		{[]string{"-min-reps", "-4"}, "-min-reps"},
		{[]string{"-max-reps", "-5"}, "-max-reps"},
		{[]string{"-precision", "-0.1"}, "-precision"},
		{[]string{"-cells", "23"}, "unsupported cluster size 23"},
		{[]string{"-guard", "2"}, "need -policy"},
		{[]string{"-ho-queue", "3"}, "need -policy"},
		{[]string{"-ho-deadline", "5"}, "need -policy"},
		{[]string{"-policy", "guard", "-ho-queue", "3"}, "policy"},
		{[]string{"-policy", "bogus"}, "bogus"},
		{[]string{"-vr", "bogus"}, "bogus"},
		{[]string{"-target", "bogus"}, "bogus"},
		{[]string{"-partition", "bogus:3"}, "-partition"},
		{[]string{"-scenario", "bogus"}, "bogus"},
		{[]string{"-scenario-file", "no-such-file.json"}, "no-such-file"},
		{[]string{"-trace", "no-such-file.csv"}, "no-such-file"},
	}
	for _, tc := range tests {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			_, _, err := bind(t, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
