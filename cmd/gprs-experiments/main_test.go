package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestGoldenTables pins the stdout of -figure tables; the figure name is
// case-insensitive.
func TestGoldenTables(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "exp_tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tables", "Tables", "TABLES"} {
		var got bytes.Buffer
		if err := run([]string{"-figure", name}, &got); err != nil {
			t.Fatalf("-figure %s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("-figure %s: stdout differs from exp_tables.golden\n--- got ---\n%s--- want ---\n%s", name, got.Bytes(), want)
		}
	}
}

// TestFailsBeforeModelSolves checks that simulator options every simulated
// point would reject fail before the figure's analytical sweep starts, and a
// bad solver tolerance at its first solve: the Fig. 6 model solves alone take
// seconds, the rejection milliseconds.
func TestFailsBeforeModelSolves(t *testing.T) {
	// A hotspot centred on cell 10: outside the paper's seven cells, inside
	// the 19 cells -figure hotspot runs on by default.
	offCenter := filepath.Join("testdata", "center10.json")
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"-figure", "fig6", "-policy", "guard", "-guard", "50"}, "guard channels 50"},
		{[]string{"-figure", "fig6", "-vr", "control", "-scenario", "hotspot"}, "control variates"},
		{[]string{"-figure", "fig6", "-cells", "23"}, "unsupported cluster size 23"},
		{[]string{"-figure", "fig6", "-replications", "-3"}, "-replications"},
		{[]string{"-figure", "fig6", "-scenario-file", offCenter}, "center cell 10 outside the 7-cell cluster"},
		{[]string{"-figure", "all", "-scenario-file", offCenter}, "center cell 10 outside the 7-cell cluster"},
		// The center passes on the hotspot figures' 19 cells, so the guard
		// reservation is what fails, still before anything is simulated.
		{[]string{"-figure", "hotspot", "-scenario-file", offCenter, "-policy", "guard", "-guard", "50"}, "guard channels 50"},
		// A solver tolerance no iteration can honour fails at the first
		// solve instead of running to a wrong answer or forever.
		{[]string{"-figure", "fig7", "-tol", "NaN"}, "tolerance NaN"},
		{[]string{"-figure", "fig7", "-tol", "Inf"}, "tolerance +Inf"},
		{[]string{"-figure", "fig7", "-tol", "-1"}, "tolerance -1"},
	}
	for _, tc := range tests {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			out := t.TempDir()
			start := time.Now()
			err := run(append(tc.args, "-quiet", "-out", out), io.Discard)
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("took %v to fail, want under 1s", elapsed)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

func TestUnknownFigure(t *testing.T) {
	err := run([]string{"-figure", "fig99", "-quiet", "-out", t.TempDir()}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Errorf("error %v, want an unknown-figure error", err)
	}
}

// TestProgressText pins the human-readable progress lines of point and group
// events.
func TestProgressText(t *testing.T) {
	tests := []struct {
		ev   experiments.ProgressEvent
		want string
	}{
		{experiments.ProgressEvent{Kind: "point", Figure: "fig05_plp_vs_eta", Done: 2, Total: 4, Replications: 3},
			"fig05_plp_vs_eta: simulated point 2/4 (3 replications)"},
		{experiments.ProgressEvent{Kind: "point", Figure: "f", Done: 1, Total: 4, Replications: 6, Adaptive: true},
			"f: simulated point 1/4 (6 replications, hit replication cap)"},
		{experiments.ProgressEvent{Kind: "point", Figure: "f", Done: 4, Total: 4, Replications: 2, Adaptive: true,
			Converged: true, RelativeHalfWidth: 0.0712}, "f: simulated point 4/4 (2 replications, converged at 0.071 relative half-width)"},
		{experiments.ProgressEvent{Kind: "group", Figure: "fig5", Done: 1, Total: 11}, "fig5 done (1/11 figure groups)"},
	}
	for _, tc := range tests {
		if got := progressText(tc.ev); got != tc.want {
			t.Errorf("progressText(%+v) = %q, want %q", tc.ev, got, tc.want)
		}
	}
}
