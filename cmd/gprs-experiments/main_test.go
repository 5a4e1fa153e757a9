package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
// point would reject fail before the figure's analytical sweep starts: the
// Fig. 6 model solves alone take seconds, the rejection microseconds.
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
