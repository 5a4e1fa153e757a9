package probe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/traffic"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name        string
		interval    float64
		measurement float64
		wantErr     bool
	}{
		{"valid", 10, 20000, false},
		{"valid without horizon", 10, 0, false},
		{"zero interval", 0, 20000, true},
		{"negative interval", -1, 20000, true},
		{"NaN interval", math.NaN(), 20000, true},
		{"infinite interval", math.Inf(1), 20000, true},
		{"too many windows", 1e-6, 20000, true},
		{"largest allowed window count", 20000.0 / maxWindows, 20000, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Spec{IntervalSec: c.interval}.Validate(c.measurement)
			if (err != nil) != c.wantErr {
				t.Fatalf("Validate(%v over %v) = %v, wantErr %v", c.interval, c.measurement, err, c.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), ErrInvalidSpec.Error()) {
				t.Errorf("error %v does not wrap ErrInvalidSpec", err)
			}
		})
	}
}

func TestNewSeriesPreallocation(t *testing.T) {
	spec := Spec{IntervalSec: 37.5}
	capacity := spec.Windows(600)
	if capacity < 17 {
		t.Fatalf("600 s at 37.5 s needs at least 16+1 windows of capacity, got %d", capacity)
	}
	s := NewSeries(3, spec.IntervalSec, 200, capacity)
	if s.Windows() != 0 || len(s.Cells) != 3 {
		t.Fatalf("fresh series: %d windows, %d cells", s.Windows(), len(s.Cells))
	}
	for i, c := range s.Cells {
		if c.Cell != i {
			t.Errorf("cell %d mislabeled as %d", i, c.Cell)
		}
		if cap(c.Samples) != capacity {
			t.Errorf("cell %d: buffers not preallocated to %d", i, capacity)
		}
	}
}

func TestRuntimeSnapshotDerivedRates(t *testing.T) {
	r := NewRuntime()
	r.EventsProcessed.Add(1000)
	r.PoolHits.Add(3)
	r.PoolMisses.Add(1)
	r.AdvanceNanos.Add(60)
	r.BarrierWaitNanos.Add(40)
	r.SetAdaptive(0.042, true)
	s := r.Snapshot()
	if s.EventsProcessed != 1000 || s.UptimeSec <= 0 || s.EventsPerSec <= 0 {
		t.Errorf("throughput snapshot wrong: %+v", s)
	}
	if s.PoolHitRate != 0.75 {
		t.Errorf("pool hit rate %v, want 0.75", s.PoolHitRate)
	}
	if s.BarrierWaitFrac != 0.4 {
		t.Errorf("barrier wait fraction %v, want 0.4", s.BarrierWaitFrac)
	}
	if s.AdaptiveRelHW != 0.042 || !s.AdaptiveConverged {
		t.Errorf("adaptive state wrong: %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must be JSON-encodable: %v", err)
	}

	// A fresh registry must not divide by zero anywhere.
	z := NewRuntime().Snapshot()
	if z.PoolHitRate != 0 || z.BarrierWaitFrac != 0 {
		t.Errorf("zero registry produced nonzero rates: %+v", z)
	}
}

// sampleSeries builds a two-window, one-cell series with hand-picked values.
func sampleSeries() *Series {
	s := NewSeries(1, 10, 100, 4)
	s.Times = append(s.Times, 110, 120)
	c := &s.Cells[0]
	c.Samples = append(c.Samples,
		Sample{
			CellCounters: CellCounters{
				PacketsOffered: 4, PacketsDelivered: 2, DelaySumSec: 0.5,
				GSMArrivals: 1, GPRSArrivals: 1, HandoversOut: 1,
			},
			QueueLen: 3, VoiceCalls: 5, Sessions: 1,
			CarriedData: 0.5, MeanQueueLen: 2.5, CarriedVoice: 5.5, AvgSessions: 1,
		},
		Sample{
			CellCounters: CellCounters{
				PacketsOffered: 10, PacketsLost: 3, PacketsDelivered: 6, DelaySumSec: 1.25,
				GSMArrivals: 2, GSMBlocked: 1, GPRSArrivals: 1,
				HandoversIn: 2, HandoversOut: 1, HandoverArrivals: 2,
				GuardBlockedCalls: 1, HandoversQueued: 2, HandoverQueueServed: 1, HandoverQueueExpired: 1, HandoverRetries: 1, HandoverTransitEnds: 1,
			},
			QueueLen: 0, VoiceCalls: 4, Sessions: 2,
			CarriedData: 0.625, MeanQueueLen: 2.25, CarriedVoice: 5.125, AvgSessions: 1.5,
		})
	return s
}

func TestWriteCSVWindowDerivation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows", len(lines))
	}
	if lines[0] != CSVHeader {
		t.Errorf("header mismatch:\n%s", lines[0])
	}
	// Second window: deltas 6 offered, 3 lost, 4 delivered over 10 s.
	fields := strings.Split(lines[2], ",")
	header := strings.Split(CSVHeader, ",")
	got := map[string]string{}
	for i, name := range header {
		got[name] = fields[i]
	}
	wantTput := fmt.Sprint(4 * float64(traffic.PacketSizeBits) / 10)
	for name, want := range map[string]string{
		"time_sec":               "120",
		"cell":                   "0",
		"offered_cum":            "10",
		"window_offered":         "6",
		"window_lost":            "3",
		"window_delivered":       "4",
		"window_plp":             "0.5",
		"window_throughput_bits": wantTput,
		"carried_voice_cum":      "5.125",
		"ho_guard_blocked_cum":   "1",
		"ho_queued_cum":          "2",
		"ho_queue_served_cum":    "1",
		"ho_queue_expired_cum":   "1",
		"ho_retries_cum":         "1",
		"ho_transit_ends_cum":    "1",
	} {
		if got[name] != want {
			t.Errorf("column %s = %q, want %q", name, got[name], want)
		}
	}
}

func TestWriteJSONLWindowDerivation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var records []jsonWindow
	for {
		var w jsonWindow
		if err := dec.Decode(&w); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		records = append(records, w)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	last := records[1]
	if last.TimeSec != 120 || len(last.Cells) != 1 {
		t.Fatalf("last record wrong: %+v", last)
	}
	c := last.Cells[0]
	if c.PacketsOffered != 10 || c.WindowPLP != 0.5 {
		t.Errorf("cumulative/window fields wrong: %+v", c)
	}
	if c.GuardBlockedCalls != 1 || c.HandoversQueued != 2 || c.HandoverQueueServed != 1 || c.HandoverQueueExpired != 1 || c.HandoverRetries != 1 || c.HandoverTransitEnds != 1 {
		t.Errorf("policy counter fields wrong: %+v", c)
	}
	if want := 4 * float64(traffic.PacketSizeBits) / 10; c.WindowThroughput != want {
		t.Errorf("window throughput %v, want %v", c.WindowThroughput, want)
	}
}

func TestServeTelemetry(t *testing.T) {
	addr, err := ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars returned %d", resp.StatusCode)
	}
	var vars struct {
		GPRS *Snapshot `json:"gprs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.GPRS == nil {
		t.Fatal("expvar page is missing the gprs snapshot")
	}
	if vars.GPRS.UptimeSec <= 0 {
		t.Errorf("snapshot looks unpopulated: %+v", vars.GPRS)
	}
	// The pprof mux must be mounted on the same endpoint.
	pp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline returned %d", pp.StatusCode)
	}
}
