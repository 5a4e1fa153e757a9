package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// CSVHeader is the column layout of WriteCSV: one row per (window, cell).
// Columns named *_cum are cumulative since the measurement start (counters
// telescope exactly back to the terminal PerCell totals; the mean gauges are
// cumulative time-weighted averages, so the last row reproduces the terminal
// aggregates). Columns named window_* are per-window: deltas of the
// cumulative counters, the packet loss fraction of the window, and the
// delivered bit rate over the window length.
const CSVHeader = "time_sec,cell," +
	"offered_cum,lost_cum,delivered_cum,delay_sum_cum_sec," +
	"gsm_arrivals_cum,gsm_blocked_cum,gprs_arrivals_cum,gprs_blocked_cum," +
	"ho_in_cum,ho_out_cum,ho_arrivals_cum,ho_failures_cum," +
	"ho_guard_blocked_cum,ho_queued_cum,ho_queue_served_cum,ho_queue_expired_cum,ho_retries_cum,ho_transit_ends_cum," +
	"queue_len,voice_calls,sessions," +
	"carried_data_cum,mean_queue_cum,carried_voice_cum,avg_sessions_cum," +
	"window_offered,window_lost,window_delivered,window_plp,window_throughput_bits"

// fmtFloat renders a float through its shortest representation that parses
// back to exactly the same bits, so CSV round-trips are lossless.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV renders the series as CSV (see CSVHeader), one row per
// (window, cell), windows outermost.
func WriteCSV(w io.Writer, s *Series) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, CSVHeader)
	for k := range s.Times {
		for i := range s.Cells {
			m := &s.Cells[i].Samples[k]
			win, dt := s.Window(i, k)
			fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s,%s,%s,%d,%d,%d,%s,%s\n",
				fmtFloat(s.Times[k]), s.Cells[i].Cell,
				m.PacketsOffered, m.PacketsLost, m.PacketsDelivered, fmtFloat(m.DelaySumSec),
				m.GSMArrivals, m.GSMBlocked, m.GPRSArrivals, m.GPRSBlocked,
				m.HandoversIn, m.HandoversOut, m.HandoverArrivals, m.HandoverFailures,
				m.GuardBlocked, m.Queued, m.QueueServed, m.QueueExpired, m.Retries, m.TransitEnds,
				m.QueueLen, m.VoiceCalls, m.Sessions,
				fmtFloat(m.CarriedData), fmtFloat(m.MeanQueueLen),
				fmtFloat(m.CarriedVoice), fmtFloat(m.AvgSessions),
				win.PacketsOffered, win.PacketsLost, win.PacketsDelivered,
				fmtFloat(win.LossProbability()), fmtFloat(win.Throughput(dt)))
		}
	}
	return bw.Flush()
}

// jsonCell is the per-cell payload of one WriteJSONL record: the sample
// under its export column names plus the window's loss fraction and bit rate.
type jsonCell struct {
	Cell int `json:"cell"`
	Sample
	WindowPLP        float64 `json:"window_plp"`
	WindowThroughput float64 `json:"window_throughput_bits"`
}

// jsonWindow is one WriteJSONL record: a window-end timestamp plus every
// cell's sample.
type jsonWindow struct {
	TimeSec float64    `json:"time_sec"`
	Cells   []jsonCell `json:"cells"`
}

// WriteJSONL renders the series as JSON Lines: one object per window
// carrying every cell's sample, with the same cumulative/window semantics as
// the CSV columns.
func WriteJSONL(w io.Writer, s *Series) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	cells := make([]jsonCell, len(s.Cells))
	for k := range s.Times {
		for i := range s.Cells {
			win, dt := s.Window(i, k)
			cells[i] = jsonCell{
				Cell:             s.Cells[i].Cell,
				Sample:           s.Cells[i].Samples[k],
				WindowPLP:        win.LossProbability(),
				WindowThroughput: win.Throughput(dt),
			}
		}
		if err := enc.Encode(jsonWindow{TimeSec: s.Times[k], Cells: cells}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
