package probe

import "repro/internal/traffic"

// CellCounters is the flow record of one cell: every counter the simulator
// keeps per cell, counted over some span — since the start of the run in the
// simulator's cells, since the measurement start in a Sample, and over one
// window or batch after Sub. The JSON tags are the column names of the series
// exports (see CSVHeader); the two service splits of HandoversOut are not
// exported there.
type CellCounters struct {
	// PacketsOffered, PacketsLost and PacketsDelivered are the BSC buffer
	// counters; DelaySumSec is the total queueing delay of the delivered
	// packets.
	PacketsOffered   int64   `json:"offered_cum"`
	PacketsLost      int64   `json:"lost_cum"`
	PacketsDelivered int64   `json:"delivered_cum"`
	DelaySumSec      float64 `json:"delay_sum_cum_sec"`

	// GSMArrivals, GSMBlocked, GPRSArrivals and GPRSBlocked are the
	// fresh-arrival and blocking counters.
	GSMArrivals  int64 `json:"gsm_arrivals_cum"`
	GSMBlocked   int64 `json:"gsm_blocked_cum"`
	GPRSArrivals int64 `json:"gprs_arrivals_cum"`
	GPRSBlocked  int64 `json:"gprs_blocked_cum"`

	// HandoversIn and HandoversOut count admitted inbound and departed
	// outbound handovers. HandoverArrivals counts every handover message
	// reaching the cell — admitted, dropped for lack of capacity
	// (HandoverFailures), or carrying a voice call that completed in
	// transit — so summed over all cells, arrivals balance departures
	// exactly (wrap-around flow conservation) up to messages in flight.
	HandoversIn      int64 `json:"ho_in_cum"`
	HandoversOut     int64 `json:"ho_out_cum"`
	HandoverArrivals int64 `json:"ho_arrivals_cum"`
	HandoverFailures int64 `json:"ho_failures_cum"`

	// GuardBlocked, Queued, QueueServed, QueueExpired, Retries and
	// TransitEnds are the admission-policy counters (see
	// sim.CellMeasures: GuardBlockedCalls, HandoversQueued,
	// HandoverQueueServed, HandoverQueueExpired, HandoverRetries,
	// HandoverTransitEnds).
	GuardBlocked int64 `json:"ho_guard_blocked_cum"`
	Queued       int64 `json:"ho_queued_cum"`
	QueueServed  int64 `json:"ho_queue_served_cum"`
	QueueExpired int64 `json:"ho_queue_expired_cum"`
	Retries      int64 `json:"ho_retries_cum"`
	TransitEnds  int64 `json:"ho_transit_ends_cum"`

	// VoiceHandoversOut and SessionHandoversOut split HandoversOut by
	// service.
	VoiceHandoversOut   int64 `json:"-"`
	SessionHandoversOut int64 `json:"-"`
}

// Sub returns the counts accumulated between base and c, an earlier copy of
// the same cell's counters.
func (c CellCounters) Sub(base CellCounters) CellCounters {
	return CellCounters{
		PacketsOffered:      c.PacketsOffered - base.PacketsOffered,
		PacketsLost:         c.PacketsLost - base.PacketsLost,
		PacketsDelivered:    c.PacketsDelivered - base.PacketsDelivered,
		DelaySumSec:         c.DelaySumSec - base.DelaySumSec,
		GSMArrivals:         c.GSMArrivals - base.GSMArrivals,
		GSMBlocked:          c.GSMBlocked - base.GSMBlocked,
		GPRSArrivals:        c.GPRSArrivals - base.GPRSArrivals,
		GPRSBlocked:         c.GPRSBlocked - base.GPRSBlocked,
		HandoversIn:         c.HandoversIn - base.HandoversIn,
		HandoversOut:        c.HandoversOut - base.HandoversOut,
		HandoverArrivals:    c.HandoverArrivals - base.HandoverArrivals,
		HandoverFailures:    c.HandoverFailures - base.HandoverFailures,
		GuardBlocked:        c.GuardBlocked - base.GuardBlocked,
		Queued:              c.Queued - base.Queued,
		QueueServed:         c.QueueServed - base.QueueServed,
		QueueExpired:        c.QueueExpired - base.QueueExpired,
		Retries:             c.Retries - base.Retries,
		TransitEnds:         c.TransitEnds - base.TransitEnds,
		VoiceHandoversOut:   c.VoiceHandoversOut - base.VoiceHandoversOut,
		SessionHandoversOut: c.SessionHandoversOut - base.SessionHandoversOut,
	}
}

// LossProbability is the fraction of offered packets that were dropped
// (PLP), or 0 when none were offered.
func (c CellCounters) LossProbability() float64 {
	if c.PacketsOffered <= 0 {
		return 0
	}
	return float64(c.PacketsLost) / float64(c.PacketsOffered)
}

// QueueingDelay is the mean buffer time of the delivered packets in seconds
// (QD), or 0 when none were delivered.
func (c CellCounters) QueueingDelay() float64 {
	if c.PacketsDelivered <= 0 {
		return 0
	}
	return c.DelaySumSec / float64(c.PacketsDelivered)
}

// Throughput is the delivered data rate in bit/s over a span of dt simulated
// seconds, or 0 for an empty span.
func (c CellCounters) Throughput(dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	return float64(c.PacketsDelivered) * float64(traffic.PacketSizeBits) / dt
}

// GSMBlocking is the fraction of fresh GSM calls blocked, or 0 when none
// arrived.
func (c CellCounters) GSMBlocking() float64 {
	if c.GSMArrivals <= 0 {
		return 0
	}
	return float64(c.GSMBlocked) / float64(c.GSMArrivals)
}

// GPRSBlocking is the fraction of fresh GPRS session requests blocked, or 0
// when none arrived.
func (c CellCounters) GPRSBlocking() float64 {
	if c.GPRSArrivals <= 0 {
		return 0
	}
	return float64(c.GPRSBlocked) / float64(c.GPRSArrivals)
}
