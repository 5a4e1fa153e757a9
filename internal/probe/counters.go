package probe

import "repro/internal/traffic"

// CellCounters is the flow record of one cell: every counter the simulator
// keeps per cell, counted over some span — since the start of the run in the
// simulator's cells, since the measurement start in a Sample, over one
// window or batch after Sub, and over several replications after Add. It is
// embedded in sim.CellMeasures and, for the mid cell, in sim.Results. The
// JSON tags are the column names of the series
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

	// GuardBlockedCalls, HandoversQueued, HandoverQueueServed,
	// HandoverQueueExpired, HandoverRetries and HandoverTransitEnds are the
	// admission-policy counters (see internal/policy). GuardBlockedCalls
	// counts fresh calls blocked by the guard reservation alone (a channel
	// was free but reserved for handovers). The queue counters are the
	// queued-handovers ledger: on a drained run, queued = served + expired
	// exactly, and expired handovers are also counted in HandoverFailures.
	// HandoverRetries counts directed-retry forwards issued by the cell,
	// which are also counted in HandoversOut. HandoverTransitEnds counts
	// voice handovers whose call completed during the handover
	// interruption; this happens under a nil policy too.
	GuardBlockedCalls    int64 `json:"ho_guard_blocked_cum"`
	HandoversQueued      int64 `json:"ho_queued_cum"`
	HandoverQueueServed  int64 `json:"ho_queue_served_cum"`
	HandoverQueueExpired int64 `json:"ho_queue_expired_cum"`
	HandoverRetries      int64 `json:"ho_retries_cum"`
	HandoverTransitEnds  int64 `json:"ho_transit_ends_cum"`

	// VoiceHandoversOut and SessionHandoversOut split HandoversOut by
	// service.
	VoiceHandoversOut   int64 `json:"-"`
	SessionHandoversOut int64 `json:"-"`
}

// Add returns the field-by-field sum of c and d, as when merging the
// counters of several replications.
func (c CellCounters) Add(d CellCounters) CellCounters { return c.plus(d, 1) }

// Sub returns the counts accumulated between base and c, an earlier copy of
// the same cell's counters.
func (c CellCounters) Sub(base CellCounters) CellCounters { return c.plus(base, -1) }

// plus returns c + sign*d field by field; it is the one list of counters Add
// and Sub share. For the float counter, a + (-1)*b equals a - b exactly.
func (c CellCounters) plus(d CellCounters, sign int64) CellCounters {
	return CellCounters{
		PacketsOffered:       c.PacketsOffered + sign*d.PacketsOffered,
		PacketsLost:          c.PacketsLost + sign*d.PacketsLost,
		PacketsDelivered:     c.PacketsDelivered + sign*d.PacketsDelivered,
		DelaySumSec:          c.DelaySumSec + float64(sign)*d.DelaySumSec,
		GSMArrivals:          c.GSMArrivals + sign*d.GSMArrivals,
		GSMBlocked:           c.GSMBlocked + sign*d.GSMBlocked,
		GPRSArrivals:         c.GPRSArrivals + sign*d.GPRSArrivals,
		GPRSBlocked:          c.GPRSBlocked + sign*d.GPRSBlocked,
		HandoversIn:          c.HandoversIn + sign*d.HandoversIn,
		HandoversOut:         c.HandoversOut + sign*d.HandoversOut,
		HandoverArrivals:     c.HandoverArrivals + sign*d.HandoverArrivals,
		HandoverFailures:     c.HandoverFailures + sign*d.HandoverFailures,
		GuardBlockedCalls:    c.GuardBlockedCalls + sign*d.GuardBlockedCalls,
		HandoversQueued:      c.HandoversQueued + sign*d.HandoversQueued,
		HandoverQueueServed:  c.HandoverQueueServed + sign*d.HandoverQueueServed,
		HandoverQueueExpired: c.HandoverQueueExpired + sign*d.HandoverQueueExpired,
		HandoverRetries:      c.HandoverRetries + sign*d.HandoverRetries,
		HandoverTransitEnds:  c.HandoverTransitEnds + sign*d.HandoverTransitEnds,
		VoiceHandoversOut:    c.VoiceHandoversOut + sign*d.VoiceHandoversOut,
		SessionHandoversOut:  c.SessionHandoversOut + sign*d.SessionHandoversOut,
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
