package main

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// resultDigest condenses a Results value and its per-cell report into a
// short hex digest: every measure and counter, serialized field by field
// with floats in their shortest exact form, then sha256, truncated to eight
// bytes. It is the canonical form the golden digests of internal/sim's
// scenario-equivalence tests use (seedDigest there), so a value pinned by
// the benchmark can be compared with one pinned by the test suite.
func resultDigest(r sim.Results) string {
	var b strings.Builder
	for _, iv := range []stats.Interval{
		r.CarriedDataTraffic, r.PacketLossProbability, r.QueueingDelay,
		r.ThroughputBits, r.ThroughputPerUserBits, r.AverageSessions,
		r.CarriedVoiceTraffic, r.GSMBlockingProbability, r.GPRSBlockingProbability,
		r.MeanQueueLength,
	} {
		digestInterval(&b, iv)
	}
	fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%d|%d|", r.PacketsOffered, r.PacketsLost,
		r.PacketsDelivered, r.HandoversIn, r.HandoversOut, r.TCPTimeouts, r.TCPFastRecovers)
	b.WriteString(digestFloat(r.SimulatedSec))
	fmt.Fprintf(&b, "|%d\n", r.Events)
	for _, m := range r.PerCell {
		fmt.Fprintf(&b, "%d|", m.Cell)
		for _, v := range []float64{
			m.CarriedDataTraffic, m.MeanQueueLength, m.CarriedVoiceTraffic,
			m.AverageSessions, m.PacketLossProbability, m.QueueingDelaySec,
			m.ThroughputBits, m.GSMBlocking, m.GPRSBlocking,
		} {
			b.WriteString(digestFloat(v))
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			m.PacketsOffered, m.PacketsLost, m.PacketsDelivered,
			m.HandoversIn, m.HandoversOut, m.VoiceHandoversOut,
			m.SessionHandoversOut, m.HandoverArrivals, m.HandoverFailures)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:8])
}

func digestFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func digestInterval(b *strings.Builder, iv stats.Interval) {
	b.WriteString(digestFloat(iv.Mean))
	b.WriteByte('|')
	b.WriteString(digestFloat(iv.HalfWidth))
	b.WriteByte('|')
	b.WriteString(digestFloat(iv.Level))
	b.WriteByte('|')
	fmt.Fprintf(b, "%d;", iv.Batches)
}
