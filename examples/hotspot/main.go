// Hotspot: a heterogeneous-load simulation the analytical model cannot
// express — a 19-cell wrap-around hex ring whose mid cell carries a radial
// traffic hotspot, run end to end on the sharded parallel engine. The example
// loads the "evening-rush" scenario from the JSON file next to this program
// (a normalized hotspot riding a periodic busy-hour ramp; falling back to the
// built-in hotspot preset when the file is not found), runs the same
// configuration on one group and on the sharded engine, verifies the two are
// bit-identical, and prints the per-cell response by hex distance from the
// hotspot center. It then replays the identical workload under each handover
// admission policy (internal/policy) and compares how guard channels, queued
// handovers, and directed retry trade fresh-call blocking against handover
// failures.
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"reflect"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	topo, err := cluster.Preset(19)
	if err != nil {
		log.Fatal(err)
	}

	// A scaled-down cell and a short run keep the example under a minute;
	// cmd/gprs-sim -scenario hotspot runs the full-size version.
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 500
	cfg.MeasurementSec = 3000
	cfg.Batches = 5
	cfg.Seed = 42

	spec := loadScenario()
	prof, err := scenario.Apply(&cfg, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q on %d cells: per-cell weights %v\n\n",
		spec.Name, topo.NumCells(), round3(prof.Weights()))

	serial, err := sim.RunOnce(cfg, sim.ShardedOptions{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	sharded, err := sim.RunOnce(cfg, sim.ShardedOptions{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		log.Fatal("one-group and sharded runs diverged — the determinism contract is broken")
	}
	fmt.Printf("one group:      %d events\n", serial.Events)
	fmt.Printf("sharded engine: %d events, bit-identical results: true\n\n", sharded.Events)

	// The spatial response: cells at equal hex distance from the hotspot
	// center are statistically identical, so group them.
	center := spec.Spatial.Center
	dist := topo.Distances(center)
	fmt.Printf("%-14s %6s %8s %8s %12s %12s\n",
		"distance", "cells", "CVT", "AGS", "GSM block", "tput (bit/s)")
	for d := 0; d <= topo.Eccentricity(center); d++ {
		var cvt, ags, blk, tput float64
		n := 0
		for _, m := range serial.PerCell {
			if dist[m.Cell] != d {
				continue
			}
			cvt += m.CarriedVoiceTraffic
			ags += m.AverageSessions
			blk += m.GSMBlocking
			tput += m.ThroughputBits
			n++
		}
		f := float64(n)
		fmt.Printf("%-14d %6d %8.3f %8.3f %12.4f %12.0f\n",
			d, n, cvt/f, ags/f, blk/f, tput/f)
	}

	// The policy comparison: the identical workload (same seed, same
	// scenario) under each handover admission policy. Guard channels trade
	// fresh-call blocking for handover protection, queued handovers convert
	// hard failures into short waits bounded by the deadline, and directed
	// retry spills failed handovers to the next neighbour.
	fmt.Printf("\nadmission-policy comparison (same workload, same seed):\n")
	fmt.Printf("%-22s %10s %8s %9s %22s %7s\n",
		"policy", "GSM block", "HO fail", "guard blk", "HO queued/served/expd", "retries")
	policies := []struct {
		label string
		p     *policy.Config
	}{
		{"default (paper)", nil},
		{"guard (2 reserved)", &policy.Config{Kind: policy.GuardChannels, Guard: 2}},
		{"queue (cap 4, 5s)", &policy.Config{Kind: policy.QueuedHandovers, QueueCapacity: 4, QueueDeadlineSec: 5}},
		{"retry (one forward)", &policy.Config{Kind: policy.DirectedRetry}},
	}
	for _, pc := range policies {
		pcfg := cfg
		pcfg.Policy = pc.p
		res, err := sim.RunOnce(pcfg, sim.ShardedOptions{Shards: 4})
		if err != nil {
			log.Fatal(err)
		}
		var blk float64
		var hoFail, guardBlk, qd, srv, exp, rty int64
		for _, m := range res.PerCell {
			blk += m.GSMBlocking
			hoFail += m.HandoverFailures
			guardBlk += m.GuardBlockedCalls
			qd += m.HandoversQueued
			srv += m.HandoverQueueServed
			exp += m.HandoverQueueExpired
			rty += m.HandoverRetries
		}
		fmt.Printf("%-22s %10.4f %8d %9d %12d/%4d/%4d %7d\n",
			pc.label, blk/float64(len(res.PerCell)), hoFail, guardBlk, qd, srv, exp, rty)
	}
}

// loadScenario reads the scenario file shipped with the example, falling back
// to the built-in hotspot preset when the example runs from another directory.
func loadScenario() scenario.Spec {
	for _, path := range []string{"scenario.json", "examples/hotspot/scenario.json"} {
		if _, err := os.Stat(path); err == nil {
			spec, err := scenario.Load(path)
			if err != nil {
				log.Fatal(err)
			}
			return spec
		}
	}
	spec, err := scenario.Preset(scenario.Hotspot)
	if err != nil {
		log.Fatal(err)
	}
	return spec
}

func round3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
