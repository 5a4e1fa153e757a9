// Highway: a mobility-gradient simulation the analytical model cannot
// express — a 19-cell wrap-around hex ring crossed by a highway corridor
// whose cells carry three times the baseline load moving at four times the
// baseline speed (dwell-time multiplier 0.25). The example runs the built-in
// "highway" preset on one group and on the sharded engine, verifies the two
// are bit-identical, and prints the per-cell response grouped by distance
// from the corridor axis. To isolate the mobility effect it then repeats the
// run with the same load shape but the paper's uniform dwell times: the
// corridor's outbound handover flow collapses while its carried load barely
// moves — dwell shaping skews the handover flow itself, not the load.
package main

import (
	"fmt"
	"log"
	"reflect"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func main() {
	topo, err := cluster.Preset(19)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := scenario.Preset("highway")
	if err != nil {
		log.Fatal(err)
	}

	withMobility := configure(topo)
	if _, err := scenario.Apply(&withMobility, spec); err != nil {
		log.Fatal(err)
	}

	serial, err := sim.RunOnce(withMobility, sim.ShardedOptions{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	sharded, err := sim.RunOnce(withMobility, sim.ShardedOptions{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		log.Fatal("one-group and sharded runs diverged — the determinism contract is broken")
	}
	fmt.Printf("scenario %q on %d cells: one group %d events, sharded %d events, bit-identical: true\n\n",
		spec.Name, topo.NumCells(), serial.Events, sharded.Events)

	// The control run: identical corridor load, uniform dwell times.
	loadOnly := spec
	loadOnly.Mobility = nil
	uniform := configure(topo)
	if _, err := scenario.Apply(&uniform, loadOnly); err != nil {
		log.Fatal(err)
	}
	baseline, err := sim.RunOnce(uniform, sim.ShardedOptions{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}

	dist := topo.AxisDistances(spec.Spatial.Center, spec.Spatial.Axis)
	fmt.Printf("per-axis-distance response (corridor = distance 0):\n")
	fmt.Printf("%-10s %6s %10s %10s %12s %12s %12s\n",
		"distance", "cells", "CVT", "AGS", "HO out/s", "HO out/s", "HO fail")
	fmt.Printf("%-10s %6s %10s %10s %12s %12s %12s\n",
		"", "", "", "", "(highway)", "(uniform)", "(highway)")
	maxDist := 0
	for _, d := range dist {
		if d > maxDist {
			maxDist = d
		}
	}
	for d := 0; d <= maxDist; d++ {
		var cvt, ags, hoOut, hoOutBase, fail float64
		n := 0
		for i, m := range serial.PerCell {
			if dist[i] != d {
				continue
			}
			cvt += m.CarriedVoiceTraffic
			ags += m.AverageSessions
			hoOut += float64(m.HandoversOut)
			hoOutBase += float64(baseline.PerCell[i].HandoversOut)
			fail += float64(m.HandoverFailures)
			n++
		}
		f := float64(n)
		sec := withMobility.MeasurementSec
		fmt.Printf("%-10d %6d %10.3f %10.3f %12.4f %12.4f %12.1f\n",
			d, n, cvt/f, ags/f, hoOut/f/sec, hoOutBase/f/sec, fail/f)
	}
	fmt.Printf("\nfast corridor users hand over several times as often as under uniform\n")
	fmt.Printf("dwell times; off-corridor cells are nearly unchanged — mobility skews\n")
	fmt.Printf("the handover flow, not the load.\n")
}

// configure returns the scaled-down 19-cell setup shared by both runs; the
// full-size version is `gprs-sim -cells 19 -scenario highway -percell`.
func configure(topo *cluster.Topology) sim.Config {
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.Topology = topo
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	cfg.MaxSessions = 10
	cfg.WarmupSec = 500
	cfg.MeasurementSec = 3000
	cfg.Batches = 5
	cfg.Seed = 42
	return cfg
}
