package scenario

import (
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Workload is what a command or an experiment installs on every simulator
// run on top of its own base configuration: the cluster size, the cell→group
// partitioning, the load scenario and an explicit admission-policy override.
// The zero value leaves a configuration unchanged.
type Workload struct {
	// Cells selects the cluster (cluster.Preset); 0 keeps the
	// configuration's topology (the paper's seven-cell cluster by default).
	Cells int
	// Partition, when non-nil, pins the cell→group assignment of the sharded
	// engine; it never affects results.
	Partition *partition.Spec
	// Spec, when non-nil, is the scenario compiled onto the configuration;
	// nil keeps the uniform load of the paper.
	Spec *Spec
	// Policy, when non-nil, overrides the admission policy the scenario
	// declares; the None kind restores the paper's default rule. Nil keeps
	// the scenario's policy.
	Policy *policy.Config
}

// Apply installs the workload on cfg in a fixed order — topology, partition,
// scenario, policy override — and returns the compiled rate profile (nil
// without a scenario). The scenario compiles against cfg's baseline rates, so
// per-point changes to them (a GPRS fraction, say) must precede Apply.
func (w Workload) Apply(cfg *sim.Config) (*Profile, error) {
	if w.Cells != 0 {
		topo, err := cluster.Preset(w.Cells)
		if err != nil {
			return nil, err
		}
		cfg.Topology = topo
	}
	if w.Partition != nil {
		cfg.Partition = w.Partition
	}
	var prof *Profile
	if w.Spec != nil {
		var err error
		if prof, err = Apply(cfg, *w.Spec); err != nil {
			return nil, err
		}
	}
	if w.Policy != nil {
		cfg.Policy = nil
		if w.Policy.Kind != policy.None {
			cfg.Policy = w.Policy
		}
	}
	return prof, nil
}
