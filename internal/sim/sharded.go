package sim

import (
	"fmt"
	"runtime"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/partition"
	"repro/internal/probe"
	"repro/internal/shard"
	"repro/internal/traffic"
)

// ShardedOptions configures the shard-parallel engine.
type ShardedOptions struct {
	// Shards is the number of workers advancing cell groups in parallel. In
	// NewSharded the zero value means min(NumCPU, number of cells); in
	// RunOnce and RunOnceSeries any value <= 1 means one group (New). It
	// also sets the default group count when Config.Partition does not pin
	// one. Neither the worker count nor the grouping ever affects results —
	// a given (seed, configuration) is bit-identical for every partitioning
	// and worker count, a single group included.
	Shards int
	// Limiter, when non-nil, bounds the shard workers together with outer
	// fan-outs (typically the replication pool's shared runner.Limiter), so
	// shard-level and replication-level parallelism compose under one global
	// worker bound. A single group never takes a token.
	Limiter shard.Limiter
}

// Sharded runs the detailed network-level model of the GSM/GPRS cluster with
// one event calendar per cell group. New puts every cell on one calendar,
// which runs straight through; NewSharded groups the cells by
// Config.Partition (internal/partition; locality-aware grouping by default)
// and advances several groups in conservative time windows by the shard
// engine. Cells of one group interact directly on their shared calendar, and
// only cross-group handovers travel as barrier messages. The window length
// (synchronization lookahead) is the handover latency: handovers are the only
// cross-cell interaction, and a handover decided at time t takes effect at
// t + HandoverLatencySec, so no message can arrive inside the window that
// produced it. Cross-group handovers are merged deterministically by
// (timestamp, source group, sequence number), which makes the results
// reproducible regardless of the partitioning, worker count, or shard layout.
type Sharded struct {
	config Config
	bpp    int
	cells  []*cell
	groups []*groupProc
	part   *partition.Assignment
	engine *shard.Engine // nil for a single group
	pstate *probeState
}

// groupProc adapts one cell group (with its shared calendar) to the shard
// engine's Process interface, buffering outbound cross-group handovers until
// the window barrier.
type groupProc struct {
	id     int
	eng    *des.Simulation
	outbox []shard.Message
	seq    uint64

	// free recycles handover transit records. A record is acquired from the
	// source group's pool at dispatch and released into the destination
	// group's pool when its delivery fires — each pool is only ever touched
	// by the goroutine currently advancing its group (or by the barrier), so
	// no locking is needed. Intra-group handovers acquire and release on the
	// same pool.
	free []*groupTransit
}

// groupTransit is one handover message in flight between cells of the sharded
// engine. It rides as the message Payload (a pointer, so boxing into the
// interface does not allocate); fn is bound to the record once, at first
// allocation, so dispatch and delivery allocate nothing in steady state.
type groupTransit struct {
	grp  *groupProc // pool that receives the record back after delivery
	cell *cell      // destination cell
	msg  handoverMsg
	fn   func()
}

func (p *groupProc) getTransit() *groupTransit {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return t
	}
	t := &groupTransit{}
	t.fn = func() {
		g := t.grp
		t.cell.receive(t.msg)
		t.msg = handoverMsg{}
		t.cell = nil
		t.grp = nil
		g.free = append(g.free, t)
	}
	return t
}

// Advance resets the outbox of the previous window (its messages were merged
// at the barrier), runs the group's calendar, and returns the buffered
// messages without copying — the shard engine consumes the slice before this
// group's next Advance call.
func (p *groupProc) Advance(t float64) []shard.Message {
	p.outbox = p.outbox[:0]
	p.eng.RunUntil(t)
	if len(p.outbox) == 0 {
		return nil
	}
	return p.outbox
}

func (p *groupProc) Deliver(m shard.Message) {
	t := m.Payload.(*groupTransit)
	t.grp = p
	if _, err := p.eng.Schedule(m.At, t.fn); err != nil {
		// The shard engine guarantees m.At is at or beyond this group's
		// clock, and Schedule accepts the current time.
		panic(err)
	}
}

// RunOnce builds and runs one simulator to completion: all cells on one
// calendar (New) when opt.Shards <= 1, otherwise on the sharded engine
// (NewSharded). Every grouping is bit-identical for a given configuration, so
// opt affects only how the run is scheduled. It is the single
// engine-selection point shared by cmd/gprs-sim and the replication runner.
func RunOnce(cfg Config, opt ShardedOptions) (Results, error) {
	res, _, err := RunOnceSeries(cfg, opt)
	return res, err
}

// RunOnceSeries is RunOnce with the recorded sim-time series returned
// alongside the results. The series is nil when cfg.Probe is unset; the
// Results are bit-identical to RunOnce's either way (the probe's determinism
// contract). Like RunOnce it is single-use per call: it builds a fresh engine.
func RunOnceSeries(cfg Config, opt ShardedOptions) (Results, *probe.Series, error) {
	e, err := build(cfg, opt, opt.Shards <= 1)
	if err != nil {
		return Results{}, nil, err
	}
	res, err := e.Run()
	if err != nil {
		return Results{}, nil, err
	}
	return res, e.Series(), nil
}

// New validates the configuration and builds a simulator with every cell on
// one event calendar. The calendar runs straight to each target time: it
// crosses no synchronization window and takes no Limiter token, and
// Config.Partition is ignored (the reported Config keeps it as given).
func New(cfg Config) (*Sharded, error) {
	return build(cfg, ShardedOptions{}, true)
}

// NewSharded validates the configuration, resolves the cell→group partition,
// and builds a sharded simulator. It is single-use; Run may use up to Shards
// goroutines. When Config.Partition is nil the cells are grouped by the
// locality-aware partitioner into one group per worker, using the rate
// profile's integrated per-cell load as weights; a single group runs like New.
func NewSharded(cfg Config, opt ShardedOptions) (*Sharded, error) {
	return build(cfg, opt, false)
}

// build is the construction path of New and NewSharded: it validates and
// defaults the configuration, computes the radio blocks per packet, resolves
// the partition (the trivial one-group assignment when oneGroup is set, or
// when one worker has no partition pinned), and creates one calendar per
// group shared by its member cells. Only a multi-group build gets a shard
// engine.
func build(cfg Config, opt ShardedOptions, oneGroup bool) (*Sharded, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	bpp := cfg.Channels.Coding.RadioBlocksPerPacket(traffic.PacketSizeBytes)
	if bpp < 1 {
		return nil, fmt.Errorf("%w: coding scheme %v yields no radio blocks", ErrInvalidConfig, cfg.Channels.Coding)
	}
	n := cfg.Topology.NumCells()
	workers := opt.Shards
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, n)
	spec := cfg.Partition
	var assign *partition.Assignment
	var err error
	if oneGroup || (spec == nil && workers == 1) {
		assign, err = partition.IndexRange(n, 1)
	} else {
		if spec == nil {
			spec = &partition.Spec{Kind: partition.KindLocality}
		}
		assign, err = spec.Build(cfg.Topology, cellLoadWeights(cfg), workers)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}

	s := &Sharded{config: cfg, bpp: bpp, part: assign}
	s.groups = make([]*groupProc, assign.NumGroups())
	procs := make([]shard.Process, len(s.groups))
	for g := range s.groups {
		s.groups[g] = &groupProc{id: g, eng: des.NewSimulation()}
		procs[g] = s.groups[g]
	}
	s.cells = make([]*cell, n)
	for i := range s.cells {
		s.cells[i] = newCell(i, s, s.groups[assign.Of(i)].eng, cfg.Seed, cfg.Streams)
	}
	if len(s.groups) > 1 {
		s.engine, err = shard.New(procs, shard.Options{
			Lookahead: cfg.HandoverLatencySec,
			Shards:    opt.Shards,
			Limiter:   opt.Limiter,
			Metrics:   probe.Default,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	if cfg.Probe != nil {
		s.pstate = newProbeState(*cfg.Probe, s.cells)
	}
	return s, nil
}

// Config returns the (defaulted) configuration of the simulator.
func (s *Sharded) Config() Config { return s.config }

// MidCell returns the index of the measured cell.
func (s *Sharded) MidCell() int { return cluster.MidCell }

// Shards returns the number of workers advancing cell groups in parallel.
func (s *Sharded) Shards() int {
	if s.engine == nil {
		return 1
	}
	return s.engine.Shards()
}

// Partition returns the resolved cell→group assignment of this simulator.
func (s *Sharded) Partition() *partition.Assignment { return s.part }

// GroupEvents returns the events processed so far on every group's calendar,
// indexed by partition group — the per-group load breakdown the telemetry
// registry publishes at run end.
func (s *Sharded) GroupEvents() []uint64 {
	out := make([]uint64, len(s.groups))
	for g, p := range s.groups {
		out[g] = p.eng.ProcessedEvents()
	}
	return out
}

// Run executes warm-up plus the measurement period and returns the mid-cell
// results. On success the per-group event counts are published to the
// process-wide telemetry registry (probe.Default).
func (s *Sharded) Run() (Results, error) {
	res, err := collectRun(s)
	if err != nil {
		return res, err
	}
	probe.Default.SetGroupEvents(s.GroupEvents())
	return res, nil
}

// Series returns the sim-time series recorded by the run, or nil when
// Config.Probe was unset (or Run has not executed yet).
func (s *Sharded) Series() *probe.Series {
	if s.pstate == nil {
		return nil
	}
	return s.pstate.series
}

// ShardStats returns the shard engine's cumulative synchronization counters:
// windows advanced and handover messages merged at window barriers. Only
// cross-group handovers travel as barrier messages (intra-group handovers are
// scheduled directly on the group calendar), so MergedMessages equals the
// cells' summed cross-group handover departures — with a one-cell-per-group
// partition that is every handover departure, the historic per-cell-shard
// accounting. A single group crosses no window: its counters stay zero.
func (s *Sharded) ShardStats() shard.Stats {
	if s.engine == nil {
		return shard.Stats{}
	}
	return s.engine.Stats()
}

func (s *Sharded) conf() *Config             { return &s.config }
func (s *Sharded) radioBlocksPerPacket() int { return s.bpp }

// advanceTo runs every group to time t: a single group straight through on
// its calendar, several groups in shard-engine windows.
func (s *Sharded) advanceTo(t float64) error {
	if s.engine == nil {
		s.groups[0].eng.RunUntil(t)
		return nil
	}
	return s.engine.AdvanceTo(t)
}

func (s *Sharded) processedEvents() uint64 {
	var total uint64
	for _, p := range s.groups {
		total += p.eng.ProcessedEvents()
	}
	return total
}

func (s *Sharded) poolStats() (hits, misses, free uint64) {
	for _, p := range s.groups {
		h, m := p.eng.PoolStats()
		hits += h
		misses += m
		free += uint64(p.eng.FreeEvents())
	}
	return hits, misses, free
}

// dispatch sends a handover message from src to cell dst. An intra-group
// handover is scheduled directly on the shared group calendar; a cross-group
// handover is queued on the source group's outbox and merged and
// delivered by the shard engine at the next window barrier. Either way the
// message fires at src.now() + HandoverLatencySec, so the split is invisible
// to the model.
func (s *Sharded) dispatch(src *cell, dst int, m handoverMsg) {
	sg := s.groups[s.part.Of(src.id)]
	t := sg.getTransit()
	t.cell = s.cells[dst]
	t.msg = m
	at := src.now() + s.config.HandoverLatencySec
	dg := s.part.Of(dst)
	if dg == sg.id {
		t.grp = sg
		if _, err := sg.eng.Schedule(at, t.fn); err != nil {
			// Delays are non-negative and finite by construction; an error
			// here would be a programming bug, not a model condition.
			panic(err)
		}
		return
	}
	sg.seq++
	sg.outbox = append(sg.outbox, shard.Message{
		At:      at,
		Src:     sg.id,
		Dst:     dg,
		Seq:     sg.seq,
		Payload: t,
	})
}
