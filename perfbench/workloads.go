package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ctmc"
	"repro/internal/experiments"
	"repro/internal/probe"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// procs pins every thread and goroutine bound of the benchmark: GOMAXPROCS,
// the sweep and replication workers and the shard count. It is pinned
// rather than read from NumCPU because the adaptive stop point and the
// partition depend on it.
const procs = 2

// Simulated horizon of replicated-7cell; city-169cell runs half of it (see
// cityConfig).
const (
	warmupSec      = 200
	measurementSec = 1000
	batches        = 5
)

// errWorkloadChanged marks an output whose event, sweep or replication count
// differs from its pin: the program no longer runs the pinned workload, so
// timings cannot be compared with an earlier baseline.
var errWorkloadChanged = errors.New("workload definition changed: re-pin the benchmark and take a new baseline")

// workload is one pinned benchmark workload. Its inputs are a fixed list;
// --seed picks the order in which a run cycles through them.
type workload struct {
	name   string
	inputs int
	// setup times one set-up of input i: the work done before the first
	// event or sweep.
	setup func(i int) (time.Duration, error)
	// op runs one measured operation on input i and checks its output; a
	// failed check is returned as the error.
	op func(i int) (opResult, error)
	// trace runs the traced breakdown of input i (see trace.go).
	trace func(i int, primary bool, t *tally) (layerMetrics, error)
}

// opResult is what one measured operation reports.
type opResult struct {
	run    time.Duration // wall time of the measured call
	setup  time.Duration // set-up inside the operation, when it has one
	events uint64        // simulated events; Gauss–Seidel sweeps on analytic-sweep
}

var workloads = []*workload{
	{name: "analytic-sweep", inputs: 1, setup: analyticSetup, op: analyticOp, trace: analyticTrace},
	{name: "replicated-7cell", inputs: len(replicatedPins), setup: replicatedSetup, op: replicatedOp, trace: replicatedTrace},
	{name: "city-169cell", inputs: len(cityPins), setup: citySetup, op: cityOp, trace: cityTrace},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// ---- analytic-sweep -------------------------------------------------------

// gridPoint is one model solve of the Fig. 7 sweep.
type gridPoint struct {
	model traffic.Model
	pdch  int
	rate  float64
}

// fig7Grid lists the 24 solves of experiments.Fig7CDT at Quick fidelity in
// figure (traffic model), series (reserved PDCHs), point (call rate) order.
func fig7Grid() []gridPoint {
	var grid []gridPoint
	for _, model := range []traffic.Model{traffic.Model1, traffic.Model2} {
		for _, pdch := range []int{1, 2, 4} {
			for _, rate := range []float64{0.1, 0.3, 0.6, 1.0} {
				grid = append(grid, gridPoint{model, pdch, rate})
			}
		}
	}
	return grid
}

// quickModelConfig is the Quick-fidelity analytical cell of package
// experiments (10 channels, buffer 30, at most 10 sessions) at one point.
func quickModelConfig(p gridPoint) core.Config {
	cfg := core.BaseConfig(p.model, p.rate)
	cfg.Channels.TotalChannels = 10
	cfg.BufferSize = 30
	if cfg.MaxSessions > 10 {
		cfg.MaxSessions = 10
	}
	cfg.Channels.ReservedPDCH = p.pdch
	return cfg
}

// fig7Solver mirrors the solver defaults of package experiments.
var fig7Solver = ctmc.SolveOptions{Tolerance: 1e-6, MaxIterations: 20000}

// Pins of analytic-sweep: the carried data traffic of every grid point (in
// fig7Grid order), the summed Gauss–Seidel sweeps and the residual bound
// every solution must meet.
var fig7CDT = []float64{
	0.096965267051351001, 0.12375416033973873, 0.13789927010436678, 0.14660506584396499,
	0.09698006050718877, 0.12385000692218755, 0.13811019587086473, 0.14693972960605556,
	0.09698016835935927, 0.1238505239682112, 0.13811131608039914, 0.1469414241343544,
	0.096500955653171724, 0.11795824348563293, 0.12752638596711, 0.13294352789054861,
	0.098496532680406312, 0.12540322297561288, 0.13938900402917456, 0.14795225366346729,
	0.098797045086711305, 0.12646911481607637, 0.14109253164750793, 0.15013499005854256,
}

const (
	fig7Sweeps    = 11810
	residualBound = 1e-6
)

func analyticSetup(int) (time.Duration, error) {
	grid := fig7Grid()
	cfgs := make([]core.Config, len(grid))
	for i, p := range grid {
		cfgs[i] = quickModelConfig(p)
	}
	t0 := time.Now()
	for _, cfg := range cfgs {
		if _, err := core.New(cfg); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func analyticOp(int) (opResult, error) {
	t0 := time.Now()
	figs, err := experiments.Fig7CDT(experiments.Options{Fidelity: experiments.Quick, Workers: procs})
	res := opResult{run: time.Since(t0), events: fig7Sweeps}
	if err != nil {
		return res, err
	}
	var cdt []float64
	for _, f := range figs {
		for _, s := range f.Series {
			cdt = append(cdt, s.Y...)
		}
	}
	if len(cdt) != len(fig7CDT) {
		return res, fmt.Errorf("%w: %d sweep points, pinned %d", errWorkloadChanged, len(cdt), len(fig7CDT))
	}
	for i, v := range cdt {
		if err := checkCDT(i, v); err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkCDT compares grid point i's carried data traffic with its pin within
// the solver tolerance.
func checkCDT(i int, v float64) error {
	want := fig7CDT[i]
	if !(math.Abs(v-want) <= fig7Solver.Tolerance*math.Abs(want)) {
		return fmt.Errorf("grid point %d: carried data traffic %.17g, pinned %.17g", i, v, want)
	}
	return nil
}

// ---- replicated-7cell -----------------------------------------------------

// simPin pins one input of a simulation workload: its seed and what the
// program must produce from it.
type simPin struct {
	seed   int64
	reps   int    // replications to the 2% interval (replicated-7cell)
	events uint64 // simulated events
	digest string // resultDigest of the (merged) results
}

var replicatedPins = []simPin{
	{seed: 1, reps: 24, events: 12425831, digest: "0df1ab4f9f5921e0"},
	{seed: 2, reps: 36, events: 18721232, digest: "8af007e3ce0a15c3"},
}

// simBaseConfig is the paper's base point, Model 3 at 0.5 calls/s per cell
// with TCP on, over the benchmark's horizon.
func simBaseConfig() sim.Config {
	cfg := sim.DefaultConfig(traffic.Model3, 0.5)
	cfg.WarmupSec = warmupSec
	cfg.MeasurementSec = measurementSec
	cfg.Batches = batches
	return cfg
}

func replicatedOptions(baseSeed int64) runner.Options {
	return runner.Options{Precision: 0.02, Target: runner.MeasureThroughput, Workers: procs, BaseSeed: baseSeed}
}

func replicatedSetup(i int) (time.Duration, error) {
	cfg := simBaseConfig()
	cfg.Seed = runner.SeedFor(replicatedPins[i].seed, 0)
	t0 := time.Now()
	_, err := sim.New(cfg)
	return time.Since(t0), err
}

func replicatedOp(i int) (opResult, error) {
	res, _, err := runReplicated(replicatedPins[i])
	return res, err
}

// runReplicated runs and checks one replicated-7cell operation.
func runReplicated(pin simPin) (opResult, runner.Summary, error) {
	t0 := time.Now()
	sum, err := runner.Run(simBaseConfig(), replicatedOptions(pin.seed))
	res := opResult{run: time.Since(t0), events: sum.Merged.Events}
	if err == nil {
		err = checkReplicated(sum, pin)
	}
	return res, sum, err
}

func checkReplicated(sum runner.Summary, pin simPin) error {
	if !sum.Converged {
		return fmt.Errorf("seed %d: stopped at the replication cap, %.3g relative half-width", pin.seed, sum.RelativeHalfWidth)
	}
	if sum.Replications != pin.reps {
		return fmt.Errorf("%w: seed %d stopped at %d replications, pinned %d", errWorkloadChanged, pin.seed, sum.Replications, pin.reps)
	}
	return checkResults(sum.Merged, pin)
}

// checkResults compares a result with its pin: the event count first (a
// mismatch means a different workload), then the digest.
func checkResults(r sim.Results, pin simPin) error {
	if r.Events != pin.events {
		return fmt.Errorf("%w: seed %d ran %d events, pinned %d", errWorkloadChanged, pin.seed, r.Events, pin.events)
	}
	if d := resultDigest(r); d != pin.digest {
		return fmt.Errorf("seed %d: result digest %s, pinned %s", pin.seed, d, pin.digest)
	}
	return nil
}

// ---- city-169cell ---------------------------------------------------------

var cityPins = []simPin{
	{seed: 1, events: 5554650, digest: "20eab2171e19fba8"},
	{seed: 2, events: 5515036, digest: "4786190bdcb3977b"},
}

const (
	cityCells = 169
	// cityHorizon scales the simulated horizon down to 100 s of warm-up and
	// 500 s of measurement, which still crosses the trace profile's rate
	// steps at 300 s and 600 s. A sharded call's wall time varies by up to a
	// factor of two on a 2-CPU virtual machine, so a run needs many short
	// calls for a steady mean.
	cityHorizon  = 0.5
	cityProbeSec = 25
	// cityWindows is the probe series length: one sample per 25 s of the
	// 500 s measurement.
	cityWindows = 20
)

var cityTopology = sync.OnceValues(func() (*cluster.Topology, error) { return cluster.Preset(cityCells) })

// cityScenario composes the hotspot preset's spatial shape with the trace
// preset's temporal profile.
func cityScenario() (scenario.Spec, error) {
	hot, err := scenario.Preset(scenario.Hotspot)
	if err != nil {
		return scenario.Spec{}, err
	}
	tr, err := scenario.Preset(scenario.Trace)
	if err != nil {
		return scenario.Spec{}, err
	}
	return scenario.Spec{Name: "hotspot-trace", Spatial: hot.Spatial, Temporal: tr.Temporal}, nil
}

// cityRun is one built city-169cell engine with its set-up timings.
type cityRun struct {
	cfg    sim.Config
	engine *sim.Sharded
	apply  time.Duration // scenario compile
	build  time.Duration // sharded engine build
}

func newCityRun(seed int64) (*cityRun, error) {
	topo, err := cityTopology()
	if err != nil {
		return nil, err
	}
	spec, err := cityScenario()
	if err != nil {
		return nil, err
	}
	c := &cityRun{cfg: simBaseConfig()}
	c.cfg.WarmupSec *= cityHorizon
	c.cfg.MeasurementSec *= cityHorizon
	c.cfg.Topology = topo
	c.cfg.Seed = seed
	c.cfg.Probe = &probe.Spec{IntervalSec: cityProbeSec}
	t0 := time.Now()
	if _, err := scenario.Apply(&c.cfg, spec); err != nil {
		return nil, err
	}
	t1 := time.Now()
	c.engine, err = sim.NewSharded(c.cfg, sim.ShardedOptions{Shards: procs})
	c.apply, c.build = t1.Sub(t0), time.Since(t1)
	return c, err
}

func (c *cityRun) setup() time.Duration { return c.apply + c.build }

// exportSeries renders the run's probe series as CSV into memory and checks
// its shape: a header plus one row per window and cell.
func exportSeries(s *probe.Series) error {
	if s == nil {
		return errors.New("probe armed but no series recorded")
	}
	var buf bytes.Buffer
	if err := probe.WriteCSV(&buf, s); err != nil {
		return err
	}
	if rows := bytes.Count(buf.Bytes(), []byte{'\n'}); rows != 1+s.Windows()*cityCells {
		return fmt.Errorf("series CSV has %d lines, want %d", rows, 1+s.Windows()*cityCells)
	}
	return nil
}

func citySetup(i int) (time.Duration, error) {
	c, err := newCityRun(cityPins[i].seed)
	if err != nil {
		return 0, err
	}
	return c.setup(), nil
}

func cityOp(i int) (opResult, error) {
	pin := cityPins[i]
	c, err := newCityRun(pin.seed)
	if err != nil {
		return opResult{}, err
	}
	r, run, export, err := c.call(pin)
	return opResult{run: run + export, setup: c.setup(), events: r.Events}, err
}

// call runs the built engine, exports its series and checks the output; it
// returns the time of Run and of the export.
func (c *cityRun) call(pin simPin) (r sim.Results, run, export time.Duration, err error) {
	t0 := time.Now()
	r, err = c.engine.Run()
	run = time.Since(t0)
	if err != nil {
		return r, run, 0, err
	}
	t1 := time.Now()
	err = exportSeries(c.engine.Series())
	export = time.Since(t1)
	if err != nil {
		return r, run, export, err
	}
	return r, run, export, checkCity(c, r, pin)
}

func checkCity(c *cityRun, r sim.Results, pin simPin) error {
	if w := c.engine.Series().Windows(); w != cityWindows {
		return fmt.Errorf("%w: %d probe windows, pinned %d", errWorkloadChanged, w, cityWindows)
	}
	var sum uint64
	for _, n := range c.engine.GroupEvents() {
		sum += n
	}
	if sum != r.Events {
		return fmt.Errorf("group events sum to %d, run reports %d", sum, r.Events)
	}
	return checkResults(r, pin)
}
