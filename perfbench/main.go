// Command perfbench is the repository benchmark. One invocation runs one
// pinned workload for a fixed wall-time budget, checks every output against
// its pin, and prints as its last line one JSON object with the run's
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1). See
// README.md for the workloads, the metrics and how to run it.
//
//	go run . --workload replicated-7cell --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// setupReps is how many stand-alone set-ups a run times before measuring;
// setup_s is their median (plus the set-ups inside the operations).
const setupReps = 21

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: analytic-sweep, replicated-7cell or city-169cell")
	seed := fs.Int64("seed", 1, "seed picking the order of the workload's pinned inputs")
	seconds := fs.Float64("seconds", 10, "wall-time budget of the measured loop")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of analytic-sweep, replicated-7cell, city-169cell), --trace 0|1 and --seconds > 0\n")
		return 2
	}
	runtime.GOMAXPROCS(procs)

	inputs := rotation(w.inputs, *seed)
	manifest := map[string]any{
		"workload": w.name, "seed": *seed, "inputs": inputs, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"go": runtime.Version(), "revision": revision(),
	}
	line, _ := json.Marshal(manifest)
	fmt.Fprintf(stdout, "manifest %s\n", line)

	t := &tally{log: stderr}
	var values map[string]float64
	var err error
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
		values, err = traced(w, *seed, t)
	} else {
		values, err = measure(w, inputs, time.Duration(*seconds*float64(time.Second)), t, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s not measured\n", s.Name)
			return 1
		}
		out.Metrics[s.Name] = metric{v, s.Unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", s.Name, v, s.Unit)
	}
	out.Correct = t.attempted > 0 && t.failed == 0
	line, err = json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// tally counts the checked operations of a run and the failed ones.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// check records one operation; err is its failure, nil if it passed.
func (t *tally) check(op string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "FAILED %s: %v\n", op, err)
	}
}

// rotation returns the order in which a run visits n pinned inputs: all of
// them, starting at seed mod n.
func rotation(n int, seed int64) []int {
	start := int((seed%int64(n) + int64(n)) % int64(n))
	order := make([]int, n)
	for k := range order {
		order[k] = (start + k) % n
	}
	return order
}

// measure times the workload's set-up setupReps times, then runs operations
// on the inputs in rotation until the budget is spent and every input ran at
// least once. run_s is the mean over inputs of the input's mean call time:
// on a 2-CPU virtual machine the sharded engine's calls fall into two modes
// about a third apart, and a median flips between them from run to run
// where a mean does not. setup_s and peak_heap_mib are medians.
func measure(w *workload, inputs []int, budget time.Duration, t *tally, stdout io.Writer) (map[string]float64, error) {
	var setup []float64
	for k := 0; k < setupReps; k++ {
		d, err := w.setup(inputs[k%len(inputs)])
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, d.Seconds())
	}
	runS := make([][]float64, w.inputs)
	heapMiB := make([][]float64, w.inputs)
	events := make([]uint64, w.inputs)
	start := time.Now()
	for k := 0; k < len(inputs) || time.Since(start) < budget; k++ {
		i := inputs[k%len(inputs)]
		runtime.GC()
		h := watchHeap()
		res, err := w.op(i)
		peak := h.stopWatch()
		t.check(fmt.Sprintf("%s input %d", w.name, i), err)
		runS[i] = append(runS[i], res.run.Seconds())
		heapMiB[i] = append(heapMiB[i], float64(peak)/(1<<20))
		events[i] = res.events
		if res.setup > 0 {
			setup = append(setup, res.setup.Seconds())
		}
	}

	values := map[string]float64{"setup_s": summarize(setup).Median}
	fmt.Fprintf(stdout, "%-16s %s\n", "setup_s", summarize(setup))
	var totalEvents uint64
	var totalRun float64
	for _, i := range inputs {
		run, heap := summarize(runS[i]), summarize(heapMiB[i])
		fmt.Fprintf(stdout, "%-16s mean %.6g  %s\n", fmt.Sprintf("run_s[%d]", i), mean(runS[i]), run)
		fmt.Fprintf(stdout, "%-16s %s\n", fmt.Sprintf("peak_heap_mib[%d]", i), heap)
		values["run_s"] += mean(runS[i]) / float64(len(inputs))
		values["peak_heap_mib"] += heap.Median / float64(len(inputs))
		totalEvents += events[i]
		totalRun += mean(runS[i])
	}
	values["events_per_s"] = float64(totalEvents) / totalRun
	return values, nil
}

// revision is the VCS revision the binary was built from, when the build
// recorded one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
