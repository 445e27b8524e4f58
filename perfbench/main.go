// Command perfbench is the repository's benchmark. It drives the mapping
// pipeline through three workloads and prints, as its last line, one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). Run it through run.sh from the repository
// root:
//
//	bash perfbench/run.sh --workload map_grid --seed 7 --seconds 10 --trace 0
//
// Workloads, the layer-to-metric predictions and the modules left
// unmeasured are recorded in ledger.json next to this file.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEndMetrics are what a user of the system sees; every workload
// reports all of them. They must match BENCHMARK.json's end_to_end list.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
	{"cold_ms_p50", "ms"},
	{"sim_maccess_per_s", "Maccess/s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"cycles_ratio", "ratio"},
	{"ok_ratio", "ratio"},
}

// perLayerMetrics come from the traced run and are named
// <module>.<metric>. They must match BENCHMARK.json's per_layer list.
var perLayerMetrics = []metricDef{
	{"poly.points_ms", "ms"},
	{"poly.points", "count"},
	{"tags.compute_ms", "ms"},
	{"tags.compute_alloc_mb", "MB"},
	{"tags.coarsen_ms", "ms"},
	{"tags.groups", "count"},
	{"tags.blocks", "count"},
	{"deps.analyze_ms", "ms"},
	{"deps.collapse_ms", "ms"},
	{"deps.edges", "count"},
	{"core.distribute_ms", "ms"},
	{"core.distribute_alloc_mb", "MB"},
	{"schedule.build_ms", "ms"},
	{"baseline.base_ms", "ms"},
	{"baseline.baseplus_ms", "ms"},
	{"trace.drain_ms", "ms"},
	{"trace.accesses", "count"},
	{"cachesim.simulate_ms", "ms"},
	{"cachesim.alloc_mb", "MB"},
	{"cachesim.maccess_per_s", "Maccess/s"},
	{"cachesim.mem_accesses", "count"},
	{"lang.compile_ms", "ms"},
	{"topology.unmarshal_ms", "ms"},
	{"serve.handler_warm_ms", "ms"},
	{"serve.lru_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.computed", "count"},
	{"serve.shed_ratio", "ratio"},
	{"bench.untraced_ops_per_s", "ops/s"},
	{"bench.traced_ops_per_s", "ops/s"},
	{"bench.trace_slowdown", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings every workload receives, and the
// speed probe of an untraced run.
type options struct {
	seed    int64
	seconds time.Duration
	outDir  string
	speed   *speedProbe
}

// workload runs one benchmark workload, untraced or traced. Both return
// values keyed by metric name; the caller attaches units and checks that
// every metric of the mode is present. setUp does the workload's set-up
// as the program would, up to the point where the first op could be
// issued, and returns what undoes it; it is what setup_s times.
type workload struct {
	name    string
	setUp   func(ctx context.Context) (undo func() error, err error)
	measure func(ctx context.Context, o options) (*outcome, error)
	traced  func(ctx context.Context, o options) (*outcome, error)
}

// outcome is a workload's raw result before rendering.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

var benchWorkloads = []workload{
	{"map_grid", setUpGrid(mapGridCells), measureMapGrid, tracedMapGrid},
	{"sim_steady", setUpGrid(simSteadyCells), measureSimSteady, tracedSimSteady},
	{"serve_mixed", setUpServeMixed, measureServeMixed, tracedServeMixed},
}

// runDeadline keeps every run inside the 180 s a run may take, whatever
// the host's speed: a cell still running then is cancelled and fails.
const runDeadline = 170 * time.Second

// concurrency bounds concurrent cells, server workers and clients: the
// load comes from one process using at most two CPUs.
func concurrency() int { return min(2, runtime.NumCPU()) }

func main() {
	name := flag.String("workload", "", "workload to run: map_grid, sim_steady or serve_mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	setupOnly := flag.Bool("setup-only", false, "only do the workload's set-up, print \"ready\" and undo it (how setup_s is timed)")
	flag.Parse()

	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {map_grid,sim_steady,serve_mixed}, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = ".bench_build"
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if *setupOnly {
		if err := setUpOnly(ctx, w); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", w.name, err)
			cancel()
			os.Exit(1)
		}
		return
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: outDir}
	printEnv(w.name, o, *traced)

	run, defs := w.measure, endToEndMetrics
	if *traced == 1 {
		run, defs = w.traced, perLayerMetrics
	} else {
		o.speed = startSpeedProbe()
	}
	out, err := run(ctx, o)
	if o.speed != nil {
		o.speed.close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		cancel()
		os.Exit(1)
	}
	res, err := render(out, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		cancel()
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		cancel()
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setUpOnly does w's set-up, reports it done with a "ready" line and
// undoes it.
func setUpOnly(ctx context.Context, w *workload) error {
	undo, err := w.setUp(ctx)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	if undo != nil {
		return undo()
	}
	return nil
}

// measureSetup is setup_s: the median over reps launches of this program
// in --setup-only mode of the time from just before the launch until the
// child prints "ready", so process start is included. Each launch is
// scaled to the reference host speed over its own window.
func measureSetup(ctx context.Context, o options, name string, reps int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("timing set-up: %w", err)
	}
	type window struct{ start, end time.Time }
	var launches []window
	for i := 0; i < reps; i++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", name, "--setup-only")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, fmt.Errorf("timing set-up: %w", err)
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("timing set-up: %w", err)
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		end := time.Now()
		_, _ = io.Copy(io.Discard, stdout) // lets the child finish writing
		if werr := cmd.Wait(); werr != nil || rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up launch %d: said %q (%v), exited with %v", i, line, rerr, werr)
		}
		launches = append(launches, window{start, end})
	}
	var raw, norm []float64
	for _, l := range launches {
		f, err := o.speed.factor(l.start, l.end)
		if err != nil {
			return 0, err
		}
		raw = append(raw, l.end.Sub(l.start).Seconds())
		norm = append(norm, l.end.Sub(l.start).Seconds()*f)
	}
	report("setup_s: median of %d launches, raw %.4fs, at reference speed %.4fs", reps, median(raw), median(norm))
	return median(norm), nil
}

// render attaches units and checks that the outcome carries exactly the
// metrics of its mode, each a finite number.
func render(out *outcome, defs []metricDef) (*result, error) {
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number: %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(out.values) != len(defs) {
		var extra []string
		for k := range out.values {
			if _, ok := res.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics measured: %v", extra)
	}
	return res, nil
}

// printEnv prints the run's identity: what was run, with which seed, on
// what host and toolchain.
func printEnv(name string, o options, traced int) {
	env := map[string]any{
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	line, _ := json.Marshal(env) // a map of strings and numbers always encodes
	fmt.Println("env " + string(line))
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// report prints one human-readable note ahead of the result line.
func report(format string, args ...any) { fmt.Printf(format+"\n", args...) }

// tailNote prints which percentile a tail metric reports and over how
// many samples.
func tailNote(metric string, p float64, n int) {
	report("%s reports p%g of n=%d (%d samples beyond it)", metric, p, n, n-rank(p, n))
}
