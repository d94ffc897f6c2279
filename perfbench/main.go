package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure: its name in BENCHMARK.json and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1).  A layer a workload
// does not reach reads 0 there.
var perLayer = append([]metric{
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.run_mean_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.failed", "count"},
	{"serve.job_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"cluster.new_ms", "ms"},
	{"suites.build_ms", "ms"},
	{"suites.check_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"vm.compile_cache_hit_ratio", "ratio"},
	{"vm.compile_s", "s"},
	{"vm.blocks_per_s", "1/s"},
	{"native.blocks_per_s", "1/s"},
	{"core.launch_ms", "ms"},
	{"core.partial_ms", "ms"},
	{"core.callback_ms", "ms"},
	{"core.allgather_ms", "ms"},
	{"core.parallel_efficiency", "ratio"},
	{"comm.allgather_gbps", "GB/s"},
	{"comm.msgs_per_launch", "count"},
	{"transport.recv_wait_share", "ratio"},
	{"transport.bytes_per_launch", "B"},
	{"transport.errors", "count"},
	{"recovery.checkpoints_per_job", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"error_ratio", "ratio"},
}, kernelLaunchMetrics()...)

// kernelLaunchMetrics names the per-kernel launch p50 of every (program,
// path) the launch workloads run.
func kernelLaunchMetrics() []metric {
	var out []metric
	for _, w := range []launchWorkload{launchCompute, launchComm} {
		for _, k := range w.kernels {
			out = append(out, metric{"core.launch_ms." + k.name + ".native", "ms"})
			if k.ir {
				out = append(out, metric{"core.launch_ms." + k.name + ".ir", "ms"})
			}
		}
	}
	return out
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
}

// result accumulates one run's outcome.  Workloads update it from a single
// goroutine.
type result struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
	samples           map[string]int // sample counts, printed beside the metrics
	tr                *tracer        // nil when untraced
	book              *figureBook
}

// maxErrs bounds how many failure messages a run keeps for its report.
const maxErrs = 20

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

var workloads = map[string]func(options, *result) error{
	"launch-compute": func(o options, r *result) error { return runLaunch(launchCompute, o, r) },
	"launch-comm":    func(o options, r *result) error { return runLaunch(launchComm, o, r) },
	"serve-mix":      runServe,
}

// run executes one benchmark run and returns the exit code: 0 only when
// every operation succeeded and every output and simulated figure checked.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: launch-compute, launch-comm or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed: launch order, arrival schedule, tenant draws, source literals and input values")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run: attach registries, record spans, print the per-layer metrics")
	writeGolden := fs.String("write-golden", "", "record this run's simulated figures as the workload's golden file in this directory instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	work, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload launch-compute|launch-comm|serve-mix, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	book, err := newFigureBook(*name, *writeGolden != "")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1}
	res := &result{metrics: map[string]float64{}, samples: map[string]int{}, book: book}
	defs := endToEnd
	if o.traced {
		res.tr = newTracer()
		defs = perLayer
	}
	if err := work(o, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if o.traced {
		res.metrics["error_ratio"] = ratio(float64(res.failed), float64(res.attempted))
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d.spans.json", *name, *seed))
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	if *writeGolden != "" {
		if err := book.writeGolden(*writeGolden); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing golden figures:", err)
			return 1
		}
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: FAILED:", e)
	}
	return report(stdout, *name, *seed, o, res, defs)
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

// report prints a readable table, then the result as the last line.
func report(w io.Writer, name string, seed int64, o options, res *result, defs []metric) int {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g traced=%v attempted=%d failed=%d samples=%v\n",
		name, seed, o.seconds.Seconds(), o.traced, res.attempted, res.failed, res.samples)
	line := reportLine{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   map[string]reportValue{},
	}
	if res.attempted == 0 {
		line.Failed = 1
	}
	for _, d := range defs {
		v := res.metrics[d.name]
		line.Metrics[d.name] = reportValue{v, d.unit}
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.name, v, d.unit)
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(w, err)
		return 1
	}
	fmt.Fprintln(w, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}
