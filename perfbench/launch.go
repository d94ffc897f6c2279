package main

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/simnet"
	"cucc/internal/suites"
	"cucc/internal/vm"
)

// kernel is one program of a launch workload and the input size it runs
// at: the program's Small parameters with these overrides.
type kernel struct {
	name   string
	params suites.Params
	// ir also launches the program compiled from its source, which has no
	// native, so the default IR engine runs it.
	ir bool
}

// launchWorkload is a cluster shape plus the kernels one round launches.
type launchWorkload struct {
	nodes     int
	transport cluster.Transport
	kernels   []kernel
}

// launchCompute: block execution does almost all the work and the Allgather
// moves only KBs.  Every size gives each node phase-1 blocks.
var launchCompute = launchWorkload{
	nodes:     2,
	transport: cluster.Inproc,
	kernels: []kernel{
		{"FIR", suites.Params{"n": 16000}, true},
		{"Kmeans", suites.Params{"n": 8000}, true},
		{"BinomialOption", suites.Params{"blocks": 32}, true},
		{"EP", suites.Params{"n": 4800}, true},
		{"GA", suites.Params{"n": 5600}, true},
		{"MatMul", suites.Params{"tiles": 1}, true},
		{"Conv2D", suites.Params{"h": 16}, true},
	},
}

// launchComm: every rank Allgathers MBs with minimal compute per byte, over
// real loopback sockets.
var launchComm = launchWorkload{
	nodes:     4,
	transport: cluster.TCP,
	kernels: []kernel{
		{"VecAdd", suites.Params{"n": 1 << 20}, false},
		{"Transpose", suites.Params{"tiles": 4}, false},
	},
}

// kernelRun is one (program, path) a round launches.
type kernelRun struct {
	key     string // "<Program>.<native|ir>"
	sess    *core.Session
	inst    *suites.Instance
	outputs []cluster.Buffer
	ms      []float64 // wall time of every timed launch
}

// launchRegs are the registries a traced environment attaches: the
// cluster's (transport and comm) and one per path for the core metrics.
// All nil when untraced.
type launchRegs struct{ cluster, native, ir *metrics.Registry }

type launchEnv struct {
	c    *cluster.Cluster
	runs []*kernelRun
	regs launchRegs
	ones []byte // poison pattern, as long as the largest output
}

// launchTimes are the benchmark's own timers around the set-up and check
// calls, in ms.
type launchTimes struct {
	clusterNew []float64 // per cluster.New
	build      []float64 // per set-up, all Builds
	compile    []float64 // per core.Compile
	check      []float64 // per Instance.Check
	allocs     allocs    // allocated inside Session.Launch, summed
}

func (w launchWorkload) setup(nodes int, regs launchRegs, res *result, op int64, lt *launchTimes) (*launchEnv, error) {
	tr := res.tr
	parent := tr.id()
	setupStart := time.Now()
	defer func() { tr.record(parent, 0, op, "setup", setupStart, time.Now()) }()

	t := time.Now()
	c, err := cluster.New(cluster.Config{
		Nodes:     nodes,
		Machine:   machine.Intel6226(),
		Net:       simnet.IB100(),
		Transport: w.transport,
		Metrics:   regs.cluster,
	})
	end := time.Now()
	tr.record(0, parent, op, "cluster.New", t, end)
	if err != nil {
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	lt.clusterNew = append(lt.clusterNew, ms(end.Sub(t)))

	env := &launchEnv{c: c, regs: regs}
	// Figures depend on the node count, so a narrower cluster's launches
	// are checked under their own keys.
	tag := ""
	if nodes != w.nodes {
		tag = fmt.Sprintf("@%dnode", nodes)
	}
	var build time.Duration
	for _, k := range w.kernels {
		p, ok := suites.ByName(k.name)
		if !ok {
			c.Close()
			return nil, fmt.Errorf("no program %q", k.name)
		}
		params := maps.Clone(p.Small)
		maps.Copy(params, k.params)
		t = time.Now()
		inst, err := p.Build(c, params)
		end = time.Now()
		tr.record(0, parent, op, "Program.Build."+p.Name, t, end)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("%s: build: %w", p.Name, err)
		}
		build += end.Sub(t)
		env.add(p.Name+".native"+tag, p.Compiled, inst, regs.native)
		if !k.ir {
			continue
		}
		t = time.Now()
		prog, err := core.Compile(p.Source)
		end = time.Now()
		tr.record(0, parent, op, "core.Compile."+p.Name, t, end)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("%s: compile: %w", p.Name, err)
		}
		lt.compile = append(lt.compile, ms(end.Sub(t)))
		env.add(p.Name+".ir"+tag, prog, inst, regs.ir)
	}
	lt.build = append(lt.build, ms(build))
	return env, nil
}

func (e *launchEnv) add(key string, prog *core.Program, inst *suites.Instance, reg *metrics.Registry) {
	sess := core.NewSession(e.c, prog)
	sess.Host.Workers = 1
	sess.Metrics = reg
	k := &kernelRun{key: key, sess: sess, inst: inst, outputs: outputBuffers(prog, inst.Spec)}
	for _, b := range k.outputs {
		for len(e.ones) < b.Bytes() {
			e.ones = append(e.ones, 0xFF)
		}
	}
	e.runs = append(e.runs, k)
}

// round launches every kernel run once, in the given order, and returns the
// summed launch wall time in ms.  Output and figure checks run between the
// launches, outside the timer; each failure counts against the run.  Spans
// go to tr, which is nil for an untraced round.
func (e *launchEnv) round(order []int, res *result, tr *tracer, op int64, lt *launchTimes) float64 {
	parent := tr.id()
	start := time.Now()
	var total time.Duration
	for _, i := range order {
		d, err := e.launch(e.runs[i], res, tr, parent, op, lt)
		total += d
		res.attempted++
		if err != nil {
			res.fail(err)
		}
	}
	tr.record(parent, 0, op, "round", start, time.Now())
	return ms(total)
}

func (e *launchEnv) launch(k *kernelRun, res *result, tr *tracer, parent, op int64, lt *launchTimes) (time.Duration, error) {
	// Every launch starts from the same simulated state, as on a fresh
	// cluster: node clocks accumulate across launches, and TotalSec taken
	// as a difference of large clocks drifts in its last bits.
	e.c.ResetClocks()
	if err := poison(e.c, k.outputs, e.ones); err != nil {
		return 0, fmt.Errorf("%s: poison outputs: %w", k.key, err)
	}
	a0 := readAllocs()
	start := time.Now()
	stats, err := k.sess.Launch(k.inst.Spec)
	end := time.Now()
	lt.allocs = lt.allocs.add(readAllocs().sub(a0))
	tr.record(0, parent, op, "Session.Launch."+k.key, start, end)
	d := end.Sub(start)
	k.ms = append(k.ms, ms(d))
	if err != nil {
		return d, fmt.Errorf("%s: launch: %w", k.key, err)
	}
	start = time.Now()
	err = k.inst.Check()
	end = time.Now()
	tr.record(0, parent, op, "Instance.Check."+k.key, start, end)
	lt.check = append(lt.check, ms(end.Sub(start)))
	if err != nil {
		return d, fmt.Errorf("%s: output check: %w", k.key, err)
	}
	// Check reads node 0 only; every other node must hold the same output.
	for _, b := range k.outputs {
		if err := e.c.VerifyIdentical(b); err != nil {
			return d, fmt.Errorf("%s: output check: %w", k.key, err)
		}
	}
	return d, res.book.check(k.key, stats)
}

// setups is how many times a run sets its workload up; setup_s is the
// median.  Each set-up starts after a full GC, outside its timer, so the
// garbage of the one before does not land in it.  The last environment is
// the one the timed phase uses.
const setups = 15

// efficiencyRounds is how many 1-node rounds a traced run times for
// core.parallel_efficiency.
const efficiencyRounds = 5

func runLaunch(w launchWorkload, o options, res *result) error {
	vm0 := vm.ReadCacheStats()
	rng := rand.New(rand.NewSource(o.seed))
	var lt launchTimes
	var setupS []float64
	var env *launchEnv
	for i := range setups {
		if env != nil {
			env.c.Close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if env, err = w.setup(w.nodes, launchRegs{}, res, int64(-1-i), &lt); err != nil {
			return err
		}
		env.round(rng.Perm(len(env.runs)), res, res.tr, int64(-1-i), &lt) // warm-up
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer env.c.Close()

	// A traced run alternates rounds between env, which records no spans,
	// and a second environment with registries attached that records them,
	// so per-layer numbers and the tracing overhead come from the same
	// stretch of time.
	var traced *launchEnv
	if o.traced {
		regs := launchRegs{metrics.New(), metrics.New(), metrics.New()}
		var err error
		if traced, err = w.setup(w.nodes, regs, res, -1-setups, &lt); err != nil {
			return err
		}
		defer traced.c.Close()
		traced.round(rng.Perm(len(traced.runs)), res, res.tr, -1-setups, &lt)
		for _, k := range traced.runs {
			k.ms = nil
		}
	}

	runtime.GC()
	heap := startHeapSampler(5 * time.Millisecond)
	lt.allocs = allocs{}
	gc0 := readAllocs().gcCycles
	var plain, tracedMs []float64
	deadline := time.Now().Add(o.seconds)
	for r := 0; time.Now().Before(deadline); r++ {
		if traced != nil && r%2 == 1 {
			tracedMs = append(tracedMs, traced.round(rng.Perm(len(traced.runs)), res, res.tr, int64(r), &lt))
			continue
		}
		plain = append(plain, env.round(rng.Perm(len(env.runs)), res, nil, int64(r), &lt))
	}
	heapPeak := heap.Stop()
	gcCycles := readAllocs().gcCycles - gc0
	timedAllocs := lt.allocs

	m := res.metrics
	m["setup_s"] = median(setupS)
	m["op_p50_ms"] = quantile(plain, 0.50)
	m["op_p90_ms"] = quantile(plain, 0.90)
	m["ops_per_s"] = ratio(float64(len(plain)), sum(plain)/1e3)
	m["heap_peak_mb"] = heapPeak
	res.samples["rounds"] = len(plain)
	if traced == nil {
		return nil
	}
	res.samples["traced_rounds"] = len(tracedMs)

	one, err := w.setup(1, launchRegs{}, res, -2-setups, &launchTimes{})
	if err != nil {
		return err
	}
	one.round(rng.Perm(len(one.runs)), res, res.tr, -2-setups, &lt)
	var oneMs []float64
	for range efficiencyRounds {
		oneMs = append(oneMs, one.round(rng.Perm(len(one.runs)), res, res.tr, -2-setups, &lt))
	}
	one.c.Close()

	for _, k := range traced.runs {
		m["core.launch_ms."+k.key] = median(k.ms)
	}
	fillLaunchLayers(m, traced.regs)
	m["core.parallel_efficiency"] = ratio(median(oneMs), float64(w.nodes)*median(plain))
	m["cluster.new_ms"] = median(lt.clusterNew)
	m["suites.build_ms"] = median(lt.build)
	m["suites.check_ms"] = mean(lt.check)
	m["core.compile_ms"] = mean(lt.compile)
	fillVMCache(m, vm0)
	fillAllocs(m, timedAllocs, len(plain)+len(tracedMs), gcCycles)
	m["trace.overhead_pct"] = 100 * (ratio(median(tracedMs), median(plain)) - 1)
	return nil
}

// fillLaunchLayers derives the core, comm, transport and recovery layer
// metrics from a traced environment's registries.
func fillLaunchLayers(m map[string]float64, regs launchRegs) {
	nat, ir, cl := regs.native.Snapshot(), regs.ir.Snapshot(), regs.cluster.Snapshot()
	both := []metrics.Snapshot{nat, ir}
	launches := counters(both, core.MetricLaunches)
	launchS := histSums(both, core.MetricLaunchWallSec)
	partialS := histSums(both, core.MetricPartialWallSec)
	callbackS := histSums(both, core.MetricCallbackWallSec)
	m["core.launch_ms"] = 1e3 * ratio(launchS, launches)
	m["core.partial_ms"] = 1e3 * ratio(partialS, launches)
	m["core.callback_ms"] = 1e3 * ratio(callbackS, launches)
	m["core.allgather_ms"] = m["core.launch_ms"] - m["core.partial_ms"] - m["core.callback_ms"]

	irBlocks := counters([]metrics.Snapshot{ir}, core.MetricBlocksVM, core.MetricBlocksVMLanes)
	irPhaseS := histSums([]metrics.Snapshot{ir}, core.MetricPartialWallSec, core.MetricCallbackWallSec)
	m["vm.blocks_per_s"] = ratio(irBlocks, irPhaseS)
	natBlocks := counters([]metrics.Snapshot{nat}, core.MetricBlocksNative)
	natPhaseS := histSums([]metrics.Snapshot{nat}, core.MetricPartialWallSec, core.MetricCallbackWallSec)
	m["native.blocks_per_s"] = ratio(natBlocks, natPhaseS)

	fillCommLayers(m, cl, launches)
	m["recovery.checkpoints_per_job"] = ratio(counters([]metrics.Snapshot{nat, ir, cl}, "recovery.checkpoints"), launches)
}

// fillCommLayers derives the comm and transport layer metrics from the
// registry the cluster's transport reports into.
func fillCommLayers(m map[string]float64, s metrics.Snapshot, launches float64) {
	var commBytes, commS float64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "comm.") && strings.HasSuffix(name, ".bytes_sent") {
			commBytes += float64(v)
		}
	}
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "comm.") && strings.HasSuffix(name, ".seconds") {
			commS += h.Sum
		}
	}
	one := []metrics.Snapshot{s}
	m["comm.allgather_gbps"] = ratio(commBytes, commS) / 1e9
	m["comm.msgs_per_launch"] = ratio(counters(one, "transport.send.msgs"), launches)
	m["transport.bytes_per_launch"] = ratio(counters(one, "transport.send.bytes"), launches)
	m["transport.recv_wait_share"] = ratio(histSums(one, "transport.recv.wait_seconds"), commS)
	m["transport.errors"] = counters(one, "transport.send.errors", "transport.recv.errors",
		"transport.recv.timeouts", "transport.recv.aborts")
}

func counters(snaps []metrics.Snapshot, names ...string) float64 {
	var v float64
	for _, s := range snaps {
		for _, n := range names {
			v += float64(s.Counters[n])
		}
	}
	return v
}

func histSums(snaps []metrics.Snapshot, names ...string) float64 {
	var v float64
	for _, s := range snaps {
		for _, n := range names {
			v += s.Histograms[n].Sum
		}
	}
	return v
}

// fillVMCache reports the VM compile cache over the whole run, set-up
// included, from ReadCacheStats deltas.
func fillVMCache(m map[string]float64, before vm.CacheStats) {
	after := vm.ReadCacheStats()
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	m["vm.compile_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["vm.compile_s"] = after.CompileSeconds - before.CompileSeconds
}
