package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/machine"
	"cucc/internal/metrics"
	"cucc/internal/obs"
	"cucc/internal/recovery"
	"cucc/internal/serve"
	"cucc/internal/simnet"
	"cucc/internal/suites"
	"cucc/internal/vm"
)

const (
	// serveNodes is every job's cluster size.
	serveNodes = 2
	// openRate is the open loop's Poisson arrival rate, jobs/s: under a
	// tenth of the closed loop's capacity on a 2-core machine, so jobs
	// seldom overlap and the latency tail is the jobs', not the queue's.
	// At 500/s one competing busy loop on the host raised p50 by 118% and
	// p90 by 170%; at 250/s by 35% and 55%.
	openRate = 100.0
	// closedShare is the share of --seconds the closed loop runs; the open
	// loop runs the rest.  The two alternate in rounds: closedShare of a
	// round closed, then the rest of it open.  On a shared machine an
	// open loop that ran alone after the closed one got slower within
	// seconds of the machine going quiet (p90 up from about 3.4 to 5 ms);
	// the closed stretches keep it in the busy state the closed loop
	// measures, and a slow stretch of the host lands on both loops alike.
	closedShare = 1.0 / 3
	round       = 3 * time.Second
	// window cuts the open loop's time, and every workload's heap samples,
	// into stretches; a run reports the median over windows, so a short
	// stall of a shared machine moves one window, not the result.
	window = time.Second
	// serveSetups is how many times serve-mix sets up; setup_s is the
	// median.  A server set-up takes about 60 ms, and for the first second
	// or so of a process it took twice that: up to 9 of the first set-ups.
	// With 31 the median falls among the later ones.
	serveSetups = 31
	// warmupJobs are sent after each server boot.
	warmupJobs = 90
	// probes is how many times a traced run times cluster.New, Build,
	// Check and core.Compile at the jobs' configuration.
	probes = 10
)

// The three tenants of the mix.
const (
	tenantVecAdd = "vecadd" // suite mode, VecAdd at Small scale
	tenantFIR    = "fir"    // suite mode, FIR at Small scale
	tenantSaxpy  = "saxpy"  // source mode, checked by buffer CRCs
)

var tenants = []string{tenantVecAdd, tenantFIR, tenantSaxpy}

// plan is one job of the mix.
type plan struct {
	tenant string
	sax    saxpyJob // saxpy tenant only
}

// makePlan draws a job of the given tenant.  About one saxpy job in ten
// carries a fresh literal, so its source misses every compile cache.
func makePlan(rng *rand.Rand, tenant string) plan {
	p := plan{tenant: tenant}
	if tenant == tenantSaxpy {
		p.sax = saxpyJob{lit: 1, a: float64(1 + rng.Intn(8)),
			fx: float64(rng.Intn(100)), fy: float64(rng.Intn(100))}
		if rng.Intn(10) == 0 {
			p.sax.lit = 2 + rng.Intn(1_000_000)
		}
	}
	return p
}

func drawPlan(rng *rand.Rand) plan { return makePlan(rng, tenants[rng.Intn(len(tenants))]) }

func (p plan) request() *serve.Request {
	switch p.tenant {
	case tenantVecAdd:
		return &serve.Request{Tenant: p.tenant, Program: "VecAdd", Nodes: serveNodes}
	case tenantFIR:
		return &serve.Request{Tenant: p.tenant, Program: "FIR", Nodes: serveNodes}
	}
	return &serve.Request{
		Tenant: p.tenant,
		Source: saxpySource(p.sax.lit),
		Kernel: "saxpy",
		GridX:  saxpyN / saxpyBlock, BlockX: saxpyBlock,
		Args: []serve.ArgSpec{
			{Kind: "buf", Elem: "f32", Count: saxpyN, Fill: p.sax.fx, Ramp: true},
			{Kind: "buf", Elem: "f32", Count: saxpyN, Fill: p.sax.fy, Ramp: true},
			{Kind: "float", Float: p.sax.a},
			{Kind: "int", Int: saxpyN},
		},
		Nodes: serveNodes,
	}
}

// verify accepts a suite job only on StatusOK (the server checked its
// output against the Go reference), a source job only when its buffer CRCs
// match the Go reference, and either only with unmoved simulated figures.
func (p plan) verify(resp *serve.Response, book *figureBook) error {
	if resp.Status != serve.StatusOK {
		return fmt.Errorf("%s: status %s: %s", p.tenant, resp.Status, resp.Err)
	}
	if p.tenant == tenantSaxpy {
		if err := checkCRCs(resp.BufCRCs, p.sax.wantCRCs()); err != nil {
			return err
		}
	}
	return book.check(p.tenant, resp.Stats)
}

// outcome is one job as the client saw it.  It keeps only the figures the
// report needs, not the response, so the benchmark's own memory stays flat
// over a run and heap_peak_mb measures the program.
type outcome struct {
	tenant           string
	due, sent, done  time.Time
	at               time.Duration // open loop only: offset into its schedule
	responded        bool
	queueMs, runMs   float64
	checkpoints      int64 // recovery checkpoints the job took
	vmBlocks         int64 // blocks the IR engines executed
	nativeBlocks     int64
	err              error // transport error or failed check
	traced, rejected bool
}

func (o outcome) latencyMs() float64 { return ms(o.done.Sub(o.due)) }

type serveEnv struct {
	srv  *serve.Server
	cl   *serve.Client
	book *figureBook
}

// do sends one job and checks its response; tr is nil for untraced jobs.
func (e *serveEnv) do(p plan, req *serve.Request, due time.Time, tr *tracer, op int64) outcome {
	o := outcome{tenant: p.tenant, due: due, sent: time.Now(), traced: tr != nil}
	resp, err := e.cl.Do(req)
	o.done = time.Now()
	tr.record(0, 0, op, "Client.Do."+p.tenant, o.sent, o.done)
	if err != nil {
		o.err = fmt.Errorf("%s: %w", p.tenant, err)
		return o
	}
	o.responded = true
	o.queueMs, o.runMs = resp.QueueMs, resp.RunMs
	o.checkpoints = resp.Counters["recovery.checkpoints"]
	o.vmBlocks = resp.Counters[core.MetricBlocksVM] + resp.Counters[core.MetricBlocksVMLanes]
	o.nativeBlocks = resp.Counters[core.MetricBlocksNative]
	o.rejected = resp.Status == serve.StatusRejected
	o.err = p.verify(resp, e.book)
	return o
}

func (e *serveEnv) close() {
	e.cl.Close()
	e.srv.Drain()
}

// serveSetup boots a server at cuccd's shipped defaults (recovery on, the
// journal at its default cap), listens on loopback, dials one client and
// warms every tenant up.
func serveSetup(reg *metrics.Registry, res *result, op int64, rng *rand.Rand) (*serveEnv, error) {
	tr := res.tr
	parent := tr.id()
	setupStart := time.Now()
	defer func() { tr.record(parent, 0, op, "setup", setupStart, time.Now()) }()

	t := time.Now()
	srv := serve.NewServer(serve.Config{
		QueueCap:        64,
		Executors:       2,
		Nodes:           4,
		MaxNodes:        32,
		Workers:         1,
		RecvTimeout:     30 * time.Second,
		DefaultDeadline: 30 * time.Second,
		TraceCap:        4096,
		Recovery:        &recovery.Policy{Enabled: true},
		Journal:         obs.NewJournal(obs.DefaultJournalCap),
		SampleEvery:     5 * time.Second,
		Metrics:         reg,
	})
	tr.record(0, parent, op, "serve.NewServer", t, time.Now())
	t = time.Now()
	addr, err := srv.Listen("127.0.0.1:0")
	tr.record(0, parent, op, "Server.Listen", t, time.Now())
	if err != nil {
		srv.Drain()
		return nil, fmt.Errorf("listen: %w", err)
	}
	t = time.Now()
	cl, err := serve.Dial(addr)
	tr.record(0, parent, op, "serve.Dial", t, time.Now())
	if err != nil {
		srv.Drain()
		return nil, fmt.Errorf("dial: %w", err)
	}
	e := &serveEnv{srv: srv, cl: cl, book: res.book}
	plans := make([]plan, warmupJobs)
	for i := range plans {
		plans[i] = makePlan(rng, tenants[i%len(tenants)])
	}
	// One caller per core, as in the closed loop: a single caller leaves
	// the machine idle between jobs, and how fast an idle shared machine
	// wakes up varied more from run to run than the set-up itself.
	out := make([]outcome, warmupJobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < warmupJobs; i = next.Add(1) - 1 {
				out[i] = e.do(plans[i], plans[i].request(), time.Now(), tr, op)
			}
		}()
	}
	wg.Wait()
	for _, o := range out {
		res.attempted++
		if o.err != nil {
			res.fail(o.err)
		}
	}
	return e, nil
}

// settle sends fresh-source saxpy jobs, one at a time, until the process
// compile cache is full and evicting (or twice its bound have gone by): the
// state a server reaches after a few hundred fresh kernels and keeps from
// then on.  A server whose cache is still filling runs faster than one
// whose cache is full, so a timed phase that started cold would split
// between the two states at a point set by the machine's speed.
func (e *serveEnv) settle(rng *rand.Rand, res *result) {
	c0 := vm.ReadCacheStats()
	for i := 0; i < 2*c0.CapEntries && vm.ReadCacheStats().Evictions == c0.Evictions; i++ {
		p := makePlan(rng, tenantSaxpy)
		p.sax.lit = 2 + rng.Intn(1_000_000)
		o := e.do(p, p.request(), time.Now(), nil, int64(-1000-i))
		res.attempted++
		if o.err != nil {
			res.fail(o.err)
		}
	}
}

// tally sums the outcomes the report needs without keeping them, so the
// benchmark's own live heap does not grow over a run and change the
// collector's work under the server.
type tally struct {
	jobs, ok, rejected, failed int
	errs                       []error // the first maxErrs failures
	checkpoints                float64
	vmBlocks, vmRunS           float64 // saxpy jobs: IR blocks and run time
	natBlocks, natRunS         float64 // suite jobs: native blocks and run time
}

func (t *tally) add(o outcome) {
	t.jobs++
	if o.err != nil {
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, o.err)
		}
		if o.rejected {
			t.rejected++
		} else {
			t.failed++
		}
		return
	}
	t.ok++
	t.checkpoints += float64(o.checkpoints)
	if o.tenant == tenantSaxpy {
		t.vmBlocks += float64(o.vmBlocks)
		t.vmRunS += o.runMs / 1e3
	} else {
		t.natBlocks += float64(o.nativeBlocks)
		t.natRunS += o.runMs / 1e3
	}
}

func (t *tally) merge(u tally) {
	t.jobs += u.jobs
	t.ok += u.ok
	t.rejected += u.rejected
	t.failed += u.failed
	t.errs = append(t.errs, u.errs[:min(len(u.errs), maxErrs-len(t.errs))]...)
	t.checkpoints += u.checkpoints
	t.vmBlocks += u.vmBlocks
	t.vmRunS += u.vmRunS
	t.natBlocks += u.natBlocks
	t.natRunS += u.natRunS
}

// closedLoop runs one caller per rng, each sending its next job when the
// previous one returns, until dur has passed.
func (e *serveEnv) closedLoop(rngs []*rand.Rand, dur time.Duration, tr *tracer) (tally, time.Duration) {
	var mu sync.Mutex
	var all tally
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for _, rng := range rngs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine tally
			for i := int64(0); time.Now().Before(end); i++ {
				p := drawPlan(rng)
				mine.add(e.do(p, p.request(), time.Now(), tr, i))
			}
			mu.Lock()
			all.merge(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// schedule is the open loop's seeded Poisson arrivals at openRate: each
// job's offset into open-loop time and the job sent then.
type schedule struct {
	at    []time.Duration
	plans []plan
}

func newSchedule(dur time.Duration, seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(openRate*dur.Seconds()))
	s := schedule{at: make([]time.Duration, n), plans: make([]plan, n)}
	var at float64
	for i := range n {
		at += rng.ExpFloat64() / openRate
		s.at[i] = time.Duration(at * float64(time.Second))
		s.plans[i] = drawPlan(rng)
	}
	return s
}

// openStretch sends the jobs of s due in [from, to) of open-loop time,
// whatever the server's progress, with from mapped to now; latency counts
// from each job's due time.  A traced run traces every other job, so the
// two halves give the tracing overhead.
func (e *serveEnv) openStretch(s schedule, from, to time.Duration, tr *tracer) []outcome {
	lo, _ := slices.BinarySearch(s.at, from)
	hi, _ := slices.BinarySearch(s.at, to)
	out := make([]outcome, hi-lo)
	var wg sync.WaitGroup
	start := time.Now()
	for i := lo; i < hi; i++ {
		due := start.Add(s.at[i] - from)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobTr := tr
		if i%2 == 0 {
			jobTr = nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i-lo] = e.do(s.plans[i], s.plans[i].request(), due, jobTr, int64(i))
			out[i-lo].at = s.at[i]
		}()
	}
	wg.Wait()
	return out
}

func runServe(o options, res *result) error {
	vm0 := vm.ReadCacheStats()
	rng := rand.New(rand.NewSource(o.seed))
	var reg *metrics.Registry
	if o.traced {
		reg = metrics.New()
	}
	var setupS []float64
	var env *serveEnv
	for i := range serveSetups {
		if env != nil {
			env.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if env, err = serveSetup(reg, res, int64(-1-i), rng); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	env.settle(rng, res)
	// Every server of a traced run shares reg; the timed phase's layer
	// figures are its delta.
	before := reg.Snapshot()

	runtime.GC()
	heap := startHeapSampler(5 * time.Millisecond)
	a0 := readAllocs()
	rounds, closedDur, openDur := stretches(o.seconds)
	sched := newSchedule(time.Duration(rounds)*openDur, o.seed)
	callers := make([]*rand.Rand, runtime.NumCPU())
	for c := range callers {
		callers[c] = rand.New(rand.NewSource(o.seed + int64(c) + 1))
	}
	var closed, jobs tally
	var open []outcome
	var closedS float64
	for r := range rounds {
		c, elapsed := env.closedLoop(callers, closedDur, res.tr)
		closedS += elapsed.Seconds()
		closed.merge(c)
		from := time.Duration(r) * openDur
		open = append(open, env.openStretch(sched, from, from+openDur, res.tr)...)
	}
	heapPeak := heap.Stop()
	timedAllocs := readAllocs().sub(a0)
	after := reg.Snapshot().Delta(before)
	env.close()

	var openAt []time.Duration
	var lat, latPlain, latTraced, late, queue, run, wire []float64
	for _, oc := range open {
		openAt = append(openAt, oc.at)
		lat = append(lat, oc.latencyMs())
		late = append(late, ms(oc.sent.Sub(oc.due)))
		if oc.traced {
			latTraced = append(latTraced, oc.latencyMs())
		} else {
			latPlain = append(latPlain, oc.latencyMs())
		}
		if oc.responded {
			queue = append(queue, oc.queueMs)
			run = append(run, oc.runMs)
			wire = append(wire, ms(oc.done.Sub(oc.sent))-oc.queueMs-oc.runMs)
		}
	}
	jobs.merge(closed)
	for _, oc := range open {
		jobs.add(oc)
	}
	res.attempted += jobs.jobs
	for _, err := range jobs.errs {
		res.fail(err)
	}
	// res.fail kept the first failures' messages; count the rest too.
	res.failed += jobs.rejected + jobs.failed - len(jobs.errs)

	m := res.metrics
	m["setup_s"] = median(setupS)
	m["op_p50_ms"] = windowQuantile(openAt, lat, 0.50)
	m["op_p90_ms"] = windowQuantile(openAt, lat, 0.90)
	m["ops_per_s"] = float64(closed.ok) / closedS
	m["heap_peak_mb"] = heapPeak
	res.samples["closed_jobs"] = closed.jobs
	res.samples["open_jobs"] = len(open)
	if !o.traced {
		return nil
	}

	m["serve.queue_ms"] = median(queue)
	m["serve.run_ms"] = median(run)
	m["serve.run_mean_ms"] = mean(run)
	m["serve.wire_ms"] = median(wire)
	m["serve.rejected"] = float64(jobs.rejected)
	m["serve.failed"] = float64(jobs.failed)
	m["serve.job_p99_ms"] = quantile(lat, 0.99)
	m["loadgen.late_p99_ms"] = quantile(late, 0.99)
	m["trace.overhead_pct"] = 100 * (ratio(median(latTraced), median(latPlain)) - 1)

	// Blocks per second of job run time, per path: the per-job phase walls
	// are merged across tenants in the server's registry, so the run time
	// of the tenant's own jobs is the denominator.
	m["vm.blocks_per_s"] = ratio(jobs.vmBlocks, jobs.vmRunS)
	m["native.blocks_per_s"] = ratio(jobs.natBlocks, jobs.natRunS)
	m["recovery.checkpoints_per_job"] = ratio(jobs.checkpoints, float64(jobs.ok))

	one := []metrics.Snapshot{after}
	launches := counters(one, core.MetricLaunches)
	m["core.launch_ms"] = 1e3 * ratio(histSums(one, core.MetricLaunchWallSec), launches)
	m["core.partial_ms"] = 1e3 * ratio(histSums(one, core.MetricPartialWallSec), launches)
	m["core.callback_ms"] = 1e3 * ratio(histSums(one, core.MetricCallbackWallSec), launches)
	m["core.allgather_ms"] = m["core.launch_ms"] - m["core.partial_ms"] - m["core.callback_ms"]
	fillCommLayers(m, after, launches)

	var lt launchTimes
	if err := serveProbe(res, &lt, o.seed); err != nil {
		return err
	}
	m["cluster.new_ms"] = median(lt.clusterNew)
	m["suites.build_ms"] = median(lt.build)
	m["suites.check_ms"] = mean(lt.check)
	m["core.compile_ms"] = mean(lt.compile)
	fillVMCache(m, vm0)
	fillAllocs(m, timedAllocs, jobs.jobs, timedAllocs.gcCycles)
	return nil
}

// stretches cuts a timed phase of length total into rounds and gives each
// round's closed and open stretch; one round when total is under a round.
func stretches(total time.Duration) (rounds int, closed, open time.Duration) {
	rounds = max(1, int(total/round))
	per := total / time.Duration(rounds)
	closed = time.Duration(float64(per) * closedShare)
	return rounds, closed, per - closed
}

// windowQuantile is the median over windows of the q-quantile of the values
// whose offsets fall in each window; a trailing part-window joins the last
// whole one.
func windowQuantile(offsets []time.Duration, vals []float64, q float64) float64 {
	var last time.Duration
	for _, o := range offsets {
		last = max(last, o)
	}
	groups := make([][]float64, max(1, int(last/window)))
	for i, o := range offsets {
		g := min(int(o/window), len(groups)-1)
		groups[g] = append(groups[g], vals[i])
	}
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, quantile(g, q))
		}
	}
	return median(per)
}

// serveProbe times, outside the server, the calls a served job makes at the
// jobs' configuration: cluster.New, Build, Launch + Check of both suite
// tenants, and core.Compile of fresh saxpy sources.
func serveProbe(res *result, lt *launchTimes, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := range probes {
		op := int64(-100 - i)
		t := time.Now()
		c, err := cluster.New(cluster.Config{
			Nodes:           serveNodes,
			Machine:         machine.Intel6226(),
			Net:             simnet.IB100(),
			MaxBytesPerNode: 256 << 20,
			RecvTimeout:     30 * time.Second,
			Recovery:        recovery.Policy{Enabled: true},
			Metrics:         metrics.New(),
		})
		end := time.Now()
		res.tr.record(0, 0, op, "cluster.New", t, end)
		if err != nil {
			return fmt.Errorf("cluster.New: %w", err)
		}
		lt.clusterNew = append(lt.clusterNew, ms(end.Sub(t)))
		var build time.Duration
		for _, name := range []string{"VecAdd", "FIR"} {
			p, _ := suites.ByName(name)
			t = time.Now()
			inst, err := p.Build(c, p.Small)
			end = time.Now()
			res.tr.record(0, 0, op, "Program.Build."+name, t, end)
			if err != nil {
				c.Close()
				return fmt.Errorf("%s: build: %w", name, err)
			}
			build += end.Sub(t)
			env := &launchEnv{c: c}
			env.add(name+".native", p.Compiled, inst, nil)
			res.attempted++
			if _, err := env.launch(env.runs[0], res, res.tr, 0, op, lt); err != nil {
				res.fail(fmt.Errorf("probe: %w", err))
			}
		}
		c.Close()
		lt.build = append(lt.build, ms(build))

		t = time.Now()
		_, err = core.Compile(saxpySource(2 + rng.Intn(1_000_000)))
		end = time.Now()
		res.tr.record(0, 0, op, "core.Compile.saxpy", t, end)
		if err != nil {
			return fmt.Errorf("saxpy: compile: %w", err)
		}
		lt.compile = append(lt.compile, ms(end.Sub(t)))
	}
	return nil
}
