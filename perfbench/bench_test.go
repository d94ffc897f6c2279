package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cucc/internal/cluster"
	"cucc/internal/core"
	"cucc/internal/interp"
	"cucc/internal/machine"
	"cucc/internal/serve"
	"cucc/internal/simnet"
	"cucc/internal/suites"
)

type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that the result line names every metric BENCHMARK.json lists, with
// its unit, and that nothing failed.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []int{0, 1} {
			t.Run(w.Name+"/trace"+strconv.Itoa(traced), func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.5",
					"--trace", strconv.Itoa(traced)}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r reportLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, errb.String())
				}
				want := spec.EndToEnd
				if traced == 1 {
					want = spec.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case traced == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, got.Value)
					}
				}
				if traced == 1 && r.Metrics["error_ratio"].Value != 0 {
					t.Errorf("error_ratio = %g", r.Metrics["error_ratio"].Value)
				}
			})
		}
	}
}

// TestMetricTablesMatchSpec pins the program's metric tables to
// BENCHMARK.json.
func TestMetricTablesMatchSpec(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		got  []metric
		want []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		var got, want []string
		for _, m := range c.got {
			got = append(got, m.name+" "+m.unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("metric table\n got %v\nwant %v", got, want)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
}

// TestWrongCRCFails: a source job whose buffer CRCs differ from the Go
// reference fails its check, even with status OK.
func TestWrongCRCFails(t *testing.T) {
	book, _ := newFigureBook("serve-mix", true)
	p := plan{tenant: tenantSaxpy, sax: saxpyJob{lit: 7, a: 3, fx: 5, fy: 11}}
	want := p.sax.wantCRCs()
	stats := &core.Stats{BlocksByNode: []int{8, 8}, TotalSec: 1e-5}
	ok := &serve.Response{Status: serve.StatusOK, BufCRCs: want, Stats: stats}
	if err := p.verify(ok, book); err != nil {
		t.Fatalf("right CRCs rejected: %v", err)
	}
	bad := slices.Clone(want)
	bad[1] ^= 1
	if err := p.verify(&serve.Response{Status: serve.StatusOK, BufCRCs: bad, Stats: stats}, book); err == nil {
		t.Fatal("wrong CRC accepted")
	}
	if err := p.verify(&serve.Response{Status: serve.StatusError, Err: "boom"}, book); err == nil {
		t.Fatal("error status accepted")
	}
}

// TestCorruptOutputCountsAsFailed: a launch that leaves a wrong output
// buffer, on node 0 or on any other node, counts as a failed operation in
// the round, and a flipped output byte fails the program's check.
func TestCorruptOutputCountsAsFailed(t *testing.T) {
	c, err := cluster.New(cluster.Config{Nodes: 2, Machine: machine.Intel6226(), Net: simnet.IB100()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, _ := suites.ByName("VecAdd")
	inst, err := p.Build(c, p.Small)
	if err != nil {
		t.Fatal(err)
	}
	// A native for vecadd(a, b, c, n) that writes c = a + b + 1: the launch
	// succeeds, its output is wrong.
	corrupt, err := core.Compile(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	err = corrupt.RegisterNative(p.Kernel, core.Native{
		RunBlock: func(mem interp.Memory, _ []interp.Value, _, block interp.Dim3, bx, _ int) error {
			for i := bx * block.X; i < min((bx+1)*block.X, mem.Len(2)); i++ {
				mem.StoreF32(2, i, mem.LoadF32(0, i)+mem.LoadF32(1, i)+1)
			}
			return nil
		},
		BlockWork: func([]interp.Value, interp.Dim3, interp.Dim3) machine.BlockWork { return machine.BlockWork{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	book, _ := newFigureBook("launch-compute", true)
	res := &result{metrics: map[string]float64{}, samples: map[string]int{}, book: book}
	env := &launchEnv{c: c}
	env.add("VecAdd.native", p.Compiled, inst, nil)
	env.add("VecAdd.corrupt", corrupt, inst, nil)
	var lt launchTimes
	env.round([]int{0, 1}, res, nil, 0, &lt)
	if res.attempted != 2 || res.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1: %v", res.attempted, res.failed, res.errs)
	}

	// A launch whose output on node 1 differs from node 0 passes
	// Instance.Check, which reads node 0 only, and must still fail: flip a
	// byte on node 1 after the launch and before the checks, as a transport
	// that lost part of an Allgather would.
	flip := &suites.Instance{Spec: inst.Spec}
	env.add("VecAdd.flip", p.Compiled, flip, nil)
	flip.Check = func() error {
		c.Region(1, env.runs[2].outputs[0])[5] ^= 0x40
		return inst.Check()
	}
	env.round([]int{2}, res, nil, 0, &lt)
	if res.attempted != 3 || res.failed != 2 || !strings.Contains(res.errs[1], "node 1") {
		t.Fatalf("attempted %d failed %d, want 3 and 2 with node 1 named: %v", res.attempted, res.failed, res.errs)
	}

	if _, err := env.launch(env.runs[0], res, nil, 0, 0, &lt); err != nil {
		t.Fatalf("good launch: %v", err)
	}
	c.Region(0, env.runs[0].outputs[0])[5] ^= 0x40
	if err := inst.Check(); err == nil {
		t.Fatal("flipped output byte passed the check")
	}
}

// TestMovedFigureFails: simulated figures that drift within a run, or
// differ from the golden file, fail the launch's check.
func TestMovedFigureFails(t *testing.T) {
	base := core.Stats{CommBytesPerNode: 64, CommMsgs: 2, BlocksByNode: []int{4, 4}, TotalSec: 1e-5}
	book := &figureBook{seen: map[string]figures{}, golden: map[string]figures{"k": figuresOf(&base)}}
	if err := book.check("k", &base); err != nil {
		t.Fatal(err)
	}
	moved := base
	moved.TotalSec = 1.0000000000000002e-5
	if err := book.check("k", &moved); err == nil {
		t.Fatal("moved TotalSec accepted")
	}
	other := &figureBook{seen: map[string]figures{}, golden: book.golden}
	msgs := base
	msgs.CommMsgs = 3
	if err := other.check("k", &msgs); err == nil {
		t.Fatal("figures differing from golden accepted")
	}
	if err := other.check("missing", &base); err == nil {
		t.Fatal("key without golden figures accepted")
	}
}
