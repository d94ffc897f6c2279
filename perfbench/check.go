package main

import (
	"embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"cucc/internal/cluster"
	"cucc/internal/core"
)

// figures are the simulated (paper-model) figures of one launch.  Wall-clock
// work must never move them, so every launch of a (program, path) must
// report the same figures within a run and across runs.
type figures struct {
	CommBytesPerNode int64   `json:"comm_bytes_per_node"`
	CommMsgs         int64   `json:"comm_msgs"`
	BlocksByNode     []int   `json:"blocks_by_node"`
	TotalSec         float64 `json:"total_sec"`
}

func figuresOf(s *core.Stats) figures {
	return figures{s.CommBytesPerNode, s.CommMsgs, s.BlocksByNode, s.TotalSec}
}

func (f figures) equal(g figures) bool {
	return f.CommBytesPerNode == g.CommBytesPerNode && f.CommMsgs == g.CommMsgs &&
		slices.Equal(f.BlocksByNode, g.BlocksByNode) && f.TotalSec == g.TotalSec
}

// golden holds the figures of every (program, path) of each workload, one
// file per workload, as the program reported them when the benchmark was
// written.  Regenerate a file with --write-golden.
//
//go:embed golden/*.json
var goldenFS embed.FS

// figureBook checks each launch's figures against the first launch of the
// same key in this run and against the golden file.
type figureBook struct {
	workload string
	golden   map[string]figures // nil while writing the golden file
	mu       sync.Mutex
	seen     map[string]figures
}

func newFigureBook(workload string, writing bool) (*figureBook, error) {
	b := &figureBook{workload: workload, seen: map[string]figures{}}
	if writing {
		return b, nil
	}
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("golden figures: %w", err)
	}
	if err := json.Unmarshal(data, &b.golden); err != nil {
		return nil, fmt.Errorf("golden figures: %w", err)
	}
	return b, nil
}

func (b *figureBook) check(key string, s *core.Stats) error {
	if s == nil {
		return fmt.Errorf("%s: launch reported no stats", key)
	}
	f := figuresOf(s)
	b.mu.Lock()
	defer b.mu.Unlock()
	if first, ok := b.seen[key]; !ok {
		b.seen[key] = f
	} else if !f.equal(first) {
		return fmt.Errorf("%s: simulated figures moved within the run: %+v, first launch %+v", key, f, first)
	}
	if b.golden == nil {
		return nil
	}
	g, ok := b.golden[key]
	if !ok {
		return fmt.Errorf("%s: no golden simulated figures", key)
	}
	if !f.equal(g) {
		return fmt.Errorf("%s: simulated figures %+v differ from golden %+v", key, f, g)
	}
	return nil
}

// writeGolden stores the figures seen in this run as the workload's golden
// file under dir.
func (b *figureBook) writeGolden(dir string) error {
	b.mu.Lock()
	data, err := json.MarshalIndent(b.seen, "", "  ")
	b.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, b.workload+".json"), append(data, '\n'), 0o644)
}

// outputBuffers lists the buffers a launch writes, per the kernel's
// analysis metadata (BufferMeta.Param is the argument index).
func outputBuffers(p *core.Program, spec core.LaunchSpec) []cluster.Buffer {
	md := p.Meta[spec.Kernel]
	if md == nil {
		return nil
	}
	var out []cluster.Buffer
	for _, bm := range md.Buffers {
		if a := spec.Args[bm.Param]; a.IsBuf {
			out = append(out, *a.Buf)
		}
	}
	return out
}

// poison overwrites the buffers with all-ones bytes (NaN as f32, -1 as i32)
// on every node, so an output check after the next launch sees only what
// that launch wrote.  ones holds at least the largest buffer's bytes of 0xFF.
func poison(c *cluster.Cluster, bufs []cluster.Buffer, ones []byte) error {
	for _, b := range bufs {
		if err := c.WriteAll(b, ones[:b.Bytes()]); err != nil {
			return err
		}
	}
	return nil
}

// saxpyJob is one source-mode job: y[i] = a*x[i] + y[i] + lit over f32
// buffers that start at x[i] = fx+i and y[i] = fy+i.  Every value is a
// small integer, so the f32 results are exact and the Go reference below is
// bitwise what any correct engine computes.
type saxpyJob struct {
	lit    int
	a      float64
	fx, fy float64
}

const (
	saxpyN     = 1024
	saxpyBlock = 64
)

func saxpySource(lit int) string {
	return fmt.Sprintf(`
__global__ void saxpy(float* x, float* y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n)
        y[i] = a * x[i] + y[i] + %d.0f;
}
`, lit)
}

// wantCRCs returns the IEEE CRC32 of x and y after the launch, in argument
// order, as the server reports them in Response.BufCRCs.
func (j saxpyJob) wantCRCs() []uint32 {
	x := make([]byte, 4*saxpyN)
	y := make([]byte, 4*saxpyN)
	for i := range saxpyN {
		xv := float32(j.fx + float64(i))
		yv := float32(j.a)*xv + float32(j.fy+float64(i)) + float32(j.lit)
		binary.LittleEndian.PutUint32(x[4*i:], math.Float32bits(xv))
		binary.LittleEndian.PutUint32(y[4*i:], math.Float32bits(yv))
	}
	return []uint32{crc32.ChecksumIEEE(x), crc32.ChecksumIEEE(y)}
}

func checkCRCs(got, want []uint32) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("saxpy: buffer CRCs %08x, want %08x", got, want)
	}
	return nil
}
