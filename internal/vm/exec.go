package vm

import (
	"fmt"

	"cucc/internal/interp"
	"cucc/internal/kir"
)

// launchState is the launch-level state a Runner wraps: the compiled
// program, cached buffer lengths and raw bytes, the base register images,
// and the shared arenas.  Launch validation, compilation (cached per
// kernel), and the float32 rounding of scalar arguments all happen once in
// NewRunner; the shared arenas are scratch reused across blocks.
type launchState struct {
	p   *CompiledKernel
	mem interp.Memory
	am  interp.AtomicMemory

	// prof is the shared opcode-profile accumulator when profiling was
	// enabled at construction time; nil otherwise (and then p contains no
	// opProf instructions).
	prof *Profile

	lens     []int    // cached Mem.Len per pointer parameter
	raw      [][]byte // raw backing bytes per pointer parameter (nil: use mem)
	maxIters int64

	// baseI/baseF are the launch-level register images: builtins (bx, by
	// filled per block; tx, ty per thread), constant pools, and rounded
	// scalar arguments.  Threads start by copying them.
	baseI []int64
	baseF []float64

	sharedI []int64
	sharedF []float64
}

// NewRunner compiles (or fetches the cached program for) the launch's
// kernel, validates the launch, and builds the per-launch register images.
// It samples the global profiling switch at construction time; callers that
// build several Runners for one launch (the core worker pool) should latch
// the decision once and use NewRunnerProfiled so every worker agrees even
// if SetProfiling races with the launch.
func NewRunner(l *interp.Launch) (*Runner, error) {
	return NewRunnerProfiled(l, profilingEnabled.Load())
}

// NewRunnerProfiled is NewRunner with the profiling decision supplied by
// the caller instead of read from the global switch.
func NewRunnerProfiled(l *interp.Launch, profiled bool) (*Runner, error) {
	p, err := CompileCached(l.Kernel)
	if err != nil {
		return nil, err
	}
	if err := checkLaunch(l); err != nil {
		return nil, err
	}
	r := &Runner{w: int(laneWidth.Load())}
	r.p, r.mem = p, l.Mem
	if profiled {
		r.p, r.prof = instrumentCached(l.Kernel, p)
	}
	r.am, _ = l.Mem.(interp.AtomicMemory)
	r.lens = make([]int, len(l.Kernel.Params))
	r.raw = make([][]byte, len(l.Kernel.Params))
	rm, _ := l.Mem.(interp.RawMemory)
	for i, prm := range l.Kernel.Params {
		if prm.Pointer {
			r.lens[i] = l.Mem.Len(i)
			if rm != nil {
				r.raw[i] = rm.RawBytes(i)
			}
		}
	}
	r.maxIters = l.MaxLoopIters
	if r.maxIters == 0 {
		r.maxIters = interp.DefaultMaxLoopIters
	}
	r.baseI = make([]int64, p.numI)
	r.baseF = make([]float64, p.numF)
	r.baseI[regBdx] = int64(l.Block.X)
	r.baseI[regBdy] = int64(max(l.Block.Y, 1))
	r.baseI[regGdx] = int64(l.Grid.X)
	r.baseI[regGdy] = int64(max(l.Grid.Y, 1))
	copy(r.baseI[p.ciBase:], p.constI)
	copy(r.baseF[p.cfBase:], p.constF)
	for i, prm := range l.Kernel.Params {
		v := l.Args[i]
		if !prm.Pointer && prm.Elem == kir.F32 {
			v.F = float64(float32(v.F))
		}
		r.baseI[numReservedI+i] = v.I
		r.baseF[i] = v.F
	}
	r.sharedI = make([]int64, p.sharedLen)
	r.sharedF = make([]float64, p.sharedLen)
	return r, nil
}

func checkLaunch(l *interp.Launch) error {
	k := l.Kernel
	if len(l.Args) < len(k.Params) {
		return fmt.Errorf("vm: kernel %s: %d args for %d params", k.Name, len(l.Args), len(k.Params))
	}
	if l.Grid.Count() <= 0 || l.Block.Count() <= 0 {
		return fmt.Errorf("vm: kernel %s: empty grid or block", k.Name)
	}
	if l.Mem == nil {
		return fmt.Errorf("vm: kernel %s: nil memory", k.Name)
	}
	return nil
}

// ExecBlock is the one-shot form of NewRunner + Runner.ExecBlock, mirroring
// interp.ExecBlock for callers that execute isolated blocks.
func ExecBlock(l *interp.Launch, bx, by int) (interp.Work, error) {
	r, err := NewRunner(l)
	if err != nil {
		return interp.Work{}, err
	}
	return r.ExecBlock(bx, by)
}

func (r *launchState) oobGlobal(what string, prm, idx int) error {
	return fmt.Errorf("vm: %s: global %s out of bounds: %s[%d] (len %d)",
		r.p.Kernel.Name, what, r.p.Kernel.Params[prm].Name, idx, r.lens[prm])
}

func (r *launchState) oobShared(what string, m *sharedMeta, idx int) error {
	return fmt.Errorf("vm: %s: shared %s out of bounds: %s[%d] (len %d)",
		r.p.Kernel.Name, what, m.name, idx, m.n)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
