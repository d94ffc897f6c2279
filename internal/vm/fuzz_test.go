package vm_test

import (
	"math/rand"
	"strings"
	"testing"

	"cucc/internal/interp"
	"cucc/internal/lang"
	"cucc/internal/vm"
)

// fuzzHeader is the fixed signature the differential fuzzer's kernels use;
// FuzzEngineParity splices its input in as the body.
const fuzzHeader = "__global__ void fz(float* out, float* a, int* ib, int n, float s) {\n"

// maxFuzzShared bounds the shared-array elements a fuzzed kernel may
// declare, so an input like __shared__ float x[1<<30] is skipped instead of
// allocating gigabytes of arena.
const maxFuzzShared = 4096

// FuzzEngineParity checks the vm against the interpreter on arbitrary
// kernel bodies: at lane width 1 both engines must agree bitwise on memory,
// exactly on Work, and on whether the launch fails; at the production
// width of 32 the vm must not panic (lockstep may reorder racy kernels, so
// only its survival is checked there).  Inputs that do not parse or
// compile are skipped.
func FuzzEngineParity(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for mode := 0; mode < 5; mode++ {
			src := (&gen{rng: rng}).kernel(mode)
			f.Add(strings.TrimSuffix(strings.TrimPrefix(src, fuzzHeader), "}\n"))
		}
	}
	f.Fuzz(func(t *testing.T, body string) {
		mod, err := lang.Parse(fuzzHeader + body + "}\n")
		if err != nil || len(mod.Kernels) != 1 {
			return
		}
		k := mod.Kernels[0]
		shared := 0
		for _, sh := range k.Shared {
			if sh.Len < 0 || sh.Len > maxFuzzShared-shared {
				return
			}
			shared += sh.Len
		}
		if _, err := vm.Compile(k); err != nil {
			return
		}
		grid, block := interp.Dim1(2), interp.Dim1(16)
		const maxIters = 256
		prev := vm.SetLaneWidth(1)
		defer vm.SetLaneWidth(prev)
		if msg := diffKernel(k, grid, block, maxIters); msg != "" {
			t.Fatalf("%s\n%s", msg, body)
		}
		vm.SetLaneWidth(32)
		init, args := fuzzInit()
		runEngine(vmEngine, k, grid, block, args, init, maxIters)
	})
}
