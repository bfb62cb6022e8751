package gpu_test

import (
	"context"
	"slices"
	"testing"

	"mobilesim/internal/cl"
	"mobilesim/internal/clc"
	"mobilesim/internal/gpu"
	"mobilesim/internal/platform"
	"mobilesim/internal/workloads"
)

// TestTapesRunNoInterpreter pins the rule the warp engine's fast path is
// cut to (DESIGN.md §9): it lowers what clc emits, and the interpreter
// runs the rest. No tape of any registered workload — Table II, the SLAM
// presets, the sgemm ladder — built by any clc version hands an
// instruction to the interpreter. An opcode clc starts to emit without a
// tape case fails here, named.
func TestTapesRunNoInterpreter(t *testing.T) {
	for _, ver := range clc.VersionNames() {
		restore := gpu.UsePrivateProgramCache()
		for _, spec := range workloads.All() {
			p, err := platform.New(platform.Config{RAMSize: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			c, err := cl.NewContext(p, ver)
			if err == nil {
				_, err = spec.Make(spec.SmallScale).Run(context.Background(), c, spec.Name, false)
			}
			p.Close()
			if err != nil {
				t.Fatalf("clc %s, %s: %v", ver, spec.Name, err)
			}
		}
		progs := gpu.CachedPrograms()
		restore()
		if len(progs) == 0 {
			t.Fatalf("clc %s: no program decoded", ver)
		}
		for _, p := range progs {
			if ops := gpu.InterpretedOps(p); len(ops) > 0 {
				n := len(ops)
				slices.Sort(ops)
				t.Errorf("clc %s: a kernel's tapes hand %d micro-ops of %v to the interpreter", ver, n, slices.Compact(ops))
			}
		}
	}
}
