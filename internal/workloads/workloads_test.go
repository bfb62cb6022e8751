package workloads

import (
	"context"
	"testing"

	"mobilesim/internal/cl"
	"mobilesim/internal/platform"
)

var bg = context.Background()

// TestAllBenchmarksVerifyAgainstNative runs every Table II workload at
// small scale through the full simulated stack and checks bit-level (int)
// or tolerance (float) agreement with the host-native reference.
func TestAllBenchmarksVerifyAgainstNative(t *testing.T) {
	for _, spec := range OfKind(KindBenchmark) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			p, err := platform.New(platform.Config{RAMSize: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			c, err := cl.NewContext(p, "")
			if err != nil {
				t.Fatal(err)
			}
			inst := spec.Make(spec.SmallScale)
			res, err := inst.Run(bg, c, spec.Name, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatal(res.VerifyErr)
			}
			gs, sys := p.GPU.Stats()
			if gs.Threads == 0 {
				t.Error("no GPU threads executed")
			}
			if sys.ComputeJobs == 0 {
				t.Error("no compute jobs recorded")
			}
			t.Logf("%s: jobs=%d threads=%d instr=%d pages=%d",
				spec.Name, sys.ComputeJobs, gs.Threads, gs.TotalInstr(), sys.PagesAccessed)
		})
	}
}

// TestBenchmarksVerifyOnOldCompiler re-runs a representative subset with
// the oldest compiler version: different codegen, same results — the
// architectural-accuracy-across-toolchains claim.
func TestBenchmarksVerifyOnOldCompiler(t *testing.T) {
	for _, name := range []string{"SobelFilter", "BitonicSort", "Reduction", "SGEMM"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p, err := platform.New(platform.Config{RAMSize: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			c, err := cl.NewContext(p, "5.6")
			if err != nil {
				t.Fatal(err)
			}
			res, err := spec.Make(spec.SmallScale).Run(bg, c, name, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatal(res.VerifyErr)
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	// Table II lists 19 benchmarks (BFS appears once, SGEMM twice via
	// Parboil and clBLAS).
	want := []string{
		"BFS", "Backprop", "BinarySearch", "BinomialOption", "BitonicSort",
		"Cutcp", "DCT", "DwtHaar1D", "FloydWarshall", "MatrixTranspose",
		"NearestNeighbor", "RecursiveGaussian", "Reduction", "SGEMM",
		"SPMV", "ScanLargeArrays", "SobelFilter", "Stencil", "URNG",
		"clBLAS-SGEMM",
	}
	all := OfKind(KindBenchmark)
	if len(all) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(all), len(want))
	}
	for i, s := range all {
		if i < len(want) && s.Name != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, s.Name, want[i])
		}
		if s.Suite == "" || s.PaperInput == "" {
			t.Errorf("%s missing metadata", s.Name)
		}
		if s.SmallScale <= 0 || s.DefaultScale < s.SmallScale || s.PaperScale < s.DefaultScale {
			t.Errorf("%s scales not monotone: %d %d %d", s.Name, s.SmallScale, s.DefaultScale, s.PaperScale)
		}
	}
	if _, err := ByName("NoSuchBench"); err == nil {
		t.Error("ByName should fail for unknown benchmarks")
	}
}
