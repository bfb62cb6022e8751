package gpu_test

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"mobilesim/internal/cl"
	"mobilesim/internal/gpu"
	"mobilesim/internal/platform"
	"mobilesim/internal/workloads"
)

// The tape optimiser on real kernels (DESIGN.md §9): the static micro-op
// counts of every kernel the Table II workloads launch, compiled by the
// default clc version. Regenerate after an intentional change with:
//
//	MOBILESIM_GOLDEN=print go test -v -run TestTapeGolden ./internal/gpu/
//
// Each row is one kernel: {clauses, micro-ops over its clause tapes,
// micro-ops over the tapes a warp can enter on a plain run}, sorted.
var tapeGolden = map[string][][3]int{
	"BFS":               {{14, 30, 32}},
	"Backprop":          {{5, 25, 25}, {19, 66, 68}},
	"BinarySearch":      {{10, 28, 28}},
	"BinomialOption":    {{20, 75, 77}},
	"BitonicSort":       {{5, 28, 28}},
	"Cutcp":             {{13, 60, 62}},
	"DCT":               {{12, 43, 47}},
	"DwtHaar1D":         {{8, 32, 32}},
	"FloydWarshall":     {{5, 21, 21}},
	"MatrixTranspose":   {{3, 24, 24}},
	"NearestNeighbor":   {{4, 15, 15}},
	"RecursiveGaussian": {{12, 40, 44}, {12, 41, 45}},
	"Reduction":         {{16, 32, 34}},
	"SGEMM":             {{8, 25, 27}},
	"SPMV":              {{8, 22, 26}},
	"ScanLargeArrays":   {{4, 13, 13}, {25, 60, 62}},
	"SobelFilter":       {{13, 86, 86}},
	"Stencil":           {{10, 78, 78}},
	"URNG":              {{5, 21, 21}},
	"clBLAS-SGEMM":      {{8, 25, 27}},
}

// tableIIPrograms runs every Table II workload once at small scale, each on
// an empty program cache, and returns the programs it decoded.
func tableIIPrograms(tb testing.TB) map[string][]*gpu.Program {
	tb.Helper()
	out := map[string][]*gpu.Program{}
	for _, spec := range workloads.OfKind(workloads.KindBenchmark) {
		restore := gpu.UsePrivateProgramCache()
		p, err := platform.New(platform.Config{RAMSize: 256 << 20})
		if err != nil {
			tb.Fatal(err)
		}
		c, err := cl.NewContext(p, "")
		if err == nil {
			_, err = spec.Make(spec.SmallScale).Run(context.Background(), c, spec.Name, false)
		}
		p.Close()
		out[spec.Name] = gpu.CachedPrograms()
		restore()
		if err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// tapeTable is the golden table's shape of progs, compiled without off.
func tapeTable(progs map[string][]*gpu.Program, off gpu.Rewrite) map[string][][3]int {
	table := map[string][][3]int{}
	for name, ps := range progs {
		for _, p := range ps {
			c, h := gpu.TapeSizes(p, off)
			table[name] = append(table[name], [3]int{len(p.Clauses), c, h})
		}
		sort.Slice(table[name], func(i, j int) bool {
			return slices.Compare(table[name][i][:], table[name][j][:]) < 0
		})
	}
	return table
}

// TestTapeGolden pins the optimised tapes of the Table II kernels, and that
// every rewrite changes them: with any one rewrite off, the table differs.
func TestTapeGolden(t *testing.T) {
	progs := tableIIPrograms(t)
	got := tapeTable(progs, 0)
	if os.Getenv("MOBILESIM_GOLDEN") == "print" {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rows := make([]string, len(got[name]))
			for i, r := range got[name] {
				rows[i] = fmt.Sprintf("{%d, %d, %d}", r[0], r[1], r[2])
			}
			fmt.Printf("\t%q: {%s},\n", name, strings.Join(rows, ", "))
		}
		return
	}
	if fmt.Sprint(got) != fmt.Sprint(tapeGolden) {
		for name, want := range tapeGolden {
			if fmt.Sprint(got[name]) != fmt.Sprint(want) {
				t.Errorf("%s: tapes %v, want %v", name, got[name], want)
			}
		}
		if len(got) != len(tapeGolden) {
			t.Errorf("%d workloads, golden has %d", len(got), len(tapeGolden))
		}
	}
	for _, rw := range []struct {
		name string
		off  gpu.Rewrite
	}{
		{"forwarding", gpu.RewriteForward},
		{"address fusion", gpu.RewriteFuseAddr},
		{"tail fusion", gpu.RewriteFuseTail},
		{"header duplication", gpu.RewriteDupHeader},
	} {
		if fmt.Sprint(tapeTable(progs, rw.off)) == fmt.Sprint(got) {
			t.Errorf("switching %s off leaves every Table II kernel's tapes unchanged", rw.name)
		}
	}
}

// BenchmarkDecodeAndCompile times what a program cache miss costs for the
// Table II kernels: ParseBinary and the warp engine's compile, optimiser
// included, of every kernel once per iteration.
func BenchmarkDecodeAndCompile(b *testing.B) {
	var bins [][]byte
	for _, ps := range tableIIPrograms(b) {
		for _, p := range ps {
			raw, err := gpu.Serialize(p)
			if err != nil {
				b.Fatal(err)
			}
			bins = append(bins, raw)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, raw := range bins {
			p, err := gpu.ParseBinary(raw)
			if err != nil {
				b.Fatal(err)
			}
			gpu.CompileWarp(p)
		}
	}
	b.ReportMetric(float64(len(bins)), "kernels/op")
}
