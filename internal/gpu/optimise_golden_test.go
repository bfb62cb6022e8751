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
// micro-ops over the tapes a warp can enter in the heads table, the same in
// the flat table}, sorted.
var tapeGolden = map[string][][4]int{
	"BFS":               {{14, 29, 30, 34}},
	"Backprop":          {{5, 25, 25, 25}, {19, 65, 66, 66}},
	"BinarySearch":      {{10, 28, 28, 30}},
	"BinomialOption":    {{20, 74, 75, 75}},
	"BitonicSort":       {{5, 28, 28, 28}},
	"Cutcp":             {{13, 57, 58, 62}},
	"DCT":               {{12, 39, 41, 41}},
	"DwtHaar1D":         {{8, 30, 30, 30}},
	"FloydWarshall":     {{5, 19, 19, 19}},
	"MatrixTranspose":   {{3, 24, 24, 24}},
	"NearestNeighbor":   {{4, 15, 15, 15}},
	"RecursiveGaussian": {{12, 38, 40, 40}, {12, 39, 41, 41}},
	"Reduction":         {{16, 31, 32, 38}},
	"SGEMM":             {{8, 22, 23, 23}},
	"SPMV":              {{8, 21, 24, 24}},
	"ScanLargeArrays":   {{4, 11, 11, 11}, {25, 59, 60, 74}},
	"SobelFilter":       {{13, 80, 80, 80}},
	"Stencil":           {{10, 69, 69, 69}},
	"URNG":              {{5, 21, 21, 21}},
	"clBLAS-SGEMM":      {{8, 22, 23, 23}},
}

// tableIIPrograms runs every Table II workload once at small scale, each on
// an empty program cache, and returns the programs it decoded.
func tableIIPrograms(tb testing.TB) map[string][]*gpu.Program {
	progs, _ := tableIIRuns(tb)
	return progs
}

// tableIIRuns is tableIIPrograms, on one host thread, and also returns
// per workload the tapes its warps entered and the micro-ops they ran.
func tableIIRuns(tb testing.TB) (map[string][]*gpu.Program, map[string][2]uint64) {
	tb.Helper()
	progs, runs := map[string][]*gpu.Program{}, map[string][2]uint64{}
	cfg := gpu.DefaultConfig()
	cfg.HostThreads = 1
	for _, spec := range workloads.OfKind(workloads.KindBenchmark) {
		restore := gpu.UsePrivateProgramCache()
		read, stop := gpu.CountTapes()
		p, err := platform.New(platform.Config{RAMSize: 256 << 20, GPU: cfg})
		if err != nil {
			tb.Fatal(err)
		}
		c, err := cl.NewContext(p, "")
		if err == nil {
			_, err = spec.Make(spec.SmallScale).Run(context.Background(), c, spec.Name, false)
		}
		p.Close()
		stop()
		entries, uops := read()
		progs[spec.Name], runs[spec.Name] = gpu.CachedPrograms(), [2]uint64{entries, uops}
		restore()
		if err != nil {
			tb.Fatal(err)
		}
	}
	return progs, runs
}

// tapeTable is the golden table's shape of progs, compiled without off.
func tapeTable(progs map[string][]*gpu.Program, off gpu.Rewrite) map[string][][4]int {
	table := map[string][][4]int{}
	for name, ps := range progs {
		for _, p := range ps {
			c, h, f := gpu.TapeSizes(p, off)
			table[name] = append(table[name], [4]int{len(p.Clauses), c, h, f})
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
				rows[i] = fmt.Sprintf("{%d, %d, %d, %d}", r[0], r[1], r[2], r[3])
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
		{"boolean re-tests", gpu.RewriteBool},
	} {
		if fmt.Sprint(tapeTable(progs, rw.off)) == fmt.Sprint(got) {
			t.Errorf("switching %s off leaves every Table II kernel's tapes unchanged", rw.name)
		}
	}
}

// tapeRunGolden pins what the warp engine runs for each Table II workload
// at small scale, on one host thread: {tapes entered, micro-ops those
// entries ran}. These are the deterministic side of a chain or optimiser
// change's speed claim. Regenerate after an intentional change with:
//
//	MOBILESIM_GOLDEN=print go test -v -run TestTapeRunGolden ./internal/gpu/
var tapeRunGolden = map[string][2]uint64{
	"BFS":               {17776, 52317},
	"Backprop":          {22016, 92672},
	"BinarySearch":      {4130, 20588},
	"BinomialOption":    {21192, 48984},
	"BitonicSort":       {2496, 28032},
	"Cutcp":             {19862, 269890},
	"DCT":               {21248, 220160},
	"DwtHaar1D":         {7432, 31516},
	"FloydWarshall":     {16384, 155648},
	"MatrixTranspose":   {2048, 24576},
	"NearestNeighbor":   {512, 3840},
	"RecursiveGaussian": {1056, 11208},
	"Reduction":         {31654, 50140},
	"SGEMM":             {26880, 208128},
	"SPMV":              {530, 5098},
	"ScanLargeArrays":   {22966, 83436},
	"SobelFilter":       {2576, 74824},
	"Stencil":           {2400, 32560},
	"URNG":              {2048, 21504},
	"clBLAS-SGEMM":      {8960, 69376},
}

// TestTapeRunGolden pins the tape entries and executed micro-ops of the
// Table II workloads.
func TestTapeRunGolden(t *testing.T) {
	_, got := tableIIRuns(t)
	if os.Getenv("MOBILESIM_GOLDEN") == "print" {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("\t%q: {%d, %d},\n", name, got[name][0], got[name][1])
		}
		return
	}
	for name, want := range tapeRunGolden {
		if got[name] != want {
			t.Errorf("%s: {entries, micro-ops} = %v, want %v", name, got[name], want)
		}
	}
	if len(got) != len(tapeRunGolden) {
		t.Errorf("%d workloads, golden has %d", len(got), len(tapeRunGolden))
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
