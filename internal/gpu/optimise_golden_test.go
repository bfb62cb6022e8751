package gpu_test

import (
	"context"
	"fmt"
	"math/rand"
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
// the flat table, micro-ops over the loops' re-entry variants}, sorted.
var tapeGolden = map[string][][5]int{
	"BFS":               {{14, 26, 24, 26, 0}},
	"Backprop":          {{5, 25, 24, 24, 0}, {19, 65, 55, 55, 0}},
	"BinarySearch":      {{10, 26, 22, 24, 0}},
	"BinomialOption":    {{20, 73, 66, 66, 0}},
	"BitonicSort":       {{5, 27, 26, 26, 0}},
	"Cutcp":             {{13, 57, 47, 49, 0}},
	"DCT":               {{12, 38, 33, 33, 7}},
	"DwtHaar1D":         {{8, 28, 25, 25, 0}},
	"FloydWarshall":     {{5, 18, 17, 18, 0}},
	"MatrixTranspose":   {{3, 24, 22, 22, 0}},
	"NearestNeighbor":   {{4, 15, 14, 14, 0}},
	"RecursiveGaussian": {{12, 34, 31, 31, 0}, {12, 35, 32, 32, 0}},
	"Reduction":         {{16, 30, 27, 33, 0}},
	"SGEMM":             {{8, 22, 20, 20, 0}},
	"SPMV":              {{8, 20, 19, 19, 11}},
	"ScanLargeArrays":   {{4, 11, 11, 11, 0}, {25, 57, 54, 68, 0}},
	"SobelFilter":       {{13, 72, 62, 62, 0}},
	"Stencil":           {{10, 69, 64, 64, 0}},
	"URNG":              {{5, 21, 20, 20, 0}},
	"clBLAS-SGEMM":      {{8, 22, 20, 20, 0}},
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
	for _, spec := range workloads.OfKind(workloads.KindBenchmark) {
		progs[spec.Name], runs[spec.Name] = specRun(tb, spec)
	}
	return progs, runs
}

// specRun runs one workload at small scale on one host thread and an
// empty program cache, and returns the programs it decoded and {tapes
// entered, micro-ops those entries ran}.
func specRun(tb testing.TB, spec *workloads.Spec) ([]*gpu.Program, [2]uint64) {
	tb.Helper()
	cfg := gpu.DefaultConfig()
	cfg.HostThreads = 1
	restore := gpu.UsePrivateProgramCache()
	defer restore()
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
	if err != nil {
		tb.Fatal(err)
	}
	entries, uops := read()
	return gpu.CachedPrograms(), [2]uint64{entries, uops}
}

// tapeTable is the golden table's shape of progs.
func tapeTable(progs map[string][]*gpu.Program) map[string][][5]int {
	table := map[string][][5]int{}
	for name, ps := range progs {
		for _, p := range ps {
			c, h, f, a := gpu.TapeSizes(p)
			table[name] = append(table[name], [5]int{len(p.Clauses), c, h, f, a})
		}
		sort.Slice(table[name], func(i, j int) bool {
			return slices.Compare(table[name][i][:], table[name][j][:]) < 0
		})
	}
	return table
}

// TestTapeGolden pins the optimised tapes of the Table II kernels: each of
// the optimiser's rewrites fires on some of them, so one that stops firing
// changes the table.
func TestTapeGolden(t *testing.T) {
	got := tapeTable(tableIIPrograms(t))
	if os.Getenv("MOBILESIM_GOLDEN") == "print" {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rows := make([]string, len(got[name]))
			for i, r := range got[name] {
				rows[i] = fmt.Sprintf("{%d, %d, %d, %d, %d}", r[0], r[1], r[2], r[3], r[4])
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
}

// tapeRunGolden pins what the warp engine runs for each Table II workload
// at small scale, on one host thread: {tapes entered, micro-ops those
// entries ran}. These are the deterministic side of a chain or optimiser
// change's speed claim. Regenerate after an intentional change with:
//
//	MOBILESIM_GOLDEN=print go test -v -run TestTapeRunGolden ./internal/gpu/
var tapeRunGolden = map[string][2]uint64{
	"BFS":               {17776, 42244},
	"Backprop":          {22016, 74496},
	"BinarySearch":      {4130, 14444},
	"BinomialOption":    {21192, 36504},
	"BitonicSort":       {2496, 25728},
	"Cutcp":             {19862, 226242},
	"DCT":               {21248, 139264},
	"DwtHaar1D":         {7432, 27928},
	"FloydWarshall":     {16384, 147456},
	"MatrixTranspose":   {2048, 22528},
	"NearestNeighbor":   {512, 3584},
	"RecursiveGaussian": {1056, 9144},
	"Reduction":         {31654, 29528},
	"SGEMM":             {26880, 182016},
	"SPMV":              {530, 4355},
	"ScanLargeArrays":   {22966, 76010},
	"SobelFilter":       {2576, 56904},
	"Stencil":           {2400, 29760},
	"URNG":              {2048, 20480},
	"clBLAS-SGEMM":      {8960, 60672},
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

// leafMemGolden pins, for each Table II workload at small scale on one host
// thread, the memory micro-ops execLeaf serves and those it hands back to
// memLanes: {served, handed back}. A shape the leaf stops serving
// moves micro-ops from the first count to the second. Regenerate after an
// intentional change with:
//
//	MOBILESIM_GOLDEN=print go test -v -run TestLeafMemoryGolden ./internal/gpu/
var leafMemGolden = map[string][2]uint64{
	"BFS":               {11213, 1},
	"Backprop":          {14772, 12},
	"BinarySearch":      {2084, 0},
	"BinomialOption":    {10696, 0},
	"BitonicSort":       {4800, 0},
	"Cutcp":             {33645, 0},
	"DCT":               {35072, 0},
	"DwtHaar1D":         {5126, 0},
	"FloydWarshall":     {32768, 0},
	"MatrixTranspose":   {4096, 0},
	"NearestNeighbor":   {768, 0},
	"RecursiveGaussian": {2032, 0},
	"Reduction":         {5465, 0},
	"SGEMM":             {50688, 0},
	"SPMV":              {1544, 0},
	"ScanLargeArrays":   {16826, 0},
	"SobelFilter":       {9084, 0},
	"Stencil":           {3200, 0},
	"URNG":              {2048, 0},
	"clBLAS-SGEMM":      {16896, 0},
}

// TestLeafMemoryGolden pins how many of the Table II workloads' memory
// micro-ops execLeaf serves.
func TestLeafMemoryGolden(t *testing.T) {
	got := map[string][2]uint64{}
	for _, spec := range workloads.OfKind(workloads.KindBenchmark) {
		read, stop := gpu.CountLeafMemory()
		specRun(t, spec)
		stop()
		served, handed := read()
		got[spec.Name] = [2]uint64{served, handed}
	}
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
	for name, want := range leafMemGolden {
		if got[name] != want {
			t.Errorf("%s: {served, handed back} = %v, want %v", name, got[name], want)
		}
	}
	if len(got) != len(leafMemGolden) {
		t.Errorf("%d workloads, golden has %d", len(got), len(leafMemGolden))
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

// BenchmarkTapeStencil runs SobelFilter's job — the stencil whose chain
// computes each neighbour row's address once (numberValues) — over a 256×256
// image on one shader core and one host thread, and reports the tape
// micro-ops one job executes. The job must not allocate.
func BenchmarkTapeStencil(b *testing.B) {
	spec, err := workloads.ByName("SobelFilter")
	if err != nil {
		b.Fatal(err)
	}
	progs, _ := specRun(b, spec)
	if len(progs) != 1 {
		b.Fatalf("SobelFilter decoded %d programs, want 1", len(progs))
	}
	cfg := gpu.DefaultConfig()
	cfg.ShaderCores, cfg.HostThreads = 1, 1
	r := newRig(b, cfg)
	const dim = 256
	img := make([]byte, dim*dim)
	rand.New(rand.NewSource(909)).Read(img)
	in, out := r.allocBuf(dim*dim), r.allocBuf(dim*dim)
	if err := r.bus.WriteBytes(in, img); err != nil {
		b.Fatal(err)
	}
	desc := &gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: [3]uint32{dim, dim, 1},
		LocalSize:  [3]uint32{16, 16, 1},
	}
	uniforms := []uint64{in, out, dim, dim}
	read, stop := gpu.CountTapes()
	err = r.dev.ExecJob(desc, progs[0], uniforms)
	stop()
	if err != nil {
		b.Fatal(err)
	}
	_, uops := read()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.dev.ExecJob(desc, progs[0], uniforms); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(uops), "uops/op")
}
