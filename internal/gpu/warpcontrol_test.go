package gpu_test

import (
	"testing"

	"mobilesim/internal/gpu"
)

// BenchmarkWarpControl times the warp engine's control path — tape entry,
// terminal, barrier rendezvous and workgroup set-up — on the Table II
// Reduction kernel, whose clauses between barriers are one or two
// micro-ops long. Each iteration runs one job of 64 workgroups of 256
// threads on one core and one host thread, without the Job Manager's
// guest reads, and allocates nothing.
func BenchmarkWarpControl(b *testing.B) {
	progs := tableIIPrograms(b)["Reduction"]
	if len(progs) != 1 {
		b.Fatalf("Reduction decoded %d programs, want 1", len(progs))
	}
	cfg := gpu.DefaultConfig()
	cfg.ShaderCores, cfg.HostThreads = 1, 1
	r := newRig(b, cfg)
	const groups, wg = 64, 256
	in, out := r.allocBuf(4*groups*wg), r.allocBuf(4*groups)
	desc := &gpu.JobDescriptor{
		JobType:       gpu.JobTypeCompute,
		GlobalSize:    [3]uint32{groups * wg, 1, 1},
		LocalSize:     [3]uint32{wg, 1, 1},
		LocalMemVA:    r.allocBuf(4 * wg),
		LocalMemBytes: 4 * wg,
	}
	uniforms := []uint64{in, out, groups * wg}
	run := func() {
		if err := r.dev.ExecJob(desc, progs[0], uniforms); err != nil {
			b.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(3, run); a != 0 {
		b.Fatalf("a warm job allocates %v times, want 0", a)
	}
	before, _ := r.dev.Stats()
	read, stop := gpu.CountTapes()
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	after, _ := r.dev.Stats()
	entries, _ := read()
	b.ReportMetric(float64(after.ClausesExec-before.ClausesExec)/float64(b.N), "clauses/op")
	b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
}
