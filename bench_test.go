// One testing.B benchmark per table and figure of the paper's evaluation
// (regenerating the measurement each iteration), plus ablation benchmarks
// for the design decisions called out in DESIGN.md §5. CI runs each once
// (-benchtime=1x) as a compiles-and-runs smoke; the repository's measured
// performance is bench/ (BENCHMARK.json), not these.
//
// Run with:
//
//	go test -bench=. -benchmem
package mobilesim_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"mobilesim"
	"mobilesim/internal/cl"
	"mobilesim/internal/clc"
	"mobilesim/internal/cpu"
	"mobilesim/internal/experiments"
	"mobilesim/internal/gpu"
	"mobilesim/internal/platform"
	"mobilesim/internal/slam"
	"mobilesim/internal/workloads"
)

var bg = context.Background()

var smallOpt = experiments.Options{Scale: experiments.ScaleSmall}

// runSpec executes one workload at small scale on a fresh platform.
func runSpec(b *testing.B, name string) {
	b.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := platform.New(platform.Config{RAMSize: 512 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	c, err := cl.NewContext(p, "")
	if err != nil {
		b.Fatal(err)
	}
	inst := spec.Make(spec.SmallScale)
	res, err := inst.Run(bg, c, name, true)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Verified {
		b.Fatal(res.VerifyErr)
	}
}

// --- Figures -----------------------------------------------------------------

func BenchmarkFig01CompilerVersions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06DivergenceCFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(bg, io.Discard, smallOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07Slowdown(b *testing.B) {
	// One representative row of the slowdown measurement (SobelFilter).
	for i := 0; i < b.N; i++ {
		runSpec(b, "SobelFilter")
	}
}

func BenchmarkFig08VsBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(bg, io.Discard, smallOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09DriverScaling(b *testing.B) {
	// One untimed warm-up sweep fills the RAM recycling pools (each of the
	// sweep's platforms, ours and the interpreter-CPU baseline's, acquires
	// a fresh GiB-scale backing store otherwise), so the timed iterations
	// measure the steady state the sweep actually runs in.
	if _, err := experiments.Fig9(bg, io.Discard, smallOpt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(bg, io.Discard, smallOpt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ThreadScaling(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			cfg := gpu.DefaultConfig()
			cfg.HostThreads = threads
			for i := 0; i < b.N; i++ {
				spec, _ := workloads.ByName("SobelFilter")
				p, err := platform.New(platform.Config{RAMSize: 512 << 20, GPU: cfg})
				if err != nil {
					b.Fatal(err)
				}
				c, err := cl.NewContext(p, "")
				if err != nil {
					p.Close()
					b.Fatal(err)
				}
				if _, err := spec.Make(128).Run(bg, c, "SobelFilter", true); err != nil {
					p.Close()
					b.Fatal(err)
				}
				p.Close()
			}
		})
	}
}

func BenchmarkFig11InstructionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSpec(b, "Reduction")
	}
}

func BenchmarkFig12DataAccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSpec(b, "Backprop")
	}
}

func BenchmarkFig13ClauseSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSpec(b, "RecursiveGaussian")
	}
}

func BenchmarkFig14SLAMBench(b *testing.B) {
	cfg := slam.Express(1)
	cfg.Frames = 2
	for i := 0; i < b.N; i++ {
		p, err := platform.New(platform.Config{RAMSize: 512 << 20})
		if err != nil {
			b.Fatal(err)
		}
		c, err := cl.NewContext(p, "")
		if err != nil {
			p.Close()
			b.Fatal(err)
		}
		if _, err := slam.Run(bg, c, cfg); err != nil {
			p.Close()
			b.Fatal(err)
		}
		p.Close()
	}
}

func BenchmarkFig15SGEMM(b *testing.B) {
	const dim = 32
	a, bb := workloads.SgemmInputs(dim, dim, dim)
	for _, v := range workloads.SgemmVariants() {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := platform.New(platform.Config{RAMSize: 256 << 20})
				if err != nil {
					b.Fatal(err)
				}
				c, err := cl.NewContext(p, "")
				if err != nil {
					p.Close()
					b.Fatal(err)
				}
				if _, err := workloads.RunSgemmVariant(bg, c, v, a, bb, dim, dim, dim); err != nil {
					p.Close()
					b.Fatal(err)
				}
				p.Close()
			}
		})
	}
}

func BenchmarkTable3SystemStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runSpec(b, "BFS")
	}
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------------

// BenchmarkAblationDBT quantifies the DBT block cache against pure
// interpretation on the CPU-bound driver path (a large buffer write).
func BenchmarkAblationDBT(b *testing.B) {
	for _, engine := range []cpu.Engine{cpu.EngineDBT, cpu.EngineInterp} {
		engine := engine
		b.Run(engine.String(), func(b *testing.B) {
			p, err := platform.New(platform.Config{RAMSize: 256 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			p.CPU.SetEngine(engine)
			c, err := cl.NewContext(p, "")
			if err != nil {
				b.Fatal(err)
			}
			buf, err := c.CreateBuffer(1 << 20)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, 1<<20)
			b.SetBytes(1 << 20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.WriteBuffer(bg, buf, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationClauses compares the clause-forming compiler (6.1)
// against the short-clause, heavily padded 5.6 pipeline end to end.
func BenchmarkAblationClauses(b *testing.B) {
	for _, ver := range []string{"5.6", "6.1"} {
		ver := ver
		b.Run("clc-"+ver, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, _ := workloads.ByName("DCT")
				p, err := platform.New(platform.Config{RAMSize: 256 << 20})
				if err != nil {
					b.Fatal(err)
				}
				c, err := cl.NewContext(p, ver)
				if err != nil {
					p.Close()
					b.Fatal(err)
				}
				if _, err := spec.Make(spec.SmallScale).Run(bg, c, "DCT", true); err != nil {
					p.Close()
					b.Fatal(err)
				}
				p.Close()
			}
		})
	}
}

// BenchmarkAblationInstrumentation measures the cost of the optional CFG
// collection on top of the always-on counters (the Fig 8 "with
// instrumentation" delta).
func BenchmarkAblationInstrumentation(b *testing.B) {
	for _, collect := range []bool{false, true} {
		name := "counters-only"
		if collect {
			name = "with-cfg"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, _ := workloads.ByName("BFS")
				p, err := platform.New(platform.Config{RAMSize: 256 << 20, GPU: gpu.DefaultConfig()})
				if err != nil {
					b.Fatal(err)
				}
				p.GPU.SetCollectCFG(collect)
				c, err := cl.NewContext(p, "")
				if err != nil {
					p.Close()
					b.Fatal(err)
				}
				if _, err := spec.Make(spec.SmallScale).Run(bg, c, "BFS", true); err != nil {
					p.Close()
					b.Fatal(err)
				}
				p.Close()
			}
		})
	}
}

// BenchmarkAblationGPUEngine compares the two shader execution engines —
// the reference interpreter and the warp tape (the default) — on an
// arithmetic-dense workload. Both produce bit-identical statistics; this
// ablation measures host speed only.
func BenchmarkAblationGPUEngine(b *testing.B) {
	for _, eng := range []gpu.Engine{gpu.EngineInterp, gpu.EngineWarp} {
		name := eng.String()
		cfg := gpu.DefaultConfig()
		cfg.Engine = eng
		b.Run(name, func(b *testing.B) {
			run := func() {
				spec, _ := workloads.ByName("Cutcp")
				p, err := platform.New(platform.Config{RAMSize: 256 << 20, GPU: cfg})
				if err != nil {
					b.Fatal(err)
				}
				c, err := cl.NewContext(p, "")
				if err != nil {
					p.Close()
					b.Fatal(err)
				}
				if _, err := spec.Make(12).Run(bg, c, "Cutcp", true); err != nil {
					p.Close()
					b.Fatal(err)
				}
				p.Close()
			}
			// Untimed warm-up plus a forced collection: each engine's
			// timed loop starts from the same heap state instead of
			// inheriting GC debt from the sub-benchmark before it.
			run()
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkCompiler measures raw JIT throughput (parse + lower + clause
// formation + regalloc + encode).
// BenchmarkCompiler times a compile the process has not memoised: each
// iteration's source differs in a leading comment.
func BenchmarkCompiler(b *testing.B) {
	src := `
kernel void k(global float* a, global float* b, global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float x = a[i];
        for (int j = 0; j < 8; j++) {
            x = x * 1.5f + b[i];
        }
        c[i] = x;
    }
}
`
	for i := 0; i < b.N; i++ {
		if _, err := clc.Compile(fmt.Sprintf("/* %d */", i)+src, "k", clc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadKernel is what a session pays to load a kernel the process
// has compiled before (Session.LoadKernel): a compile-memo hit, the driver's
// allocations and the binary's copy into guest memory by the simulated CPU.
// Each load keeps its guest memory, so a fresh session takes over every
// 256 loads, off the clock.
func BenchmarkLoadKernel(b *testing.B) {
	var s *mobilesim.Session
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			b.StopTimer()
			if s != nil {
				s.Close()
			}
			var err error
			if s, err = mobilesim.New(mobilesim.Config{}); err != nil {
				b.Fatal(err)
			}
			if _, err := s.LoadKernel(axpbSrc, "axpb"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := s.LoadKernel(axpbSrc, "axpb"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.Close()
}

// --- Snapshot/fork trajectory ------------------------------------------------

// BenchmarkColdBoot is what a session costs without a snapshot: platform
// construction, firmware load, guest-code GPU probe (gpu_init), staging
// allocation, teardown scrub. 34–69 µs/op, 56 allocs/op over eight runs on
// the 2-CPU development host (DESIGN.md §8 has every run; CI prints the
// number on every PR). Local Batch jobs and one-shot CLI runs pay it, which
// is why neither captures a snapshot to fork from.
func BenchmarkColdBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := mobilesim.New(mobilesim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkSnapshotFork creates run-ready sessions by forking a boot
// snapshot — the path cmd/mobilesimd's pools and cluster batches sit on.
// 11–17 µs/op, 52 allocs/op over the same eight runs: two to five times
// cheaper than a boot. One run in eight measured 631 µs/op because the GC
// had drained the guest-RAM pool mid-loop (ROADMAP item 2). A snapshot
// earns its keep by carrying a Config or warmed state to another host, not
// by saving these microseconds. The boot image holds one content page;
// BenchmarkSnapshotForkWarm shows what each further page costs.
func BenchmarkSnapshotFork(b *testing.B) {
	parent, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer parent.Close()
	benchFork(b, parent)
}

// BenchmarkSnapshotForkWarm forks a snapshot captured after a Reduction
// run, whose image holds on the order of a hundred content pages where a
// boot image holds one: the difference to BenchmarkSnapshotFork is the
// per-content-page cost of copy-at-fork (DESIGN.md §8).
func BenchmarkSnapshotForkWarm(b *testing.B) {
	parent, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer parent.Close()
	if _, err := parent.Run(context.Background(), "Reduction"); err != nil {
		b.Fatal(err)
	}
	benchFork(b, parent)
}

// benchFork times New(FromSnapshot) + Close over a snapshot of parent.
func benchFork(b *testing.B, parent *mobilesim.Session) {
	snap, err := parent.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(snap))
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// noopInstance does nothing on the device and has no reference: running
// it costs exactly what Session.Run adds around any workload.
var noopInstance = &workloads.Instance{Sim: func(context.Context, *cl.Context) (any, error) { return nil, nil }}

var noopSpec = &workloads.Spec{
	Name: "noop", Kind: workloads.KindBenchmark,
	Make: func(int) *workloads.Instance { return noopInstance },
}

// BenchmarkRunNoop is the facade's own cost per run: taking the session,
// scoping the context to the session lifetime, two Stats copies,
// Instance.Run's result, the delta and the cost model. 1.7–2.6 µs/op,
// 7 allocs/op, 816 B/op at -cpu 1 and 2 on the 2-CPU development host,
// where the goroutine-per-submission queue of PR 19 read 4.2–5.5 µs at
// -cpu 1, 5.3–7.5 µs at -cpu 2, 10 allocs/op (DESIGN.md §4; CI prints the
// number on every PR).
func BenchmarkRunNoop(b *testing.B) {
	s, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunSpec(bg, noopSpec); err != nil {
			b.Fatal(err)
		}
	}
}

// benchName builds a parameterised sub-benchmark name. The separator is
// not "-": go test appends -<GOMAXPROCS> to benchmark names, and tools that
// strip that suffix would collapse "threads-8" and "threads-32" onto one
// key.
func benchName(prefix string, n int) string {
	return fmt.Sprintf("%s=%d", prefix, n)
}
