package gpu_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mobilesim/internal/gpu"
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/stats"
)

// Pins for the persistent cores and host threads (DESIGN.md §3.6): what a
// job re-binds instead of building, what a workgroup resets, the runaway
// guard and the local-memory paths — each against the property that breaks
// when the mechanism is taken out.

var bothEngines = []gpu.Engine{gpu.EngineInterp, gpu.EngineWarp}

// stageReverse stages reverseProgram over n threads in workgroups of wg,
// with guest local slots, and returns the descriptor and output VAs.
func (r *rig) stageReverse(n, wg uint32) (descVA, out uint64) {
	r.t.Helper()
	out = r.allocBuf(int(4 * n))
	progVA, progSize := r.loadProgram(reverseProgram())
	return r.stage(&gpu.JobDescriptor{
		JobType:       gpu.JobTypeCompute,
		GlobalSize:    [3]uint32{n, 1, 1},
		LocalSize:     [3]uint32{wg, 1, 1},
		ShaderVA:      progVA,
		ShaderSize:    progSize,
		LocalMemBytes: wg * 4,
		LocalMemVA:    r.allocBuf(r.dev.Config().ShaderCores * int(wg) * 4),
	}, []uint64{out}), out
}

// TestWarmDeviceJobAllocatesOnlyItsReads pins "a job on a warm device
// allocates nothing" at HostThreads 1: the second and later runs of a job
// with local memory, a barrier and a kernel argument allocate only what
// the Job Manager reads out of guest memory for them — the descriptor's
// bytes and its decoded struct, the shader's bytes (compared against the
// decode cache) and the argument block's bytes and values. No walker, TLB
// array, touched-page map, execution context, uniform table, local store,
// warp slab, stats shard, goroutine or wait group.
func TestWarmDeviceJobAllocatesOnlyItsReads(t *testing.T) {
	const jobReads = 5
	for _, eng := range bothEngines {
		cfg := gpu.DefaultConfig()
		cfg.HostThreads, cfg.Engine = 1, eng
		r := newRig(t, cfg)
		descVA, _ := r.stageReverse(256, 32)
		var raw uint64
		run := func() {
			// Straight at the register file: the rig's helpers and the
			// interrupt controller's wait channel allocate.
			r.dev.WriteReg(gpu.RegJS0Head, 8, descVA)
			r.dev.WriteReg(gpu.RegJS0Command, 8, gpu.JSCmdStart)
			for raw = 0; raw == 0; runtime.Gosched() {
				raw, _ = r.dev.ReadReg(gpu.RegIRQRawstat, 8)
			}
			r.dev.WriteReg(gpu.RegIRQClear, 8, raw)
		}
		run() // the device's first job makes the chain walker and the core
		if allocs := testing.AllocsPerRun(50, run); allocs > jobReads {
			t.Errorf("%v: a job on a warm device allocates %v objects, want at most %d", eng, allocs, jobReads)
		}
		if raw != gpu.IRQJobDone {
			t.Errorf("%v: rawstat = %#x, want job done", eng, raw)
		}
	}
}

// jobCounts is what a job adds to a device's statistics, less the
// control-register traffic of the rig's own polling and the register
// footprint, a high-water mark over the device's jobs. Its PagesAccessed
// is the pages no job before it touched: the device counts distinct pages.
type jobCounts struct {
	gpu stats.GPUStats
	sys stats.SystemStats
}

func (r *rig) jobCounts(descVA uint64) jobCounts {
	r.t.Helper()
	gpu0, sys0 := r.dev.Stats()
	if raw := r.kick(descVA); raw&gpu.IRQJobDone == 0 {
		r.t.Fatalf("rawstat = %#x", raw)
	}
	gpu1, sys1 := r.dev.Stats()
	c := jobCounts{gpu1.Sub(&gpu0), sys1.Sub(&sys0)}
	c.sys.CtrlRegReads, c.sys.CtrlRegWrites, c.gpu.RegistersUsed = 0, 0, 0
	return c
}

// TestBackToBackJobsCountIdentically pins the re-bind contract: a job on a
// core that has run other jobs counts exactly what it counted on the fresh
// core — instruction mix, TLB hits and walks, pages — and translates
// through the page tables as they are now, not as a previous job's TLB
// remembers them. Nor does it inherit a tape tally: the job before it faults
// with its cores' tapes entered and not finished.
func TestBackToBackJobsCountIdentically(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			cfg := gpu.DefaultConfig()
			cfg.HostThreads = threads
			r := newRig(t, cfg)

			// A job, a different job over other pages, a job that faults
			// part-way down its tape, the first job again.
			reverse, _ := r.stageReverse(1024, 32)
			const n = 2048
			a, b, sum := r.allocBuf(4*n), r.allocBuf(4*n), r.allocBuf(4*n)
			progVA, progSize := r.loadProgram(vecAddProgram())
			vecAdd := r.stage(&gpu.JobDescriptor{
				JobType:    gpu.JobTypeCompute,
				GlobalSize: [3]uint32{n, 1, 1},
				LocalSize:  [3]uint32{64, 1, 1},
				ShaderVA:   progVA,
				ShaderSize: progSize,
			}, []uint64{a, b, sum})
			// Its output's second page is unmapped: every core finishes
			// workgroups — tapes run to their end, tallied — before the
			// one that faults.
			half := r.allocBuf(4 * n)
			if err := r.as.Unmap(half + mem.PageSize); err != nil {
				t.Fatal(err)
			}
			faulting := r.stage(&gpu.JobDescriptor{
				JobType:    gpu.JobTypeCompute,
				GlobalSize: [3]uint32{n, 1, 1},
				LocalSize:  [3]uint32{64, 1, 1},
				ShaderVA:   progVA,
				ShaderSize: progSize,
			}, []uint64{a, b, half})
			first := r.jobCounts(reverse)
			r.jobCounts(vecAdd)
			if raw := r.kick(faulting); raw&gpu.IRQJobFault == 0 {
				t.Fatalf("stores to an unmapped page: rawstat = %#x, want a job fault", raw)
			}
			// The run again touches only pages the first run counted.
			pages := first.sys.PagesAccessed
			first.sys.PagesAccessed = 0
			if again := r.jobCounts(reverse); again != first || first.sys.TLBWalks == 0 || pages == 0 {
				t.Errorf("the same job counted differently after other jobs ran on its cores:\nfirst: %+v\nagain: %+v", first, again)
			}

			// The guest moves a page between two runs of one job: every
			// core stored through va in the first run, and must walk the
			// rewritten table in the second.
			const va = 0x4000_0000
			pa1, pa2 := r.allocBuf(mem.PageSize), r.allocBuf(mem.PageSize)
			if err := r.as.Map(va, pa1, mmu.PermR|mmu.PermW); err != nil {
				t.Fatal(err)
			}
			store := r.stage(&gpu.JobDescriptor{
				JobType:    gpu.JobTypeCompute,
				GlobalSize: [3]uint32{1024, 1, 1},
				LocalSize:  [3]uint32{64, 1, 1},
				ShaderVA:   progVA,
				ShaderSize: progSize,
			}, []uint64{a, b, va})
			ones := make([]int32, 1024)
			for i := range ones {
				ones[i] = 1
			}
			r.writeInts(a, ones)
			r.jobCounts(store)
			r.writeInts(pa1, make([]int32, 1024))
			if err := r.as.Unmap(va); err != nil {
				t.Fatal(err)
			}
			if err := r.as.Map(va, pa2, mmu.PermR|mmu.PermW); err != nil {
				t.Fatal(err)
			}
			r.jobCounts(store)
			old, moved := r.readInts(pa1, 1024), r.readInts(pa2, 1024)
			for i := range old {
				if old[i] != 0 || moved[i] != 1 {
					t.Fatalf("element %d went to the page the table used to name (old page %d, new page %d)", i, old[i], moved[i])
				}
			}
		})
	}
}

// leakProgram stores every register it has not written — r1..r63 and
// t0..t3; r0 holds the address — into the thread's 67-word slice of c0,
// then fills all of them with a non-zero pattern for whoever uses the
// warp's storage next.
func leakProgram(regCount int) *gpu.Program {
	regs := make([]uint8, 0, gpu.NumGRF+gpu.NumTemp-1)
	for i := 1; i < gpu.NumGRF; i++ {
		regs = append(regs, gpu.R(i))
	}
	for i := 0; i < gpu.NumTemp; i++ {
		regs = append(regs, gpu.T(i))
	}
	p := &gpu.Program{RegCount: regCount, Uniforms: 1, Clauses: []gpu.Clause{clause(
		gpu.Instr{Op: gpu.OpMUL64, Dst: gpu.R(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: uint32(8 * len(regs))},
		gpu.Instr{Op: gpu.OpADD64, Dst: gpu.R(0), A: gpu.C(0), B: gpu.R(0)},
	)}}
	emit := func(mk func(k int, reg uint8) gpu.Instr) {
		for k := 0; k < len(regs); k += 8 {
			var c gpu.Clause
			for j := k; j < min(k+8, len(regs)); j++ {
				c.Instrs = append(c.Instrs, mk(j, regs[j]))
			}
			p.Clauses = append(p.Clauses, c)
		}
	}
	emit(func(k int, reg uint8) gpu.Instr {
		return gpu.Instr{Op: gpu.OpSTG64, A: gpu.R(0), B: reg, Imm: uint32(8 * k)}
	})
	emit(func(k int, reg uint8) gpu.Instr {
		return gpu.Instr{Op: gpu.OpMOV, Dst: reg, A: gpu.Imm, Imm: 0xdead0000 + uint32(k)}
	})
	p.Clauses = append(p.Clauses, clause(gpu.Instr{Op: gpu.OpRET}))
	return p
}

// TestRegistersDoNotLeakAcrossWorkgroupsOrJobs pins the workgroup reset: a
// kernel observes zero in every register it has not written, whatever the
// previous workgroup on its core, or the previous job on its device, left
// in the warp slab — and whatever register count its header claims: the
// reset's bound comes from the instructions, which here use r63 under a
// header that says one register.
func TestRegistersDoNotLeakAcrossWorkgroupsOrJobs(t *testing.T) {
	for _, eng := range bothEngines {
		for _, regCount := range []int{gpu.NumGRF, 1} {
			cfg := gpu.DefaultConfig()
			cfg.HostThreads, cfg.Engine = 1, eng
			r := newRig(t, cfg)
			const threads, words = 24, gpu.NumGRF + gpu.NumTemp - 1
			out := r.allocBuf(8 * words * threads)
			progVA, progSize := r.loadProgram(leakProgram(regCount))
			descVA := r.stage(&gpu.JobDescriptor{
				JobType:    gpu.JobTypeCompute,
				GlobalSize: [3]uint32{threads, 1, 1},
				LocalSize:  [3]uint32{6, 1, 1}, // four workgroups of a full and a partial warp
				ShaderVA:   progVA,
				ShaderSize: progSize,
			}, []uint64{out})
			for job := 0; job < 2; job++ {
				if raw := r.kick(descVA); raw&gpu.IRQJobDone == 0 {
					t.Fatalf("rawstat = %#x", raw)
				}
				buf := make([]byte, 8*words*threads)
				if err := r.bus.ReadBytes(out, buf); err != nil {
					t.Fatal(err)
				}
				if i := len(buf) - len(bytes.TrimLeft(buf, "\x00")); i < len(buf) {
					t.Errorf("%v, header RegCount %d, job %d: thread %d read a non-zero byte from unwritten register slot %d",
						eng, regCount, job, i/(8*words), i%(8*words)/8)
				}
			}
		}
	}
}

// TestBarrierLoopExhaustsClauseBudget pins the runaway guard as "per warp
// per job": a kernel that loops through a barrier is a job fault, not a
// Job Manager that spins until someone soft-stops it.
func TestBarrierLoopExhaustsClauseBudget(t *testing.T) {
	defer gpu.SetClauseBudget(1000)()
	for _, eng := range bothEngines {
		cfg := gpu.DefaultConfig()
		cfg.Engine = eng
		r := newRig(t, cfg)
		progVA, progSize := r.loadProgram(&gpu.Program{RegCount: 1, Clauses: []gpu.Clause{
			clause(gpu.Instr{Op: gpu.OpBARRIER}),
			clause(gpu.Instr{Op: gpu.OpBR, Imm: 0}),
		}})
		raw := r.submit(&gpu.JobDescriptor{
			JobType:    gpu.JobTypeCompute,
			GlobalSize: [3]uint32{8, 1, 1},
			LocalSize:  [3]uint32{8, 1, 1},
			ShaderVA:   progVA,
			ShaderSize: progSize,
		}, nil)
		// 0xFF is the fault status of a job error that is not an MMU fault:
		// here "clause budget exhausted".
		if raw&gpu.IRQJobFault == 0 || r.rd(gpu.RegJS0Status) != gpu.JSFaulted || r.rd(gpu.RegAS0FaultStat) != 0xFF {
			t.Errorf("%v: rawstat %#x, status %d, fault status %#x; want a job fault", eng, raw, r.rd(gpu.RegJS0Status), r.rd(gpu.RegAS0FaultStat))
		}
	}
}

// TestChainLoopExhaustsClauseBudget pins the runaway guard's unit as the
// clause, whatever runs it: a one-warp kernel whose loop body is one
// three-clause chain faults once it has executed the budget's worth of
// clauses, under both engines — not three times as many on the warp
// engine, which enters the chain once per iteration.
func TestChainLoopExhaustsClauseBudget(t *testing.T) {
	const budget = 999
	defer gpu.SetClauseBudget(budget)()
	for _, eng := range bothEngines {
		cfg := gpu.DefaultConfig()
		cfg.Engine = eng
		r := newRig(t, cfg)
		step := gpu.Instr{Op: gpu.OpIADD, Dst: gpu.R(0), A: gpu.R(0), B: gpu.Imm, Imm: 1}
		progVA, progSize := r.loadProgram(&gpu.Program{RegCount: 1, Clauses: []gpu.Clause{
			clause(step), clause(step), clause(step, gpu.Instr{Op: gpu.OpBR, Imm: 0}),
		}})
		raw := r.submit(&gpu.JobDescriptor{
			JobType:    gpu.JobTypeCompute,
			GlobalSize: [3]uint32{gpu.WarpSize, 1, 1},
			LocalSize:  [3]uint32{gpu.WarpSize, 1, 1},
			ShaderVA:   progVA,
			ShaderSize: progSize,
		}, nil)
		if raw&gpu.IRQJobFault == 0 || r.rd(gpu.RegAS0FaultStat) != 0xFF {
			t.Errorf("%v: rawstat %#x, fault status %#x; want the budget's job fault", eng, raw, r.rd(gpu.RegAS0FaultStat))
		}
		if gs, _ := r.dev.Stats(); gs.ClausesExec < budget || gs.ClausesExec > budget+3 {
			t.Errorf("%v: %d clauses executed before the guard fired, want %d to %d", eng, gs.ClausesExec, budget, budget+3)
		}
	}
}

// localCase is one shape of workgroup-local traffic. Its kernel stores gid
// at local offset 4·lid + skew, meets at a barrier, and loads the word of
// the mirror thread — inside a divergent region when diverge is set — into
// the thread's output word.
type localCase struct {
	name      string
	lsz       uint32
	skew      uint32 // byte offset added to every local access
	slotBytes uint32 // LocalMemBytes
	slotOff   uint64 // where slot 0 starts inside its first page
	diverge   bool
	cores     int // ShaderCores; four host threads are asked for
	wantFault bool
}

func (c localCase) program() *gpu.Program {
	load := []gpu.Instr{
		{Op: gpu.OpISUB, Dst: gpu.T(0), A: gpu.S(gpu.SpecLSZX), B: gpu.S(gpu.SpecLIDX)},
		{Op: gpu.OpISUB, Dst: gpu.T(0), A: gpu.T(0), B: gpu.Imm, Imm: 1},
		{Op: gpu.OpIMUL, Dst: gpu.T(0), A: gpu.T(0), B: gpu.Imm, Imm: 4},
		{Op: gpu.OpLDL, Dst: gpu.R(0), A: gpu.T(0), Imm: c.skew},
	}
	p := &gpu.Program{RegCount: 3, Uniforms: 1, Clauses: []gpu.Clause{clause(
		gpu.Instr{Op: gpu.OpIMUL, Dst: gpu.T(0), A: gpu.S(gpu.SpecLIDX), B: gpu.Imm, Imm: 4},
		gpu.Instr{Op: gpu.OpSTL, A: gpu.T(0), B: gpu.S(gpu.SpecGIDX), Imm: c.skew},
		gpu.Instr{Op: gpu.OpAND, Dst: gpu.R(1), A: gpu.S(gpu.SpecLIDX), B: gpu.Imm, Imm: 1},
		gpu.Instr{Op: gpu.OpBARRIER},
	)}}
	if c.diverge {
		// Odd lanes branch over the load to the final clause; even lanes
		// load under a half-empty mask.
		p.Clauses = append(p.Clauses,
			clause(gpu.Instr{Op: gpu.OpBRC, A: gpu.R(1), Imm: gpu.BranchImm(3, 3)}),
			clause(load...))
	} else {
		p.Clauses = append(p.Clauses, clause(load...))
	}
	p.Clauses = append(p.Clauses, clause(
		gpu.Instr{Op: gpu.OpMUL64, Dst: gpu.T(1), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 4},
		gpu.Instr{Op: gpu.OpADD64, Dst: gpu.T(2), A: gpu.C(0), B: gpu.T(1)},
		gpu.Instr{Op: gpu.OpSTG, A: gpu.T(2), B: gpu.R(0)},
		gpu.Instr{Op: gpu.OpRET},
	))
	return p
}

// run executes the case on a fresh device and returns the rawstat, the
// output words and the device's counters.
func (c localCase) run(t *testing.T, eng gpu.Engine) (uint32, []int32, [2]any) {
	cfg := gpu.DefaultConfig()
	cfg.Engine, cfg.ShaderCores, cfg.HostThreads = eng, c.cores, 4
	r := newRig(t, cfg)
	n := 8 * c.lsz
	out := r.allocBuf(int(4 * n))
	progVA, progSize := r.loadProgram(c.program())
	raw := r.submit(&gpu.JobDescriptor{
		JobType:       gpu.JobTypeCompute,
		GlobalSize:    [3]uint32{n, 1, 1},
		LocalSize:     [3]uint32{c.lsz, 1, 1},
		ShaderVA:      progVA,
		ShaderSize:    progSize,
		LocalMemBytes: c.slotBytes,
		LocalMemVA:    r.allocBuf(2*mem.PageSize) + c.slotOff,
	}, []uint64{out})
	gs, sys := r.dev.Stats()
	sys.CtrlRegReads, sys.CtrlRegWrites = 0, 0
	return raw, r.readInts(out, int(n)), [2]any{gs, sys}
}

// TestLocalSpanMatchesInterp runs whole jobs over every shape of a warp's
// LDL/STL span that execLeaf has to serve or hand back, under both engines:
// same memory, same counters — TLB hits and walks included — and, where a
// lane is out of bounds, the same fault with the same counters at the
// abort. TestLeafMemoryMatchesInterp holds the same rule one micro-op at a
// time.
func TestLocalSpanMatchesInterp(t *testing.T) {
	for _, c := range []localCase{
		{name: "one_page", lsz: 16, slotBytes: 64, cores: 8},
		// Slot 0 starts 24 bytes before a page boundary: its second warp
		// has two lanes on either side; slots 1..3 sit on the second page.
		{name: "slot_straddles_page", lsz: 16, slotBytes: 64, slotOff: mem.PageSize - 24, cores: 8},
		// The last lane's word is the first one past the slot.
		{name: "lane_out_of_bounds", lsz: 16, skew: 4, slotBytes: 64, cores: 8, wantFault: true},
		{name: "unaligned", lsz: 16, skew: 2, slotBytes: 68, cores: 8},
		{name: "divergent", lsz: 16, slotBytes: 64, diverge: true, cores: 8},
		{name: "partial_tail_warp", lsz: 6, slotBytes: 24, cores: 8},
		{name: "threads_beyond_cores", lsz: 16, slotBytes: 64, cores: 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			rawI, outI, statsI := c.run(t, gpu.EngineInterp)
			rawW, outW, statsW := c.run(t, gpu.EngineWarp)
			if want := uint32(gpu.IRQJobDone); c.wantFault {
				if rawI&gpu.IRQJobFault == 0 {
					t.Fatalf("interpreter rawstat %#x, want a job fault", rawI)
				}
			} else if rawI != want {
				t.Fatalf("interpreter rawstat %#x, want job done", rawI)
			}
			if rawW != rawI {
				t.Errorf("rawstat: warp %#x, interpreter %#x", rawW, rawI)
			}
			if fmt.Sprint(outW) != fmt.Sprint(outI) {
				t.Errorf("output differs:\nwarp:   %v\ninterp: %v", outW, outI)
			}
			if statsW != statsI {
				t.Errorf("counters differ:\nwarp:   %+v\ninterp: %+v", statsW, statsI)
			}
			if !c.wantFault && !c.diverge {
				for i, v := range outI {
					if want := int32(uint32(i)/c.lsz*c.lsz + c.lsz - 1 - uint32(i)%c.lsz); v != want {
						t.Fatalf("out[%d] = %d, want %d", i, v, want)
					}
				}
			}
		})
	}
}

// TestDescriptorSizesCannotKillTheDevice pins what a guest-written job
// descriptor can ask of the host. A workgroup above MaxWorkgroupThreads —
// whose warps a core would have to hold all at once — is a job fault before
// anything is sized by it, and the device runs the next job. A grid of 2^32
// workgroups, whose index does not fit the 32 bits it used to be decomposed
// in, starts, runs until it is soft-stopped and ends stopped.
func TestDescriptorSizesCannotKillTheDevice(t *testing.T) {
	for _, eng := range bothEngines {
		cfg := gpu.DefaultConfig()
		cfg.Engine = eng
		r := newRig(t, cfg)
		// Every thread raises a flag, so the test can see the grid running.
		flag := r.allocBuf(8)
		progVA, progSize := r.loadProgram(&gpu.Program{RegCount: 1, Uniforms: 1, Clauses: []gpu.Clause{clause(
			gpu.Instr{Op: gpu.OpSTG, A: gpu.C(0), B: gpu.S(gpu.SpecLSZX)},
			gpu.Instr{Op: gpu.OpRET},
		)}})
		stage := func(global, local [3]uint32) uint64 {
			return r.stage(&gpu.JobDescriptor{
				JobType:    gpu.JobTypeCompute,
				GlobalSize: global,
				LocalSize:  local,
				ShaderVA:   progVA,
				ShaderSize: progSize,
			}, []uint64{flag})
		}

		for _, local := range [][3]uint32{{gpu.MaxWorkgroupThreads + 1, 1, 1}, {32, 32, 2}, {65536, 65536, 1}, {1 << 31, 1 << 31, 4}} {
			raw := r.kick(stage(local, local))
			// 0xFF: a job error that is not an MMU fault.
			if raw&gpu.IRQJobFault == 0 || r.rd(gpu.RegJS0Status) != gpu.JSFaulted || r.rd(gpu.RegAS0FaultStat) != 0xFF {
				t.Errorf("%v, workgroup %v: rawstat %#x, status %d, fault status %#x; want a job fault",
					eng, local, raw, r.rd(gpu.RegJS0Status), r.rd(gpu.RegAS0FaultStat))
			}
		}
		if _, err := (&gpu.JobDescriptor{GlobalSize: [3]uint32{1 << 31, 1 << 31, 4}, LocalSize: [3]uint32{1, 1, 1}}).Workgroups(); err == nil {
			t.Errorf("a workgroup count of 2^64 was accepted")
		}
		var tooBig *gpu.WorkgroupSizeError
		if _, err := (&gpu.JobDescriptor{GlobalSize: [3]uint32{2048, 1, 1}, LocalSize: [3]uint32{2048, 1, 1}}).Workgroups(); !errors.As(err, &tooBig) {
			t.Errorf("a 2048-thread workgroup: %v, want a WorkgroupSizeError", err)
		}
		limit := [3]uint32{gpu.MaxWorkgroupThreads, 1, 1}
		if raw := r.kick(stage(limit, limit)); raw != gpu.IRQJobDone {
			t.Fatalf("%v: the job after the refused ones, a workgroup at the limit: rawstat %#x, want job done", eng, raw)
		}

		if err := r.bus.AtomicWrite(flag, 4, 0); err != nil {
			t.Fatal(err)
		}
		r.wr(gpu.RegJS0Head, stage([3]uint32{65536, 65536, 1}, [3]uint32{1, 1, 1}))
		r.wr(gpu.RegJS0Command, gpu.JSCmdStart)
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
			if v, err := r.bus.AtomicRead(flag, 4); err != nil || time.Now().After(deadline) {
				t.Fatalf("%v: the 2^32-workgroup grid never ran a thread (flag read: %v)", eng, err)
			} else if v != 0 {
				break
			}
		}
		r.wr(gpu.RegJS0Command, gpu.JSCmdSoftStop)
		if raw := r.waitIRQ(); raw != gpu.IRQJobStopped || r.rd(gpu.RegJS0Status) != gpu.JSStopped {
			t.Errorf("%v: soft-stopped 2^32-workgroup grid: rawstat %#x, status %d; want stopped", eng, raw, r.rd(gpu.RegJS0Status))
		}
	}
}

// TestOversizedShaderFaultsBeforeAllocating pins MaxShaderBytes: a
// descriptor whose ShaderSize claims 4 GiB is a job fault on both engines
// before the Job Manager sizes anything by it, and the device runs the next
// job.
func TestOversizedShaderFaultsBeforeAllocating(t *testing.T) {
	for _, eng := range bothEngines {
		cfg := gpu.DefaultConfig()
		cfg.Engine = eng
		r := newRig(t, cfg)
		const n = 64
		a, b, out := r.allocBuf(4*n), r.allocBuf(4*n), r.allocBuf(4*n)
		progVA, progSize := r.loadProgram(vecAddProgram())
		stage := func(size uint32) uint64 {
			return r.stage(&gpu.JobDescriptor{
				JobType:    gpu.JobTypeCompute,
				GlobalSize: [3]uint32{n, 1, 1},
				LocalSize:  [3]uint32{16, 1, 1},
				ShaderVA:   progVA,
				ShaderSize: size,
			}, []uint64{a, b, out})
		}
		for _, size := range []uint32{0xFFFF_FFF0, gpu.MaxShaderBytes + 1} {
			descVA := stage(size)
			var allocs allocMeter
			allocs.since()
			raw := r.kick(descVA)
			if got := allocs.since(); got >= 1<<20 {
				t.Errorf("%v: a %#x-byte shader made the device allocate %d bytes", eng, size, got)
			}
			// 0xFF: a job error that is not an MMU fault.
			if raw&gpu.IRQJobFault == 0 || r.rd(gpu.RegJS0Status) != gpu.JSFaulted || r.rd(gpu.RegAS0FaultStat) != 0xFF {
				t.Errorf("%v, shader of %#x bytes: rawstat %#x, status %d, fault status %#x; want a job fault",
					eng, size, raw, r.rd(gpu.RegJS0Status), r.rd(gpu.RegAS0FaultStat))
			}
		}
		if raw := r.kick(stage(progSize)); raw != gpu.IRQJobDone {
			t.Fatalf("%v: the job after the refused ones: rawstat %#x, want job done", eng, raw)
		}
	}
}

// allocMeter reports the bytes the process allocated between two readings.
type allocMeter struct{ last uint64 }

func (m *allocMeter) since() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d := ms.TotalAlloc - m.last
	m.last = ms.TotalAlloc
	return d
}

// TestRecycledSlabLeaksNoRegisters extends the workgroup reset across
// devices: a closed device's warp slabs go to the next device's cores. Each
// session runs leakProgram, which stores every register it has not written
// and then fills them all, and closes; the next session, on a new device
// whose cores took those slabs, must read zero — at one and four host
// threads, on both engines. GOMAXPROCS is 1 so the pool hands a device the
// slabs the previous one returned.
func TestRecycledSlabLeaksNoRegisters(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const threads, words = 24, gpu.NumGRF + gpu.NumTemp - 1
	for _, eng := range bothEngines {
		for _, hostThreads := range []int{1, 4} {
			for session := 0; session < 3; session++ {
				// The subtest's cleanup closes the device, before the next
				// session makes its own.
				t.Run(fmt.Sprintf("%v/threads=%d/session=%d", eng, hostThreads, session), func(t *testing.T) {
					cfg := gpu.DefaultConfig()
					cfg.HostThreads, cfg.Engine = hostThreads, eng
					r := newRig(t, cfg)
					out := r.allocBuf(8 * words * threads)
					progVA, progSize := r.loadProgram(leakProgram(gpu.NumGRF))
					raw := r.submit(&gpu.JobDescriptor{
						JobType:    gpu.JobTypeCompute,
						GlobalSize: [3]uint32{threads, 1, 1},
						LocalSize:  [3]uint32{6, 1, 1}, // four workgroups of a full and a partial warp
						ShaderVA:   progVA,
						ShaderSize: progSize,
					}, []uint64{out})
					if raw&gpu.IRQJobDone == 0 {
						t.Fatalf("rawstat = %#x", raw)
					}
					buf := make([]byte, 8*words*threads)
					if err := r.bus.ReadBytes(out, buf); err != nil {
						t.Fatal(err)
					}
					if i := len(buf) - len(bytes.TrimLeft(buf, "\x00")); i < len(buf) {
						t.Errorf("thread %d read a non-zero byte from unwritten register slot %d", i/(8*words), i%(8*words)/8)
					}
				})
			}
		}
	}
}
