package gpu_test

import (
	"encoding/binary"
	"testing"
	"time"

	"mobilesim/internal/gpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
)

// rig is a GPU test bench: memory, an identity-mapped GPU address space,
// and a started device. Tests drive the register interface directly,
// standing in for the kernel driver.
type rig struct {
	t     testing.TB
	bus   *mem.Bus
	alloc *mem.PageAllocator
	as    *mmu.AddressSpace
	intc  *irq.Controller
	dev   *gpu.Device
}

// newRig builds a started device on its own memory and address space. Its
// guest RAM is recycled: a rig takes a parked region (mem.AcquireRAM),
// which Recycle zeroed, and parks it again once its device has closed, so
// a rig does not clear 64 MiB of fresh memory (TestRigRAMIsZeroed).
func newRig(t testing.TB, cfg gpu.Config) *rig {
	t.Helper()
	ram := mem.AcquireRAM(0, 64<<20)
	t.Cleanup(ram.Recycle) // after dev.Close: cleanups run last-in first-out
	bus := mem.NewBus(ram)
	alloc, err := mem.NewPageAllocator(1<<20, 40<<20)
	if err != nil {
		t.Fatal(err)
	}
	as, err := mmu.NewAddressSpace(bus, alloc)
	if err != nil {
		t.Fatal(err)
	}
	intc := irq.New()
	intc.Enable(irq.LineGPU)
	dev := gpu.NewDevice(cfg, bus, intc, irq.LineGPU)
	dev.Start()
	t.Cleanup(dev.Close)

	r := &rig{t: t, bus: bus, alloc: alloc, as: as, intc: intc, dev: dev}
	// Program the address space and unmask interrupts, as the driver would.
	r.wr(gpu.RegAS0Transtab, as.Root())
	r.wr(gpu.RegAS0Command, 1)
	r.wr(gpu.RegIRQMask, gpu.IRQJobDone|gpu.IRQJobFault|gpu.IRQMMUFault)
	return r
}

func (r *rig) wr(off, val uint64) {
	r.t.Helper()
	if err := r.dev.WriteReg(off, 8, val); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) rd(off uint64) uint64 {
	r.t.Helper()
	v, err := r.dev.ReadReg(off, 8)
	if err != nil {
		r.t.Fatal(err)
	}
	return v
}

// allocBuf allocates n bytes of guest memory, identity-mapped RW in the
// GPU address space, and returns its VA.
func (r *rig) allocBuf(n int) uint64 {
	r.t.Helper()
	pages := (n + mem.PageSize - 1) / mem.PageSize
	pa, err := r.alloc.AllocPages(pages)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.as.MapRange(pa, pa, uint64(pages)*mem.PageSize, mmu.PermR|mmu.PermW); err != nil {
		r.t.Fatal(err)
	}
	return pa
}

// loadProgram serialises prog into guest memory and returns (va, size).
func (r *rig) loadProgram(prog *gpu.Program) (uint64, uint32) {
	r.t.Helper()
	raw, err := gpu.Serialize(prog)
	if err != nil {
		r.t.Fatal(err)
	}
	va := r.allocBuf(len(raw))
	if err := r.bus.WriteBytes(va, raw); err != nil {
		r.t.Fatal(err)
	}
	return va, uint32(len(raw))
}

// submit writes a descriptor + args, rings the doorbell, and waits for the
// job-done (or fault) interrupt, acknowledging it. Returns the rawstat.
func (r *rig) submit(desc *gpu.JobDescriptor, args []uint64) uint32 {
	r.t.Helper()
	return r.kick(r.stage(desc, args))
}

// stage writes a descriptor + args into guest memory and returns the
// descriptor's VA, which kick can submit any number of times.
func (r *rig) stage(desc *gpu.JobDescriptor, args []uint64) uint64 {
	r.t.Helper()
	if len(args) > 0 {
		argVA := r.allocBuf(8 * len(args))
		buf := make([]byte, 8*len(args))
		for i, a := range args {
			binary.LittleEndian.PutUint64(buf[8*i:], a)
		}
		if err := r.bus.WriteBytes(argVA, buf); err != nil {
			r.t.Fatal(err)
		}
		desc.ArgsVA = argVA
	}
	descVA := r.allocBuf(gpu.JobDescSize)
	if err := r.bus.WriteBytes(descVA, gpu.EncodeDescriptor(desc)); err != nil {
		r.t.Fatal(err)
	}
	return descVA
}

// kick rings the doorbell for a staged chain and waits for its interrupt.
func (r *rig) kick(descVA uint64) uint32 {
	r.t.Helper()
	r.wr(gpu.RegJS0Head, descVA)
	r.wr(gpu.RegJS0Command, 1)
	return r.waitIRQ()
}

func (r *rig) waitIRQ() uint32 {
	r.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-r.intc.WaitChan():
		case <-time.After(10 * time.Millisecond):
		}
		raw := uint32(r.rd(gpu.RegIRQRawstat))
		if raw != 0 {
			r.wr(gpu.RegIRQClear, uint64(raw))
			if _, ok := r.intc.Claim(); !ok {
				// Raced with deassert; fine.
				_ = ok
			}
			return raw
		}
		if time.Now().After(deadline) {
			r.t.Fatal("timed out waiting for GPU interrupt")
		}
	}
}

// clause builds a clause from instructions.
func clause(ins ...gpu.Instr) gpu.Clause { return gpu.Clause{Instrs: ins} }

// vecAddProgram computes out[i] = a[i] + b[i] over int32 elements.
// Uniforms: c0 = a, c1 = b, c2 = out.
func vecAddProgram() *gpu.Program {
	return &gpu.Program{
		RegCount: 4,
		Uniforms: 3,
		Clauses: []gpu.Clause{clause(
			gpu.Instr{Op: gpu.OpMUL64, Dst: gpu.T(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 4},
			gpu.Instr{Op: gpu.OpADD64, Dst: gpu.T(1), A: gpu.C(0), B: gpu.T(0)},
			gpu.Instr{Op: gpu.OpLDG, Dst: gpu.R(0), A: gpu.T(1)},
			gpu.Instr{Op: gpu.OpADD64, Dst: gpu.T(2), A: gpu.C(1), B: gpu.T(0)},
			gpu.Instr{Op: gpu.OpLDG, Dst: gpu.R(1), A: gpu.T(2)},
			gpu.Instr{Op: gpu.OpIADD, Dst: gpu.R(2), A: gpu.R(0), B: gpu.R(1)},
			gpu.Instr{Op: gpu.OpADD64, Dst: gpu.T(3), A: gpu.C(2), B: gpu.T(0)},
			gpu.Instr{Op: gpu.OpSTG, A: gpu.T(3), B: gpu.R(2)},
			gpu.Instr{Op: gpu.OpRET},
		)},
	}
}

func (r *rig) writeInts(va uint64, vals []int32) {
	r.t.Helper()
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	if err := r.bus.WriteBytes(va, buf); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) readInts(va uint64, n int) []int32 {
	r.t.Helper()
	buf := make([]byte, 4*n)
	if err := r.bus.ReadBytes(va, buf); err != nil {
		r.t.Fatal(err)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

func TestVectorAdd(t *testing.T) {
	r := newRig(t, gpu.DefaultConfig())
	const n = 1024
	a, b, out := r.allocBuf(4*n), r.allocBuf(4*n), r.allocBuf(4*n)
	av, bv := make([]int32, n), make([]int32, n)
	for i := range av {
		av[i] = int32(i)
		bv[i] = int32(1000 + i*3)
	}
	r.writeInts(a, av)
	r.writeInts(b, bv)

	progVA, progSize := r.loadProgram(vecAddProgram())
	raw := r.submit(&gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: [3]uint32{n, 1, 1},
		LocalSize:  [3]uint32{64, 1, 1},
		ShaderVA:   progVA,
		ShaderSize: progSize,
	}, []uint64{a, b, out})
	if raw&gpu.IRQJobDone == 0 {
		t.Fatalf("rawstat = %#x, want job-done", raw)
	}
	got := r.readInts(out, n)
	for i := range got {
		want := av[i] + bv[i]
		if got[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want)
		}
	}
	gs, sys := r.dev.Stats()
	if gs.Threads != n {
		t.Errorf("threads = %d, want %d", gs.Threads, n)
	}
	if gs.Workgroups != n/64 {
		t.Errorf("workgroups = %d, want %d", gs.Workgroups, n/64)
	}
	if sys.ComputeJobs != 1 {
		t.Errorf("jobs = %d, want 1", sys.ComputeJobs)
	}
	if gs.MainMemAcc != 3*n {
		t.Errorf("main memory accesses = %d, want %d", gs.MainMemAcc, 3*n)
	}
	if gs.TempAcc == 0 || gs.ConstRead == 0 || gs.GRFWrite == 0 {
		t.Errorf("data breakdown not populated: %+v", gs)
	}
}

// divergeProgram writes 1 for even gid, 2 for odd gid:
//
//	c0: t0 = gid & 1; brc t0 -> clause 2, rejoin clause 3
//	c1: r0 = 1; br 3
//	c2: r0 = 2 (fallthrough to 3)
//	c3: out[gid] = r0; ret
func divergeProgram() *gpu.Program {
	return &gpu.Program{
		RegCount: 2,
		Uniforms: 1,
		Clauses: []gpu.Clause{
			clause(
				gpu.Instr{Op: gpu.OpAND, Dst: gpu.T(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 1},
				gpu.Instr{Op: gpu.OpBRC, A: gpu.T(0), Imm: gpu.BranchImm(2, 3)},
			),
			clause(
				gpu.Instr{Op: gpu.OpMOV, Dst: gpu.R(0), A: gpu.Imm, Imm: 1},
				gpu.Instr{Op: gpu.OpBR, Imm: gpu.BranchImm(3, 0)},
			),
			clause(
				gpu.Instr{Op: gpu.OpMOV, Dst: gpu.R(0), A: gpu.Imm, Imm: 2},
			),
			clause(
				gpu.Instr{Op: gpu.OpMUL64, Dst: gpu.T(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 4},
				gpu.Instr{Op: gpu.OpADD64, Dst: gpu.T(1), A: gpu.C(0), B: gpu.T(0)},
				gpu.Instr{Op: gpu.OpSTG, A: gpu.T(1), B: gpu.R(0)},
				gpu.Instr{Op: gpu.OpRET},
			),
		},
	}
}

func TestDivergenceReconvergence(t *testing.T) {
	r := newRig(t, gpu.DefaultConfig())
	r.dev.SetCollectCFG(true)
	const n = 64
	out := r.allocBuf(4 * n)
	progVA, progSize := r.loadProgram(divergeProgram())
	raw := r.submit(&gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: [3]uint32{n, 1, 1},
		LocalSize:  [3]uint32{16, 1, 1},
		ShaderVA:   progVA,
		ShaderSize: progSize,
	}, []uint64{out})
	if raw&gpu.IRQJobDone == 0 {
		t.Fatalf("rawstat = %#x", raw)
	}
	got := r.readInts(out, n)
	for i := range got {
		want := int32(1)
		if i%2 == 1 {
			want = 2
		}
		if got[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want)
		}
	}
	gs, _ := r.dev.Stats()
	if gs.Branches == 0 || gs.DivergentBranches == 0 {
		t.Errorf("divergence not observed: branches=%d divergent=%d", gs.Branches, gs.DivergentBranches)
	}
	// Every warp mixes even and odd lanes, so all branches diverge.
	if gs.DivergentBranches != gs.Branches {
		t.Errorf("all warps should diverge: %d/%d", gs.DivergentBranches, gs.Branches)
	}
	cfgGraph := r.dev.CFGGraph()
	if len(cfgGraph.Blocks) < 4 {
		t.Errorf("CFG blocks = %d, want >= 4", len(cfgGraph.Blocks))
	}
	var divBlocks int
	for _, b := range cfgGraph.Blocks {
		if b.DivergencePct() > 0 {
			divBlocks++
			if len(b.Out) != 2 {
				t.Errorf("diverging block should have 2 successors, has %d", len(b.Out))
			}
		}
	}
	if divBlocks != 1 {
		t.Errorf("diverging blocks = %d, want 1", divBlocks)
	}
}

// loopProgram computes out[gid] = sum(0..gid) with a data-dependent loop:
//
//	c0: r0 = 0 (acc); r1 = 0 (i)
//	c1: t0 = (gid < i); brc t0 -> clause 3 (exit), rejoin 3
//	      (lanes still looping fall through to the body)
//	c2: acc += i; i += 1; br 1
//	c3: store; ret
func loopProgram() *gpu.Program {
	return &gpu.Program{
		RegCount: 2,
		Uniforms: 1,
		Clauses: []gpu.Clause{
			clause(
				gpu.Instr{Op: gpu.OpMOV, Dst: gpu.R(0), A: gpu.S(gpu.SpecZero)},
				gpu.Instr{Op: gpu.OpMOV, Dst: gpu.R(1), A: gpu.S(gpu.SpecZero)},
			),
			clause(
				gpu.Instr{Op: gpu.OpICMPLT, Dst: gpu.T(0), A: gpu.S(gpu.SpecGIDX), B: gpu.R(1)},
				gpu.Instr{Op: gpu.OpBRC, A: gpu.T(0), Imm: gpu.BranchImm(3, 3)},
			),
			clause(
				gpu.Instr{Op: gpu.OpIADD, Dst: gpu.R(0), A: gpu.R(0), B: gpu.R(1)},
				gpu.Instr{Op: gpu.OpIADD, Dst: gpu.R(1), A: gpu.R(1), B: gpu.Imm, Imm: 1},
				gpu.Instr{Op: gpu.OpBR, Imm: gpu.BranchImm(1, 0)},
			),
			clause(
				gpu.Instr{Op: gpu.OpMUL64, Dst: gpu.T(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 4},
				gpu.Instr{Op: gpu.OpADD64, Dst: gpu.T(1), A: gpu.C(0), B: gpu.T(0)},
				gpu.Instr{Op: gpu.OpSTG, A: gpu.T(1), B: gpu.R(0)},
				gpu.Instr{Op: gpu.OpRET},
			),
		},
	}
}

func TestDataDependentLoop(t *testing.T) {
	r := newRig(t, gpu.DefaultConfig())
	const n = 32
	out := r.allocBuf(4 * n)
	progVA, progSize := r.loadProgram(loopProgram())
	raw := r.submit(&gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: [3]uint32{n, 1, 1},
		LocalSize:  [3]uint32{8, 1, 1},
		ShaderVA:   progVA,
		ShaderSize: progSize,
	}, []uint64{out})
	if raw&gpu.IRQJobDone == 0 {
		t.Fatalf("rawstat = %#x", raw)
	}
	got := r.readInts(out, n)
	for i := range got {
		want := int32(i * (i + 1) / 2)
		if got[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want)
		}
	}
}

// reverseProgram reverses each workgroup's elements through local memory
// with a barrier:
//
//	c0: stl [lid*4] = gid; barrier
//	c1: t0 = lsz-1-lid; r0 = ldl [t0*4]; out[gid] = r0; ret
func reverseProgram() *gpu.Program {
	return &gpu.Program{
		RegCount: 2,
		Uniforms: 1,
		Clauses: []gpu.Clause{
			clause(
				gpu.Instr{Op: gpu.OpIMUL, Dst: gpu.T(0), A: gpu.S(gpu.SpecLIDX), B: gpu.Imm, Imm: 4},
				gpu.Instr{Op: gpu.OpSTL, A: gpu.T(0), B: gpu.S(gpu.SpecGIDX)},
				gpu.Instr{Op: gpu.OpBARRIER},
			),
			clause(
				gpu.Instr{Op: gpu.OpISUB, Dst: gpu.T(0), A: gpu.S(gpu.SpecLSZX), B: gpu.S(gpu.SpecLIDX)},
				gpu.Instr{Op: gpu.OpISUB, Dst: gpu.T(0), A: gpu.T(0), B: gpu.Imm, Imm: 1},
				gpu.Instr{Op: gpu.OpIMUL, Dst: gpu.T(0), A: gpu.T(0), B: gpu.Imm, Imm: 4},
				gpu.Instr{Op: gpu.OpLDL, Dst: gpu.R(0), A: gpu.T(0)},
				gpu.Instr{Op: gpu.OpMUL64, Dst: gpu.T(1), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 4},
				gpu.Instr{Op: gpu.OpADD64, Dst: gpu.T(2), A: gpu.C(0), B: gpu.T(1)},
				gpu.Instr{Op: gpu.OpSTG, A: gpu.T(2), B: gpu.R(0)},
				gpu.Instr{Op: gpu.OpRET},
			),
		},
	}
}

func TestBarrierLocalMemoryGuest(t *testing.T) {
	cfg := gpu.DefaultConfig()
	r := newRig(t, cfg)
	const n, wg = 256, 32
	out := r.allocBuf(4 * n)
	progVA, progSize := r.loadProgram(reverseProgram())
	raw := r.submit(&gpu.JobDescriptor{
		JobType:       gpu.JobTypeCompute,
		GlobalSize:    [3]uint32{n, 1, 1},
		LocalSize:     [3]uint32{wg, 1, 1},
		ShaderVA:      progVA,
		ShaderSize:    progSize,
		LocalMemBytes: wg * 4,
		LocalMemVA:    r.allocBuf(cfg.ShaderCores * wg * 4),
	}, []uint64{out})
	if raw&gpu.IRQJobDone == 0 {
		t.Fatalf("rawstat = %#x", raw)
	}
	got := r.readInts(out, n)
	for i := range got {
		group := i / wg
		want := int32(group*wg + (wg - 1 - i%wg))
		if got[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want)
		}
	}
	gs, _ := r.dev.Stats()
	if gs.LocalAcc != 2*n {
		t.Errorf("local accesses = %d, want %d", gs.LocalAcc, 2*n)
	}
}

// TestLocalBytesWithoutLocalVAFault: a job that declares local bytes but no
// guest local allocation to hold them is a job fault on both engines, as a
// local access in a job that declares none is; the device runs the next
// job.
func TestLocalBytesWithoutLocalVAFault(t *testing.T) {
	for _, eng := range bothEngines {
		cfg := gpu.DefaultConfig()
		cfg.Engine = eng
		r := newRig(t, cfg)
		const n, wg = 64, 32
		out := r.allocBuf(4 * n)
		progVA, progSize := r.loadProgram(reverseProgram())
		desc := &gpu.JobDescriptor{
			JobType:       gpu.JobTypeCompute,
			GlobalSize:    [3]uint32{n, 1, 1},
			LocalSize:     [3]uint32{wg, 1, 1},
			ShaderVA:      progVA,
			ShaderSize:    progSize,
			LocalMemBytes: wg * 4,
		}
		// 0xFF: a job error that is not an MMU fault.
		if raw := r.submit(desc, []uint64{out}); raw&gpu.IRQJobFault == 0 || r.rd(gpu.RegAS0FaultStat) != 0xFF {
			t.Errorf("%v: rawstat %#x, fault status %#x; want a job fault", eng, raw, r.rd(gpu.RegAS0FaultStat))
		}
		desc.LocalMemVA = r.allocBuf(cfg.ShaderCores * wg * 4)
		if raw := r.submit(desc, []uint64{out}); raw != gpu.IRQJobDone {
			t.Errorf("%v: the same job with a local allocation: rawstat %#x, want job done", eng, raw)
		}
	}
}

func TestJobChain(t *testing.T) {
	r := newRig(t, gpu.DefaultConfig())
	const n = 128
	a, b, out1, out2 := r.allocBuf(4*n), r.allocBuf(4*n), r.allocBuf(4*n), r.allocBuf(4*n)
	av := make([]int32, n)
	bv := make([]int32, n)
	for i := range av {
		av[i], bv[i] = int32(i), int32(i*2)
	}
	r.writeInts(a, av)
	r.writeInts(b, bv)
	progVA, progSize := r.loadProgram(vecAddProgram())

	// Job 2: out2 = a + out1. Written first so job 1 can chain to it.
	args2 := r.allocBuf(24)
	argBuf := make([]byte, 24)
	binary.LittleEndian.PutUint64(argBuf[0:], a)
	binary.LittleEndian.PutUint64(argBuf[8:], out1)
	binary.LittleEndian.PutUint64(argBuf[16:], out2)
	if err := r.bus.WriteBytes(args2, argBuf); err != nil {
		t.Fatal(err)
	}
	desc2VA := r.allocBuf(gpu.JobDescSize)
	if err := r.bus.WriteBytes(desc2VA, gpu.EncodeDescriptor(&gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: [3]uint32{n, 1, 1},
		LocalSize:  [3]uint32{32, 1, 1},
		ShaderVA:   progVA,
		ShaderSize: progSize,
		ArgsVA:     args2,
	})); err != nil {
		t.Fatal(err)
	}

	// Job 1: out1 = a + b, chained to job 2.
	raw := r.submit(&gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: [3]uint32{n, 1, 1},
		LocalSize:  [3]uint32{32, 1, 1},
		ShaderVA:   progVA,
		ShaderSize: progSize,
		NextJobVA:  desc2VA,
	}, []uint64{a, b, out1})
	if raw&gpu.IRQJobDone == 0 {
		t.Fatalf("rawstat = %#x", raw)
	}
	got := r.readInts(out2, n)
	for i := range got {
		want := 2*av[i] + bv[i]
		if got[i] != want {
			t.Fatalf("out2[%d] = %d, want %d", i, got[i], want)
		}
	}
	_, sys := r.dev.Stats()
	if sys.ComputeJobs != 2 {
		t.Errorf("jobs = %d, want 2 (chain)", sys.ComputeJobs)
	}
	if sys.IRQsAsserted != 1 {
		t.Errorf("IRQs = %d, want 1 (one per chain)", sys.IRQsAsserted)
	}
}

func TestMMUFaultReported(t *testing.T) {
	r := newRig(t, gpu.DefaultConfig())
	progVA, progSize := r.loadProgram(vecAddProgram())
	// Pass unmapped buffer addresses.
	raw := r.submit(&gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: [3]uint32{16, 1, 1},
		LocalSize:  [3]uint32{16, 1, 1},
		ShaderVA:   progVA,
		ShaderSize: progSize,
	}, []uint64{0xdead_0000, 0xdead_4000, 0xdead_8000})
	if raw&gpu.IRQJobFault == 0 {
		t.Fatalf("rawstat = %#x, want job fault", raw)
	}
	if raw&gpu.IRQMMUFault == 0 {
		t.Errorf("rawstat = %#x, want MMU fault bit", raw)
	}
	if st := r.rd(gpu.RegJS0Status); st != gpu.JSFaulted {
		t.Errorf("job status = %d, want faulted", st)
	}
	if fa := r.rd(gpu.RegAS0FaultAddr); fa < 0xdead_0000 || fa > 0xdead_9000 {
		t.Errorf("fault address = %#x", fa)
	}
}

func TestDecodeCacheDecodesOnce(t *testing.T) {
	defer gpu.UsePrivateProgramCache()()
	r := newRig(t, gpu.DefaultConfig())
	const n = 64
	a, b, out := r.allocBuf(4*n), r.allocBuf(4*n), r.allocBuf(4*n)
	progVA, progSize := r.loadProgram(vecAddProgram())
	for i := 0; i < 5; i++ {
		raw := r.submit(&gpu.JobDescriptor{
			JobType:    gpu.JobTypeCompute,
			GlobalSize: [3]uint32{n, 1, 1},
			LocalSize:  [3]uint32{16, 1, 1},
			ShaderVA:   progVA,
			ShaderSize: progSize,
		}, []uint64{a, b, out})
		if raw&gpu.IRQJobDone == 0 {
			t.Fatalf("submit %d: rawstat %#x", i, raw)
		}
	}
	if st := gpu.ProgramCacheStats(); st.Misses != 1 || st.Hits != 4 {
		t.Errorf("decodes = %d, hits = %d, want 1 and 4 (decode-once)", st.Misses, st.Hits)
	}
}

// TestDecodeCacheHashCollision: the decode cache is shared by every device
// in the process, so a 64-bit hash alone must not decide which code a job runs.
// With another binary's program planted under the vector-add binary's key,
// a vector-add job must still add — decoded privately, never cached.
func TestDecodeCacheHashCollision(t *testing.T) {
	sub := vecAddProgram()
	sub.Clauses[0].Instrs[5].Op = gpu.OpISUB
	squatter, err := gpu.Serialize(sub)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := gpu.Serialize(vecAddProgram())
	if err != nil {
		t.Fatal(err)
	}
	defer gpu.UsePrivateProgramCache()()
	if err := gpu.PlantCollision(victim, squatter); err != nil {
		t.Fatal(err)
	}
	r := newRig(t, gpu.DefaultConfig())
	const n = 64
	a, b, out := r.allocBuf(4*n), r.allocBuf(4*n), r.allocBuf(4*n)
	av, bv := make([]int32, n), make([]int32, n)
	for i := range av {
		av[i], bv[i] = int32(10*i), int32(i+1)
	}
	r.writeInts(a, av)
	r.writeInts(b, bv)
	progVA, progSize := r.loadProgram(vecAddProgram())
	for run := 0; run < 2; run++ {
		raw := r.submit(&gpu.JobDescriptor{
			JobType:    gpu.JobTypeCompute,
			GlobalSize: [3]uint32{n, 1, 1},
			LocalSize:  [3]uint32{16, 1, 1},
			ShaderVA:   progVA,
			ShaderSize: progSize,
		}, []uint64{a, b, out})
		if raw&gpu.IRQJobDone == 0 {
			t.Fatalf("run %d: rawstat %#x", run, raw)
		}
		for i, got := range r.readInts(out, n) {
			if want := av[i] + bv[i]; got != want {
				t.Fatalf("run %d: out[%d] = %d, want %d: the job ran the colliding entry's code", run, i, got, want)
			}
		}
	}
	if st := gpu.ProgramCacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("decodes = %d, hits = %d, want 2 and 0 (a colliding binary is decoded per job, not cached)", st.Misses, st.Hits)
	}
}

func TestPagesAccessedTracked(t *testing.T) {
	r := newRig(t, gpu.DefaultConfig())
	const n = 4096 // 16 KiB per buffer = 4 pages each
	a, b, out := r.allocBuf(4*n), r.allocBuf(4*n), r.allocBuf(4*n)
	progVA, progSize := r.loadProgram(vecAddProgram())
	raw := r.submit(&gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: [3]uint32{n, 1, 1},
		LocalSize:  [3]uint32{64, 1, 1},
		ShaderVA:   progVA,
		ShaderSize: progSize,
	}, []uint64{a, b, out})
	if raw&gpu.IRQJobDone == 0 {
		t.Fatalf("rawstat = %#x", raw)
	}
	_, sys := r.dev.Stats()
	// Pinned exactly: 3 buffers x 4 pages + shader + args + descriptor.
	// The Load/Store fast path records touched pages only at walk time, so
	// this count must stay identical to the per-translation accounting the
	// Table III statistic originally used (every page's first access is a
	// TLB miss).
	if sys.PagesAccessed != 15 {
		t.Errorf("pages accessed = %d, want exactly 15", sys.PagesAccessed)
	}
}

func TestGPUIDAndShaderPresent(t *testing.T) {
	cfg := gpu.DefaultConfig()
	cfg.ShaderCores = 8
	r := newRig(t, cfg)
	if id := r.rd(gpu.RegGPUID); id != gpu.GPUIDValue {
		t.Errorf("GPU_ID = %#x", id)
	}
	if sp := r.rd(gpu.RegShaderPres); sp != 0xFF {
		t.Errorf("SHADER_PRESENT = %#x, want 0xFF", sp)
	}
}

func TestCtrlRegCountersTrackAccesses(t *testing.T) {
	r := newRig(t, gpu.DefaultConfig())
	_, before := r.dev.Stats()
	for i := 0; i < 10; i++ {
		r.rd(gpu.RegGPUID)
	}
	r.wr(gpu.RegIRQMask, 7)
	_, after := r.dev.Stats()
	if after.CtrlRegReads-before.CtrlRegReads != 10 {
		t.Errorf("reads delta = %d, want 10", after.CtrlRegReads-before.CtrlRegReads)
	}
	if after.CtrlRegWrites-before.CtrlRegWrites != 1 {
		t.Errorf("writes delta = %d, want 1", after.CtrlRegWrites-before.CtrlRegWrites)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	p := vecAddProgram()
	p.ROM = []uint64{0x1234, 0xdeadbeef}
	raw, err := gpu.Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := gpu.ParseBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Clauses) != len(p.Clauses) || q.RegCount != p.RegCount ||
		q.Uniforms != p.Uniforms || len(q.ROM) != 2 {
		t.Fatalf("round trip mismatch: %+v", q)
	}
	for i := range p.Clauses[0].Instrs {
		if q.Clauses[0].Instrs[i] != p.Clauses[0].Instrs[i] {
			t.Errorf("instr %d: %v != %v", i, q.Clauses[0].Instrs[i], p.Clauses[0].Instrs[i])
		}
	}
}

func TestBinaryValidation(t *testing.T) {
	// Bad magic.
	if _, err := gpu.ParseBinary(make([]byte, 64)); err == nil {
		t.Error("zero binary accepted")
	}
	// Branch out of range.
	p := &gpu.Program{
		Clauses: []gpu.Clause{clause(gpu.Instr{Op: gpu.OpBR, Imm: gpu.BranchImm(7, 0)})},
	}
	raw, err := gpu.Serialize(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpu.ParseBinary(raw); err == nil {
		t.Error("out-of-range branch target accepted")
	}
	// A clause temporary beyond t3 would index past the temporaries' rows
	// of the register file.
	p = &gpu.Program{
		Clauses: []gpu.Clause{clause(gpu.Instr{Op: gpu.OpMOV, Dst: gpu.R(0), A: gpu.OperTemp<<6 | gpu.NumTemp})},
	}
	if raw, err = gpu.Serialize(p); err != nil {
		t.Fatal(err)
	}
	if _, err := gpu.ParseBinary(raw); err == nil {
		t.Error("out-of-range clause temporary accepted")
	}
	// Header words that size later allocations: a uniform count sizes the
	// argument read (0xFFFFFFFF would be a 32 GiB make), a register count
	// beyond the file is a binary no compiler emits. Hand-made headers over
	// a valid one-clause body.
	if raw, err = gpu.Serialize(vecAddProgram()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		off    int // header word: 8 = regCount, 12 = uniforms
		v      uint32
		accept bool
	}{
		{"regCount = NumGRF", 8, gpu.NumGRF, true},
		{"regCount = NumGRF+1", 8, gpu.NumGRF + 1, false},
		{"uniforms = NumUniforms", 12, gpu.NumUniforms, true},
		{"uniforms = NumUniforms+1", 12, gpu.NumUniforms + 1, false},
		{"uniforms = 0xFFFFFFFF", 12, 0xFFFFFFFF, false},
		{"regCount = 0xFFFFFFFF", 8, 0xFFFFFFFF, false},
	} {
		hdr := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(hdr[c.off:], c.v)
		if _, err := gpu.ParseBinary(hdr); (err == nil) != c.accept {
			t.Errorf("header with %s: err = %v, want accepted = %v", c.what, err, c.accept)
		}
	}
	// Oversized clause rejected at serialise time.
	big := make([]gpu.Instr, 17)
	for i := range big {
		big[i] = gpu.Instr{Op: gpu.OpNOP}
	}
	if _, err := gpu.Serialize(&gpu.Program{Clauses: []gpu.Clause{{Instrs: big}}}); err == nil {
		t.Error("17-slot clause accepted")
	}
}

func TestInstrPackUnpackRoundTrip(t *testing.T) {
	ins := []gpu.Instr{
		{Op: gpu.OpFMA, Dst: gpu.R(5), A: gpu.T(1), B: gpu.C(3), Imm: 0xdeadbeef},
		{Op: gpu.OpLDG, Dst: gpu.R(0), A: gpu.R(1), Imm: 0xFFFFFFFC}, // -4 offset
		{Op: gpu.OpBRC, A: gpu.T(0), Imm: gpu.BranchImm(12, 34)},
	}
	for _, in := range ins {
		if got := gpu.Unpack(in.Pack()); got != in {
			t.Errorf("round trip: %v != %v", got, in)
		}
	}
	if ins[2].BranchTarget() != 12 || ins[2].Reconverge() != 34 {
		t.Error("branch imm encode/decode wrong")
	}
}
