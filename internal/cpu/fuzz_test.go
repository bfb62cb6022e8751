package cpu_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mobilesim/internal/asm"
	"mobilesim/internal/cpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
)

// Differential fuzzing of the two CPU execution engines: any program must
// leave identical architectural state — registers, flags, PC, retired
// instructions, faults, interrupts, system registers and the whole memory
// image — under the interpreter and the DBT. This is the CPU-side
// analogue of the paper's instruction-fuzzing validation. FuzzCPUEngines
// is the native fuzz target; TestFuzzEnginesAgree and TestFuzzWithBranches
// drive the same check from fixed seeds on every plain `go test`.

// The fuzz machine: 64 KiB of RAM (small enough to compare in full after
// every run) holding the program, a vector table and scratch data, plus a
// doorbell device whose first write raises an interrupt.
const (
	fzBase    = 0x8000_0000
	fzRAMSize = 64 << 10
	fzCodeMax = 0x4000           // the program occupies [fzBase, fzBase+fzCodeMax)
	fzVectors = fzBase + 0xC000  // VBAR
	fzData    = fzBase + 0x8000  // x10: two pages of scratch data
	fzBell    = 0x1000_0000      // x11: doorbell register window
	fzCross   = fzData + 0x0FFC  // x13: an 8-byte access here crosses a page
	fzBudget  = 20000            // guest instructions per run
	fzBellLen = mem.PageSize / 4 // the doorbell window is smaller than a page

	// fzMaskedLine is never enabled: asserting it wakes a parked WFI
	// without delivering an interrupt.
	fzMaskedLine irq.Line = 1
)

// fzVectorCode is the machine's exception handling. A synchronous
// exception skips the instruction it returns to (so an aborting load or an
// undefined word does not loop) using x28; an interrupt just returns.
var fzVectorCode = func() []byte {
	p, err := asm.Assemble(`
sync:
    mrs  x28, elr
    addi x28, x28, #4
    msr  elr, x28
    eret
    .zero 112
irq:
    eret
`, fzVectors)
	if err != nil {
		panic(err)
	}
	if p.MustEntry("irq") != fzVectors+cpu.VecIRQ {
		panic("fuzz vector table layout")
	}
	return p.Code
}()

// doorbell asserts the GPU line on any write and never lowers it, so a run
// takes at most one interrupt.
type doorbell struct {
	intc  *irq.Controller
	rings int
}

func (d *doorbell) ReadReg(uint64, int) (uint64, error) { return 0, nil }
func (d *doorbell) WriteReg(uint64, int, uint64) error {
	d.rings++
	d.intc.Assert(irq.LineGPU)
	return nil
}

// fzSanitize rewrites, to NOP, the few instructions whose effect depends
// on *when* an interrupt is recognised — which legitimately differs: the
// interpreter polls before every instruction, the DBT before every block.
// WFI would park the run forever; ERET, and MRS/MSR of the exception
// state, observe the interrupted PC; MSR of VBAR/IE moves or masks the
// interrupt. MSR TTBR0/SCTLR survives only with the zero register as
// source: it flushes the translation caches but keeps translation off.
// The handlers in the vector page are not subject to this.
func fzSanitize(code []byte) []byte {
	out := append([]byte(nil), code...)
	for off := 0; off+4 <= len(out); off += 4 {
		in := cpu.Decode(binary.LittleEndian.Uint32(out[off:]))
		sr := cpu.SysReg(in.Imm) % cpu.NumSysRegs
		keep := true
		switch in.Op {
		case cpu.OpWFI, cpu.OpERET:
			keep = false
		case cpu.OpMRS:
			keep = sr != cpu.SysESR && sr != cpu.SysELR && sr != cpu.SysSPSR && sr != cpu.SysIE
		case cpu.OpMSR:
			keep = sr == cpu.SysSCRATCH0 || sr == cpu.SysSCRATCH1 ||
				(sr == cpu.SysTTBR0 || sr == cpu.SysSCTLR) && in.Rd == cpu.ZR
		}
		if !keep {
			binary.LittleEndian.PutUint32(out[off:], cpu.Encode(cpu.Inst{Op: cpu.OpNOP}))
		}
	}
	return out
}

// fzState is everything the engines must agree on.
type fzState struct {
	stop                  cpu.StopReason
	x                     [32]uint64
	pc                    uint64
	n, z, c, v            bool
	instret, faults, irqs uint64
	sys                   [cpu.NumSysRegs]uint64
	rings                 int
	ram                   []byte
	bc                    cpu.BlockCacheStats // host-side, not compared
	steps                 uint64              // copy-loop passes run in steps, not compared
}

// fzRun executes code (already sanitized) on a fresh fuzz machine.
func fzRun(tb testing.TB, engine cpu.Engine, code []byte, seed int64, budget uint64) fzState {
	tb.Helper()
	bus := mem.NewBus(mem.NewRAM(fzBase, fzRAMSize))
	intc := irq.New()
	intc.Enable(irq.LineGPU)
	bell := &doorbell{intc: intc}
	if err := bus.MapDevice("doorbell", fzBell, fzBellLen, bell); err != nil {
		tb.Fatal(err)
	}
	c := cpu.NewCore(0, bus, intc)
	c.SetEngine(engine)
	if len(code) > fzCodeMax {
		code = code[:fzCodeMax]
	}
	if err := bus.WriteBytes(fzBase, code); err != nil {
		tb.Fatal(err)
	}
	if err := bus.WriteBytes(fzVectors, fzVectorCode); err != nil {
		tb.Fatal(err)
	}
	c.SetSys(cpu.SysVBAR, fzVectors)
	c.SetSys(cpu.SysIE, 1)
	rnd := rand.New(rand.NewSource(seed))
	for i := 0; i < 10; i++ {
		c.X[i] = rnd.Uint64()
	}
	c.X[10], c.X[11], c.X[12], c.X[13] = fzData, fzBell, fzBase, fzCross
	c.Reset(fzBase)

	// A WFI the sanitizer could not see (the program executed its own data)
	// parks the core until any line is asserted: once a run has outlived
	// any that does not park (a few milliseconds, instrumented for
	// fuzzing), poke a masked line every millisecond. Sooner or more often,
	// the pokes would contend for the controller's lock with every
	// instruction's interrupt poll and cost a fuzzing exec most of its CPU
	// time.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		poke := time.After(20 * time.Millisecond)
		for {
			select {
			case <-stop:
				return
			case <-poke:
				intc.Assert(fzMaskedLine)
				poke = time.After(time.Millisecond)
			}
		}
	}()
	steps, stopCounting := cpu.CountCopySteps()
	reason := c.Run(budget)
	stopCounting()
	close(stop)
	<-stopped

	st := fzState{stop: reason, x: c.X, pc: c.PC,
		n: c.FlagN, z: c.FlagZ, c: c.FlagC, v: c.FlagV,
		instret: c.Instret, faults: c.Faults, irqs: c.IRQs, rings: bell.rings,
		ram: make([]byte, fzRAMSize)}
	for r := range st.sys {
		st.sys[r] = c.Sys(cpu.SysReg(r))
	}
	if err := bus.ReadBytes(fzBase, st.ram); err != nil {
		tb.Fatal(err)
	}
	st.bc, st.steps = c.BlockCacheStats(), steps()
	return st
}

// fzCheck runs code under both engines and fails on any disagreement.
func fzCheck(tb testing.TB, code []byte, seed int64) (dbt, interp fzState) {
	tb.Helper()
	return fzCheckBudget(tb, code, seed, fzBudget)
}

// fzCheckBudget is fzCheck with the DBT's budget given.
//
// The DBT retires whole blocks, so it may overshoot its budget; the
// interpreter is then given exactly the DBT's retired count and must land
// on the same state. A DBT run that stopped on its own, at HLT or at an
// error, gives the interpreter the same budget: an error stop retires
// nothing, so the interpreter must reach it with budget left. Once the
// doorbell has rung the engines take the interrupt at different
// instructions, so only runs that both reach HLT are compared, minus what
// depends on the interrupted PC: ESR/ELR, the handler's own retired
// instruction (it is a lone ERET), and SPSR — a DBT block that rings and
// halts never takes the interrupt the interpreter takes before the HLT, so
// only one of them saves a status.
func fzCheckBudget(tb testing.TB, code []byte, seed int64, budget uint64) (dbt, interp fzState) {
	tb.Helper()
	code = fzSanitize(code)
	dbt = fzRun(tb, cpu.EngineDBT, code, seed, budget)
	if dbt.stop == cpu.StopBudget {
		budget = dbt.instret
	}
	if dbt.rings > 0 {
		budget = 2 * fzBudget
	}
	interp = fzRun(tb, cpu.EngineInterp, code, seed, budget)
	d, i := dbt, interp
	if d.rings > 0 || i.rings > 0 {
		if d.stop != cpu.StopHalted || i.stop != cpu.StopHalted {
			return dbt, interp
		}
		d.instret, i.instret = d.instret-d.irqs, i.instret-i.irqs
		d.irqs, i.irqs = 0, 0
		for _, r := range []cpu.SysReg{cpu.SysESR, cpu.SysELR, cpu.SysSPSR} {
			d.sys[r], i.sys[r] = 0, 0
		}
	}
	d.bc, i.bc = cpu.BlockCacheStats{}, cpu.BlockCacheStats{}
	d.steps = 0
	if !bytes.Equal(d.ram, i.ram) {
		for off := range d.ram {
			if d.ram[off] != i.ram[off] {
				tb.Fatalf("memory diverges at %#x: dbt %#x, interp %#x", fzBase+off, d.ram[off], i.ram[off])
			}
		}
	}
	d.ram, i.ram = nil, nil
	if fmt.Sprint(d) != fmt.Sprint(i) {
		tb.Fatalf("engines diverge\n dbt    %+v\n interp %+v", d, i)
	}
	return dbt, interp
}

func words(ws []uint32) []byte {
	out := make([]byte, 0, 4*len(ws))
	for _, w := range ws {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// genProgram emits a random sequence of ALU and memory instructions. x10
// is pinned to the scratch data region so loads/stores stay in bounds.
func genProgram(rnd *rand.Rand, n int) []uint32 {
	var words []uint32
	emit := func(in cpu.Inst) { words = append(words, cpu.Encode(in)) }

	aluOps := []cpu.Opcode{
		cpu.OpADD, cpu.OpSUB, cpu.OpAND, cpu.OpORR, cpu.OpEOR, cpu.OpMUL,
		cpu.OpSDIV, cpu.OpUDIV, cpu.OpLSL, cpu.OpLSR, cpu.OpASR,
		cpu.OpADDS, cpu.OpSUBS,
	}
	immOps := []cpu.Opcode{
		cpu.OpADDI, cpu.OpSUBI, cpu.OpANDI, cpu.OpORRI, cpu.OpEORI,
		cpu.OpLSLI, cpu.OpLSRI, cpu.OpASRI, cpu.OpSUBSI,
	}
	memOps := []cpu.Opcode{
		cpu.OpLDRB, cpu.OpLDRH, cpu.OpLDRW, cpu.OpLDRX,
		cpu.OpSTRB, cpu.OpSTRH, cpu.OpSTRW, cpu.OpSTRX,
	}
	// Registers x0..x9 are playground; x10 is the data base (preserved).
	reg := func() uint8 { return uint8(rnd.Intn(10)) }

	for i := 0; i < n; i++ {
		switch rnd.Intn(10) {
		case 0, 1, 2, 3:
			emit(cpu.Inst{Op: aluOps[rnd.Intn(len(aluOps))], Rd: reg(), Rn: reg(), Rm: reg()})
		case 4, 5, 6:
			emit(cpu.Inst{Op: immOps[rnd.Intn(len(immOps))], Rd: reg(), Rn: reg(),
				Imm: int64(rnd.Intn(1<<14) - 1<<13)})
		case 7:
			emit(cpu.Inst{Op: cpu.OpMOVZ, Rd: reg(), Rm: uint8(rnd.Intn(4)),
				Imm: int64(rnd.Intn(1 << 16))})
		case 8:
			emit(cpu.Inst{Op: cpu.OpMOVK, Rd: reg(), Rm: uint8(rnd.Intn(4)),
				Imm: int64(rnd.Intn(1 << 16))})
		case 9:
			// Memory access at an aligned offset within the scratch page.
			op := memOps[rnd.Intn(len(memOps))]
			emit(cpu.Inst{Op: op, Rd: reg(), Rn: 10, Imm: int64(rnd.Intn(500) * 8)})
		}
	}
	emit(cpu.Inst{Op: cpu.OpHLT})
	return words
}

func TestFuzzEnginesAgree(t *testing.T) {
	rnd := rand.New(rand.NewSource(777))
	for round := 0; round < 200; round++ {
		code := words(genProgram(rnd, 50+rnd.Intn(100)))
		if dbt, _ := fzCheck(t, code, rnd.Int63()); dbt.stop != cpu.StopHalted {
			t.Fatalf("round %d: stop reason %v", round, dbt.stop)
		}
	}
}

// TestFuzzWithBranches adds forward conditional branches (always to later
// addresses, so programs terminate) and checks engine agreement across
// control flow.
func TestFuzzWithBranches(t *testing.T) {
	rnd := rand.New(rand.NewSource(888))
	for round := 0; round < 100; round++ {
		n := 60
		var ws []uint32
		for i := 0; i < n; i++ {
			if rnd.Intn(6) == 0 && i < n-2 {
				// Forward branch over 1..remaining instructions.
				maxSkip := n - i - 1
				skip := 1 + rnd.Intn(maxSkip)
				ws = append(ws, cpu.Encode(cpu.Inst{
					Op:   cpu.OpBCOND,
					Cond: cpu.Cond(rnd.Intn(14)),
					Imm:  int64(skip),
				}))
				continue
			}
			ws = append(ws, cpu.Encode(cpu.Inst{
				Op: cpu.OpADDS, Rd: uint8(rnd.Intn(10)),
				Rn: uint8(rnd.Intn(10)), Rm: uint8(rnd.Intn(10)),
			}))
		}
		ws = append(ws, cpu.Encode(cpu.Inst{Op: cpu.OpHLT}))
		if dbt, _ := fzCheck(t, words(ws), rnd.Int63()); dbt.stop != cpu.StopHalted {
			t.Fatalf("round %d: stop reason %v", round, dbt.stop)
		}
	}
}

// fzSeed is one program of the seed corpus and the seed of its random
// registers.
type fzSeed struct {
	name string
	code []byte
	seed int64
}

// fzSeeds is the seed corpus: the shapes the DBT's translation, chaining,
// re-entry, invalidation and data fast path must get right, as programs for
// the fuzz machine. Each is also a named deterministic test
// (TestFuzzSeeds). The order is FuzzCPUEngines' seed#N numbering: new seeds
// go at the end, so every earlier number keeps its input.
func fzSeeds(tb testing.TB) []fzSeed {
	tb.Helper()
	assemble := func(src string) []byte {
		p, err := asm.Assemble(src, fzBase)
		if err != nil {
			tb.Fatalf("seed: %v", err)
		}
		return p.Code
	}
	// The platform's real firmware, from the named routine on (it is
	// position independent), behind a stub that calls it.
	fw := firmwareProgram(tb)
	firmware := func(routine, args string) []byte {
		stub := assemble(args + "\n bl routine\n hlt\nroutine:\n")
		return append(stub, fw.Code[fw.MustEntry(routine)-fw.Base:]...)
	}
	// msr vbar, x2 and ldrx x3, [xzr]: what msr-vbar-from-data runs from
	// its data.
	msrVBAR := cpu.Encode(cpu.Inst{Op: cpu.OpMSR, Rd: 2, Imm: int64(cpu.SysVBAR)})
	ldrZero := cpu.Encode(cpu.Inst{Op: cpu.OpLDRX, Rd: 3, Rn: cpu.ZR})
	// movz x5, #2: what the self-modifying seeds patch in.
	patch := cpu.Encode(cpu.Inst{Op: cpu.OpMOVZ, Rd: 5, Imm: 2})
	loadPatch := fmt.Sprintf("movz x1, #%d\n movk x1, #%d, lsl #16\n", patch&0xFFFF, patch>>16)

	// fill writes n doublewords of a varying pattern from x10+off, through
	// x20..x23; every block it adds is at most 7 instructions long.
	fill := func(off, n int) string {
		return fmt.Sprintf(`
    addi x20, x10, #%d
    movz x21, #%d
    movz x22, #1
    movz x23, #0x9E37
    movk x23, #0x79B9, lsl #16
    movk x23, #0x7F4A, lsl #32
    b    fill
fill:
    strx x22, [x20]
    mul  x22, x22, x23
    addi x20, x20, #8
    subi x21, x21, #1
    cmpi x21, #0
    b.ne fill
`, off, n)
	}
	straight := func(n int) string { // n dependent ALU instructions
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, " addi x%d, x%d, #%d\n", i%8, (i+1)%8, i)
		}
		return b.String()
	}
	return []fzSeed{
		// mc_loop8 plus the byte tail (the length is odd).
		{"memcpy", firmware("memcpy", "addi x0, x10, #2048\n mov x1, x10\n movz x2, #1003"), 1},
		{"memset", firmware("memset", "addi x0, x10, #3\n movz x1, #0xA5\n movz x2, #777"), 1},
		// Straight-line code running across a page boundary: the block
		// ends at 0x...1000 with no branch.
		{"page-boundary", assemble("b run\n .zero 4040\nrun:\n" + straight(40) + " hlt\n"), 1},
		// More than maxBlockInsts without a branch.
		{"long-block", assemble(straight(300) + " hlt\n"), 1},
		// A data abort in the middle of a block, VBAR set: the handler
		// skips the load and execution resumes inside the old block.
		{"mid-block-abort", assemble(`
    movz x1, #1
    ldrx x2, [xzr]
    addi x1, x1, #1
    strx x1, [x10]
    ldrx x3, [x11, #2048]     // beyond the doorbell window: unmapped
    addi x1, x1, #1
    hlt
`), 1},
		// A single block that loops to itself and rings the doorbell on its
		// 25th trip: the interrupt must be taken at the loop head although
		// the loop re-enters its own tape, never going back to the run loop.
		{"irq-in-chained-loop", assemble(`
    movz x1, #50
loop:
    subi x1, x1, #1
    cmpi x1, #25
    csel x2, x11, x10, eq
    strw x1, [x2]
    cmpi x1, #0
    b.ne loop
    hlt
`), 1},
		// A store that rewrites a later instruction of the block it is in.
		{"smc-own-block", assemble(loadPatch + `
    movz x5, #0
    strw x1, [x12, #16]
    movz x5, #1              // offset 16: patched to movz x5, #2
    hlt
`), 1},
		// A store that rewrites an already-translated other block.
		{"smc-other-block", assemble(loadPatch + `
    bl   target
    mov  x6, x5
    strw x1, [x12, #36]
    bl   target
    hlt
    nop
    nop
target:
    movz x5, #1              // offset 36
    ret
`), 1},
		// An 8-byte store straddling two code pages: the block it rewrites
		// lives in the second one.
		{"smc-crossing-store", assemble(loadPatch + `
    bl   target
    mov  x6, x5
    lsli x2, x1, #32         // low word: NOP for 0xFFC; high word: the patch
    movz x3, #0xFFC
    add  x3, x3, x12
    strx x2, [x3]
    bl   target
    hlt
    .zero 4056
target:
    movz x5, #1              // offset 0x1000
    ret
`), 1},
		// An MMU-control write in the middle of a block flushes every
		// translation, the running block's included.
		{"msr-flush-mid-block", assemble(`
    movz x1, #7
    msr  sctlr, xzr
    addi x1, x1, #1
    msr  ttbr0, xzr
    addi x1, x1, #1
    hlt
`), 1},
		// Accesses whose end wraps past 2^64 abort like any unmapped one.
		{"wrapping-address", assemble(`
    subi x1, xzr, #4
    ldrx x2, [x1]
    strx x2, [x1]
    ldrb x3, [x1, #3]
    hlt
`), 1},
		// Page-crossing and device accesses never take the host-view path.
		{"cross-and-mmio", assemble(`
    movz x1, #0x1234
    strx x1, [x13]
    ldrx x2, [x13]
    ldrw x3, [x11]
    strx x2, [x10, #4092]
    ldrx x4, [x10, #4092]
    hlt
`), 1},
		// Straight-line ALU and memory code from the generator.
		{"generated", words(genProgram(rand.New(rand.NewSource(999)), 120)), 2},
		// A loop that stores into its own code page on its tenth trip, when
		// it re-enters its tape: the store ends the tape, and the trips after
		// it run the patched instruction.
		{"smc-in-reentered-loop", assemble(loadPatch + `
    movz x6, #0
    movz x7, #20
    addi x8, x12, #20        // the loop's first instruction
loop:
    movz x5, #1              // offset 20: patched to movz x5, #2
    add  x6, x6, x5
    subi x7, x7, #1
    cmpi x7, #10
    csel x2, x8, x10, eq
    strw x1, [x2]
    cmpi x7, #0
    b.ne loop
    hlt
`), 1},
		// A self-loop closed by a register SUBS, which is not fused with its
		// B.cond.
		{"subs-loop", assemble(`
    movz x1, #40
    movz x9, #1
    movz x6, #0
loop:
    addi x6, x6, #3
    subs x1, x1, x9
    b.ne loop
    hlt
`), 1},
		// A compare-and-branch self-loop whose branch falls through on its
		// first trip, so the block is not yet chained to itself when the
		// branch is first taken: that trip goes back to the run loop, which
		// links it, and only the trips after it re-enter the tape. The last
		// flags are a fused op's.
		{"cmpi-loop-falls-through-first", assemble(`
    movz x1, #1
    movz x2, #0
    movz x3, #0
    b    loop
loop:
    addi x2, x2, #1
    subi x1, x1, #1
    cmpi x1, #0
    b.ne loop
    addi x3, x3, #1
    movz x1, #30
    cmpi x3, #2
    b.lo loop
    hlt
`), 1},
		// The copy loops the DBT runs in steps (copyStep). mc_loop8 copying
		// forward onto its own source, three bytes on: each load reads bytes
		// the previous pass stored, as they were stored.
		{"copy-overlap", firmware("memcpy", fill(0, 256)+
			"addi x0, x10, #3\n mov x1, x10\n movz x2, #2000"), 1},
		// Source and destination cross page boundaries at different
		// offsets, an element straddling each boundary: those passes take
		// the bus, and the pass after each refills a page view.
		{"copy-cross-pages", firmware("memcpy", fill(0xF00, 776)+
			"addi x0, x10, #0x1A05\n addi x1, x10, #0xF03\n movz x2, #0x1803"), 1},
		// A word and a halfword copy loop closed by B.NE, their steps in
		// other orders than the firmware's. The firmware holds no
		// halfword access, so LDRH and STRH run through the interpreter
		// (opExec) and only the word loop runs in steps: the halfword
		// loop is a copy-shaped block left to the tape's fallback.
		{"copy-word-half-bne", assemble(fill(0, 128) + `
    addi x0, x10, #0x1004
    mov  x1, x10
    movz x2, #1000
    b    words
words:
    ldrw x3, [x1]
    strw x3, [x0]
    subi x2, x2, #4
    addi x1, x1, #4
    addi x0, x0, #4
    cmpi x2, #0
    b.ne words
    addi x5, x10, #0x1802
    addi x6, x10, #6
    movz x7, #700
    b    halves
halves:
    ldrh x8, [x6]
    strh x8, [x5]
    addi x5, x5, #2
    subi x7, x7, #2
    addi x6, x6, #2
    cmpi x7, #0
    b.ne halves
    hlt
`), 1},
		// A source that runs off the end of RAM: the pass after the step
		// aborts at its load (the handler skips it), and the flags then are
		// the last stepped compare's.
		{"copy-source-off-ram", firmware("memcpy",
			"mov x0, x10\n movz x1, #0xF008\n movk x1, #0x8000, lsl #16\n movz x2, #0x1000"), 1},
		// A copy into the doorbell's window: no store view, so every pass
		// runs on the tape, and each rings an interrupt taken at the next
		// block boundary.
		{"copy-into-doorbell", firmware("memcpy", "mov x0, x11\n mov x1, x10\n movz x2, #64"), 1},
		// A copy into its own code page: every store drops the loop's
		// translation, and no store view ever covers the page.
		{"copy-into-code-page", firmware("memcpy", "addi x0, x12, #0xC00\n mov x1, x10\n movz x2, #64"), 1},
		// Near misses that stay on the tape: a source stepped by twice the
		// element size, and a store of another register than the load's.
		{"copy-near-miss", assemble(fill(0, 64) + `
    addi x0, x10, #0x1000
    mov  x1, x10
    movz x2, #256
    b    stride
stride:
    ldrx x3, [x1]
    strx x3, [x0]
    addi x0, x0, #8
    addi x1, x1, #16
    subi x2, x2, #8
    cmpi x2, #8
    b.hs stride
    addi x0, x10, #0x1800
    mov  x1, x10
    movz x2, #256
    b    other
other:
    ldrx x3, [x1]
    strx x4, [x0]
    addi x0, x0, #8
    addi x1, x1, #8
    subi x2, x2, #8
    cmpi x2, #8
    b.hs other
    hlt
`), 1},
		// An MSR VBAR the sanitizer cannot see: the program stores it and an
		// aborting load into its data and runs them there. The vector
		// table moves to an unmapped page, so the fetch of the vector the
		// load enters aborts too, and the core stops.
		{"msr-vbar-from-data", assemble(fmt.Sprintf(`
    movz x1, #%d
    movk x1, #%d, lsl #16
    strw x1, [x10]
    movz x1, #%d
    movk x1, #%d, lsl #16
    strw x1, [x10, #4]
    movz x2, #0x4000, lsl #16
    mov  x30, x10
    ret
`, msrVBAR&0xFFFF, msrVBAR>>16, ldrZero&0xFFFF, ldrZero>>16)), 1},
	}
}

// TestFuzzSeeds replays the seed corpus and pins what each seed is there
// to provoke, so that a seed cannot silently stop exercising its shape.
func TestFuzzSeeds(t *testing.T) {
	provoked := map[string]func(dbt, interp fzState) bool{
		"page-boundary": func(d, _ fzState) bool { return d.bc.Translations >= 3 },
		"long-block":    func(d, _ fzState) bool { return d.bc.Translations == 3 }, // 128 + 128 + 45
		"mid-block-abort": func(d, _ fzState) bool {
			return d.faults == 2 && d.x[1] == 3 && d.sys[cpu.SysFAR] == fzBell+2048
		},
		// Taken at the loop head: the block boundary after the ringing trip.
		"irq-in-chained-loop": func(d, i fzState) bool {
			return d.irqs == 1 && i.irqs == 1 && d.rings == 1 && d.bc.Chained >= 40 &&
				d.sys[cpu.SysELR] == fzBase+4
		},
		"smc-own-block":       func(d, _ fzState) bool { return d.x[5] == 2 && d.bc.Flushes >= 2 },
		"smc-other-block":     func(d, _ fzState) bool { return d.x[6] == 1 && d.x[5] == 2 && d.bc.Flushes >= 2 },
		"smc-crossing-store":  func(d, _ fzState) bool { return d.x[6] == 1 && d.x[5] == 2 && d.pc == fzBase+36 },
		"msr-flush-mid-block": func(d, _ fzState) bool { return d.x[1] == 9 && d.bc.Translations == 3 },
		"wrapping-address":    func(d, _ fzState) bool { return d.faults == 3 },
		"cross-and-mmio":      func(d, _ fzState) bool { return d.x[2] == 0x1234 && d.x[4] == 0x1234 },
		"smc-in-reentered-loop": func(d, _ fzState) bool {
			return d.x[6] == 10*1+10*2 && d.bc.Chained >= 15
		},
		"subs-loop": func(d, _ fzState) bool { return d.x[6] == 120 && d.bc.Chained >= 36 },
		"cmpi-loop-falls-through-first": func(d, _ fzState) bool {
			return d.x[2] == 31 && d.x[3] == 2 && d.bc.Chained == 29
		},
		// Every pass in a step but the first (the loop is not yet chained
		// to itself), the last (it falls through) and, here, one per page.
		"memcpy":             func(d, _ fzState) bool { return d.steps == 124 },
		"copy-overlap":       func(d, _ fzState) bool { return d.steps == 248 },
		"copy-cross-pages":   func(d, _ fzState) bool { return d.steps == 759 },
		"copy-word-half-bne": func(d, _ fzState) bool { return d.steps == 248 },
		"copy-source-off-ram": func(d, _ fzState) bool {
			return d.steps == 510 && d.faults == 1 && d.sys[cpu.SysFAR] == fzBase+fzRAMSize
		},
		// Taken at mc_loop8's head, after the first ringing pass.
		"copy-into-doorbell": func(d, _ fzState) bool {
			return d.steps == 0 && d.rings == 8 && d.irqs == 1 && d.sys[cpu.SysELR] == fzBase+32
		},
		"copy-into-code-page": func(d, _ fzState) bool { return d.steps == 0 && d.bc.Flushes == 9 },
		"copy-near-miss":      func(d, _ fzState) bool { return d.steps == 0 && d.bc.Chained == 122 },
		// The data abort, then the vector fetch abort that stops the core.
		"msr-vbar-from-data": func(d, _ fzState) bool {
			return d.faults == 2 && d.sys[cpu.SysVBAR] == 0x4000_0000 && d.pc == 0x4000_0000 && d.sys[cpu.SysELR] == fzData+4
		},
	}
	for _, s := range fzSeeds(t) {
		s := s
		t.Run(s.name, func(t *testing.T) {
			dbt, interp := fzCheck(t, s.code, s.seed)
			want := cpu.StopHalted // every seed but the one whose vector faults runs to HLT
			if s.name == "msr-vbar-from-data" {
				want = cpu.StopError
			}
			if dbt.stop != want {
				t.Fatalf("seed stopped with %v after %d instructions, want %v", dbt.stop, dbt.instret, want)
			}
			if ok := provoked[s.name]; ok != nil && !ok(dbt, interp) {
				t.Errorf("seed no longer provokes its shape:\n dbt    %+v\n interp %+v",
					fzSummary(dbt), fzSummary(interp))
			}
		})
	}
}

func fzSummary(s fzState) fzState { s.ram = nil; return s }

// TestCopyStepCounts: the copy-loop step leaves the dispatch counts, and
// every other block-cache statistic, at what the tape alone counted before
// it (these values), and retires the same instructions.
func TestCopyStepCounts(t *testing.T) {
	want := map[string]struct {
		instret uint64
		bc      cpu.BlockCacheStats
	}{
		"copy-cross-pages":   {10072, cpu.BlockCacheStats{Translations: 9, Executions: 1553, Chained: 1541, Flushes: 1}},
		"copy-word-half-bne": {4984, cpu.BlockCacheStats{Translations: 7, Executions: 732, Chained: 722, Flushes: 1}},
	}
	for _, s := range fzSeeds(t) {
		w, ok := want[s.name]
		if !ok {
			continue
		}
		d, _ := fzCheck(t, s.code, s.seed)
		if d.instret != w.instret || d.bc != w.bc || d.steps == 0 {
			t.Errorf("%s: retired %d, %+v, %d passes in steps; want %d, %+v and some",
				s.name, d.instret, d.bc, d.steps, w.instret, w.bc)
		}
	}
}

// TestCopyStepBudget: a run whose budget ends inside a copy-loop step stops
// less than one pass past the budget (every other block of these seeds is
// as short), in the interpreter's state for the count it retired. One of
// copy-source-off-ram's budgets ends at the load that aborts after a step,
// where the flags are the last stepped compare's.
func TestCopyStepBudget(t *testing.T) {
	for _, s := range fzSeeds(t) {
		switch s.name {
		case "copy-cross-pages", "copy-word-half-bne", "copy-source-off-ram":
		default:
			continue
		}
		full, _ := fzCheck(t, s.code, s.seed)
		cut, atAbort := 0, false
		for budget := uint64(1); budget < full.instret; budget += 13 {
			d, _ := fzCheckBudget(t, s.code, s.seed, budget)
			if d.stop != cpu.StopBudget || d.instret-budget >= 7 {
				t.Fatalf("%s: budget %d: %v after %d instructions", s.name, budget, d.stop, d.instret)
			}
			if d.steps > 0 && d.steps < full.steps && d.instret < full.instret {
				cut++
			}
		}
		if s.name == "copy-source-off-ram" {
			for budget := full.instret - 30; budget < full.instret-10; budget++ {
				d, _ := fzCheckBudget(t, s.code, s.seed, budget)
				atAbort = atAbort || d.faults == 1 && d.pc == fzVectors+cpu.VecSync && d.z
			}
			if !atAbort {
				t.Errorf("%s: no budget stopped at the abort after the step", s.name)
			}
		}
		if cut == 0 {
			t.Errorf("%s: no budget ended inside a step", s.name)
		}
	}
}

// TestFirmwareRunsOnTape pins the rule the DBT's tape is cut to (DESIGN.md
// §3.4): it has a case for every instruction the platform firmware — all
// the guest code the driver runs — contains, and hands the rest to the
// interpreter. An instruction the firmware starts to use without a tape
// case fails here, named.
func TestFirmwareRunsOnTape(t *testing.T) {
	fw := firmwareProgram(t)
	for off := 0; off+4 <= len(fw.Code); off += 4 {
		if w := binary.LittleEndian.Uint32(fw.Code[off:]); cpu.Interpreted(w) {
			t.Errorf("firmware %#x: %v runs through the interpreter", fw.Base+uint64(off), cpu.Decode(w).Op)
		}
	}
}

// FuzzCPUEngines: arbitrary bytes as a VA64 program, interpreter against
// DBT. Run with
//
//	go test -run=NONE -fuzz=FuzzCPUEngines -fuzztime=60s ./internal/cpu/
func FuzzCPUEngines(f *testing.F) {
	for _, s := range fzSeeds(f) {
		f.Add(s.code, s.seed)
	}
	f.Fuzz(func(t *testing.T, code []byte, seed int64) {
		fzCheck(t, code, seed)
	})
}
