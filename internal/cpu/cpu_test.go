package cpu_test

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mobilesim/internal/asm"
	"mobilesim/internal/cpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
)

const ramBase = 0x8000_0000

func newCore(t *testing.T) (*cpu.Core, *mem.Bus) {
	t.Helper()
	bus := mem.NewBus(mem.NewRAM(ramBase, 8<<20))
	return cpu.NewCore(0, bus, irq.New()), bus
}

// run assembles src, loads it at ramBase, and executes from "main" (or the
// start) until HLT on both engines, checking they agree, then returns the
// core from the DBT run.
func run(t *testing.T, src string) *cpu.Core {
	t.Helper()
	prog, err := asm.Assemble(src, ramBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var final *cpu.Core
	var regs [2][32]uint64
	for i, engine := range []cpu.Engine{cpu.EngineDBT, cpu.EngineInterp} {
		c, bus := newCore(t)
		if err := bus.WriteBytes(ramBase, prog.Code); err != nil {
			t.Fatal(err)
		}
		c.SetEngine(engine)
		entry := prog.Base
		if e, err := prog.Entry("main"); err == nil {
			entry = e
		}
		c.Reset(entry)
		if r := c.Run(1 << 22); r != cpu.StopHalted {
			t.Fatalf("%v: stopped with %v, err=%v, pc=%#x", engine, r, c.Err(), c.PC)
		}
		regs[i] = c.X
		if engine == cpu.EngineDBT {
			final = c
		}
	}
	if regs[0] != regs[1] {
		t.Fatalf("engines disagree:\n dbt    %v\n interp %v", regs[0], regs[1])
	}
	return final
}

func TestArithmeticBasics(t *testing.T) {
	c := run(t, `
main:
    movz x1, #40
    movz x2, #2
    add  x3, x1, x2
    sub  x4, x1, x2
    mul  x5, x1, x2
    udiv x6, x1, x2
    hlt
`)
	want := map[int]uint64{3: 42, 4: 38, 5: 80, 6: 20}
	for r, v := range want {
		if c.X[r] != v {
			t.Errorf("x%d = %d, want %d", r, c.X[r], v)
		}
	}
}

func TestWideMoves(t *testing.T) {
	c := run(t, `
main:
    movz x1, #0xdead, lsl #48
    movk x1, #0xbeef, lsl #32
    movk x1, #0xcafe, lsl #16
    movk x1, #0xf00d
    hlt
`)
	if c.X[1] != 0xdead_beef_cafe_f00d {
		t.Errorf("x1 = %#x", c.X[1])
	}
}

func TestZeroRegister(t *testing.T) {
	c := run(t, `
main:
    movz x1, #7
    add  xzr, x1, x1   // write discarded
    add  x2, xzr, x1   // read as zero
    hlt
`)
	if c.X[31] != 0 {
		t.Errorf("xzr = %d", c.X[31])
	}
	if c.X[2] != 7 {
		t.Errorf("x2 = %d, want 7", c.X[2])
	}
}

func TestLoadsStores(t *testing.T) {
	c := run(t, `
main:
    movz x1, #0x8000, lsl #16
    movk x1, #0x1000          // x1 = ramBase + 0x1000
    movz x2, #0xbeef
    strx x2, [x1]
    strw x2, [x1, #16]
    strh x2, [x1, #24]
    strb x2, [x1, #32]
    ldrx x3, [x1]
    ldrw x4, [x1, #16]
    ldrh x5, [x1, #24]
    ldrb x6, [x1, #32]
    hlt
`)
	if c.X[3] != 0xbeef || c.X[4] != 0xbeef || c.X[5] != 0xbeef || c.X[6] != 0xef {
		t.Errorf("loads: x3=%#x x4=%#x x5=%#x x6=%#x", c.X[3], c.X[4], c.X[5], c.X[6])
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a countdown loop.
	c := run(t, `
main:
    movz x1, #10
    movz x2, #0
loop:
    add  x2, x2, x1
    subi x1, x1, #1
    cmpi x1, #0
    b.ne loop
    hlt
`)
	if c.X[2] != 55 {
		t.Errorf("sum = %d, want 55", c.X[2])
	}
}

func TestSignedConditions(t *testing.T) {
	c := run(t, `
main:
    movz x1, #5
    subi x1, x1, #10     // x1 = -5
    cmpi x1, #0
    movz x2, #0
    b.ge skip
    movz x2, #1          // taken: -5 < 0
skip:
    cmpi x1, #-5
    movz x3, #0
    b.ne done
    movz x3, #1          // taken: equal
done:
    hlt
`)
	if c.X[2] != 1 || c.X[3] != 1 {
		t.Errorf("x2=%d x3=%d, want 1 1", c.X[2], c.X[3])
	}
}

func TestCSEL(t *testing.T) {
	c := run(t, `
main:
    movz x1, #3
    movz x2, #9
    cmp  x1, x2
    csel x3, x1, x2, lt   // min
    csel x4, x2, x1, lt   // max
    hlt
`)
	if c.X[3] != 3 || c.X[4] != 9 {
		t.Errorf("min=%d max=%d", c.X[3], c.X[4])
	}
}

func TestCallReturn(t *testing.T) {
	c := run(t, `
main:
    movz x0, #6
    bl   double
    mov  x5, x0
    hlt
double:
    add  x0, x0, x0
    ret
`)
	if c.X[5] != 12 {
		t.Errorf("double(6) = %d", c.X[5])
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	c := run(t, `
main:
    movz x1, #7
    movz x2, #0
    udiv x3, x1, x2      // div by zero -> 0
    sdiv x4, x1, x2      // div by zero -> 0
    subi x5, xzr, #5     // -5
    movz x6, #2
    sdiv x7, x5, x6      // -2 (truncated)
    hlt
`)
	if c.X[3] != 0 || c.X[4] != 0 {
		t.Errorf("div-by-zero: x3=%d x4=%d", c.X[3], c.X[4])
	}
	if int64(c.X[7]) != -2 {
		t.Errorf("sdiv(-5,2) = %d, want -2", int64(c.X[7]))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(opSel uint8, rd, rn, rm uint8, imm int16, condSel uint8) bool {
		ops := []cpu.Opcode{
			cpu.OpADD, cpu.OpSUBI, cpu.OpLDRX, cpu.OpSTRB, cpu.OpMOVZ,
			cpu.OpB, cpu.OpBCOND, cpu.OpCSEL, cpu.OpMRS, cpu.OpSVC,
		}
		in := cpu.Inst{Op: ops[int(opSel)%len(ops)], Rd: rd & 31, Rn: rn & 31, Rm: rm & 31,
			Cond: cpu.Cond(condSel % 15)}
		switch in.Op {
		case cpu.OpADD, cpu.OpCSEL:
			// no immediate
		case cpu.OpMOVZ:
			in.Rn = 0
			in.Rm &= 3
			in.Imm = int64(uint16(imm))
		case cpu.OpMRS:
			in.Rm, in.Rn = 0, 0
			in.Imm = int64(uint8(imm))
		case cpu.OpSVC:
			in.Rd, in.Rn, in.Rm = 0, 0, 0
			in.Imm = int64(uint16(imm))
		case cpu.OpB:
			in.Rd, in.Rn, in.Rm = 0, 0, 0
			in.Imm = int64(imm)
		case cpu.OpBCOND:
			in.Rd, in.Rn, in.Rm = 0, 0, 0
			in.Imm = int64(imm)
		default:
			in.Rm = 0
			in.Imm = int64(imm / 2) // fits 15-bit signed
		}
		if in.Op == cpu.OpADD {
			in.Cond = 0
		}
		if in.Op != cpu.OpCSEL && in.Op != cpu.OpBCOND {
			in.Cond = 0
		}
		out := cpu.Decode(cpu.Encode(in))
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDBTMatchesInterpreterOnFibonacci(t *testing.T) {
	c := run(t, `
main:
    movz x1, #0       // fib(0)
    movz x2, #1       // fib(1)
    movz x3, #20      // iterations
loop:
    add  x4, x1, x2
    mov  x1, x2
    mov  x2, x4
    subi x3, x3, #1
    cmpi x3, #0
    b.ne loop
    hlt
`)
	if c.X[2] != 10946 { // fib(21)
		t.Errorf("fib = %d, want 10946", c.X[2])
	}
}

func TestBlockCacheReuse(t *testing.T) {
	src := `
main:
    movz x1, #1000
loop:
    subi x1, x1, #1
    cmpi x1, #0
    b.ne loop
    hlt
`
	prog, err := asm.Assemble(src, ramBase)
	if err != nil {
		t.Fatal(err)
	}
	c, bus := newCore(t)
	if err := bus.WriteBytes(ramBase, prog.Code); err != nil {
		t.Fatal(err)
	}
	c.Reset(ramBase)
	if r := c.Run(1 << 20); r != cpu.StopHalted {
		t.Fatalf("run: %v", r)
	}
	st := c.BlockCacheStats()
	if st.Translations > 4 {
		t.Errorf("translations = %d, want <= 4 (block cache not reusing)", st.Translations)
	}
	if st.Executions < 1000 {
		t.Errorf("executions = %d, want >= 1000", st.Executions)
	}
}

func TestSelfModifyingCodeInvalidatesCache(t *testing.T) {
	// The program runs "patch" (movz x2, #1), overwrites that instruction
	// with movz x2, #2 via a guest store, and re-runs it. A stale DBT
	// translation would produce 1 again.
	prog, err := asm.Assemble(`
main:
    bl   patch
    mov  x3, x2        // first result
    strw x1, [x0]      // patch target instruction; x0/x1 set by the host
    bl   patch
    mov  x4, x2        // second result
    hlt
patch:
    movz x2, #1
    ret
`, ramBase)
	if err != nil {
		t.Fatal(err)
	}
	c, bus := newCore(t)
	if err := bus.WriteBytes(ramBase, prog.Code); err != nil {
		t.Fatal(err)
	}
	c.Reset(prog.MustEntry("main"))
	c.X[0] = prog.MustEntry("patch")
	c.X[1] = uint64(cpu.Encode(cpu.Inst{Op: cpu.OpMOVZ, Rd: 2, Imm: 2}))
	if r := c.Run(1 << 16); r != cpu.StopHalted {
		t.Fatalf("run: %v (%v)", r, c.Err())
	}
	if c.X[3] != 1 || c.X[4] != 2 {
		t.Errorf("first=%d second=%d, want 1 then 2 (stale translation?)", c.X[3], c.X[4])
	}
}

func TestHLTStopsAndReports(t *testing.T) {
	c, bus := newCore(t)
	prog, _ := asm.Assemble("main: hlt", ramBase)
	if err := bus.WriteBytes(ramBase, prog.Code); err != nil {
		t.Fatal(err)
	}
	c.Reset(ramBase)
	if r := c.Run(100); r != cpu.StopHalted {
		t.Fatalf("Run = %v", r)
	}
	if !c.Halted() {
		t.Error("Halted() should be true")
	}
	if c.Instret != 1 {
		t.Errorf("Instret = %d, want 1", c.Instret)
	}
}

func TestBudgetStops(t *testing.T) {
	c, bus := newCore(t)
	prog, _ := asm.Assemble("main: b main", ramBase)
	if err := bus.WriteBytes(ramBase, prog.Code); err != nil {
		t.Fatal(err)
	}
	c.Reset(ramBase)
	if r := c.Run(1000); r != cpu.StopBudget {
		t.Fatalf("Run = %v, want budget stop", r)
	}
}

func TestUnmappedFetchStopsWithError(t *testing.T) {
	c, _ := newCore(t)
	c.Reset(0x1234_0000) // nothing there
	if r := c.Run(10); r != cpu.StopError {
		t.Fatalf("Run = %v, want error", r)
	}
	if c.Err() == nil {
		t.Error("Err() should describe the fault")
	}
}

func TestCallRoutineABI(t *testing.T) {
	src := `
addmul:            // returns a*b + c
    mul  x0, x0, x1
    add  x0, x0, x2
    ret
`
	prog, err := asm.Assemble(src, ramBase)
	if err != nil {
		t.Fatal(err)
	}
	c, bus := newCore(t)
	if err := bus.WriteBytes(ramBase, prog.Code); err != nil {
		t.Fatal(err)
	}
	got, err := c.CallRoutine(prog.MustEntry("addmul"), 6, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("addmul(6,7,8) = %d, want 50", got)
	}
}

func TestSVCHostHook(t *testing.T) {
	c, bus := newCore(t)
	prog, _ := asm.Assemble(`
main:
    movz x0, #11
    svc  #42
    hlt
`, ramBase)
	if err := bus.WriteBytes(ramBase, prog.Code); err != nil {
		t.Fatal(err)
	}
	var gotImm uint16
	var gotX0 uint64
	c.OnSVC = func(core *cpu.Core, imm uint16) bool {
		gotImm, gotX0 = imm, core.X[0]
		core.X[0] = 99
		return true
	}
	c.Reset(ramBase)
	if r := c.Run(100); r != cpu.StopHalted {
		t.Fatalf("Run = %v", r)
	}
	if gotImm != 42 || gotX0 != 11 || c.X[0] != 99 {
		t.Errorf("svc hook: imm=%d x0=%d result=%d", gotImm, gotX0, c.X[0])
	}
}

// TestBudgetChargesRetiredInstructions: a data abort that vectors out of a
// long block after its second instruction retired two instructions, not
// the block's length. Charging the length ended Run(n) with barely half of
// n retired; the DBT may overshoot n by less than one block, never
// undershoot it. The same holds inside a block that loops to itself, which
// re-enters its own tape without going back to the run loop.
func TestBudgetChargesRetiredInstructions(t *testing.T) {
	var abort strings.Builder
	abort.WriteString(`
main:
    addi x1, x1, #1
    ldrx x2, [xzr]             // aborts: nothing is mapped at 0
`)
	for i := 0; i < 120; i++ {
		abort.WriteString("    addi x3, x3, #1\n")
	}
	abort.WriteString("    b main\n")
	for name, body := range map[string]string{
		"mid-block-abort": abort.String(),
		"self-loop": `
main:
    movz x1, #0xFFFF           // 4 × 65535 instructions: beyond every budget
loop:
    addi x3, x3, #1
    subi x1, x1, #1
    cmpi x1, #0
    b.ne loop
    hlt
`,
	} {
		prog, err := asm.Assemble(`
sync:                          // skip the aborting instruction
    mrs  x28, elr
    addi x28, x28, #4
    msr  elr, x28
    eret
`+body, ramBase)
		if err != nil {
			t.Fatal(err)
		}
		retired := map[cpu.Engine]uint64{}
		for _, n := range []uint64{1, 2, 3, 5, 6, 100, 1000, 5000} {
			for _, engine := range []cpu.Engine{cpu.EngineInterp, cpu.EngineDBT} {
				c, bus := newCore(t)
				if err := bus.WriteBytes(ramBase, prog.Code); err != nil {
					t.Fatal(err)
				}
				c.SetEngine(engine)
				c.SetSys(cpu.SysVBAR, prog.MustEntry("sync"))
				c.Reset(prog.MustEntry("main"))
				if r := c.Run(n); r != cpu.StopBudget {
					t.Fatalf("%s: %v: Run(%d) = %v (%v)", name, engine, n, r, c.Err())
				}
				retired[engine] = c.Instret
			}
			if retired[cpu.EngineInterp] != n {
				t.Errorf("%s: interpreter retired %d of a budget of %d", name, retired[cpu.EngineInterp], n)
			}
			if got := retired[cpu.EngineDBT]; got < n || got >= n+128 {
				t.Errorf("%s: DBT retired %d of a budget of %d, want [%d, %d)", name, got, n, n, n+128)
			}
		}
	}
}

// TestVectorFetchAbortStops: with VBAR and the PC both on an unmapped
// page, the first fetch aborts and so does the fetch of the vector it
// enters. Each engine must stop the core with the unhandled-exception
// error for that fetch instead of entering the vector forever, since no
// instruction retires to charge the budget. A watchdog turns a hang into a
// failure.
func TestVectorFetchAbortStops(t *testing.T) {
	const vbar = 0x4000_0000 // neither RAM nor a device
	for _, engine := range []cpu.Engine{cpu.EngineInterp, cpu.EngineDBT} {
		c, _ := newCore(t)
		c.SetEngine(engine)
		c.SetSys(cpu.SysVBAR, vbar)
		c.Reset(vbar + 0x800)
		done := make(chan cpu.StopReason, 1)
		go func() { done <- c.Run(1000) }()
		select {
		case r := <-done:
			want := fmt.Sprintf("cause=%d far=%#x", cpu.ExcAbortExec, vbar+cpu.VecSync)
			if r != cpu.StopError || c.Err() == nil || !strings.Contains(c.Err().Error(), want) {
				t.Errorf("%v: Run = %v (%v), want %v with %q", engine, r, c.Err(), cpu.StopError, want)
			}
			if c.Faults != 2 || c.Instret != 0 {
				t.Errorf("%v: %d faults, %d retired; want 2 and 0", engine, c.Faults, c.Instret)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%v: Run(1000) has not returned after 2 s", engine)
		}
	}
}

// TestChainedLoopBypassesCodePageTable: the firmware's mc_loop8 copies
// 1 MiB in 131072 trips through one block. Chaining must carry every trip
// but the first; the code-page table is consulted a constant number of
// times however long the copy.
func TestChainedLoopBypassesCodePageTable(t *testing.T) {
	p, c := firmwarePlatform(t)
	const n = 1 << 20
	buf, err := p.Alloc.AllocPages(2 * n / 4096)
	if err != nil {
		t.Fatal(err)
	}
	memcpy := p.Firmware.MustEntry("memcpy")
	consulted := func(n uint64) (table, chained uint64) {
		before := c.BlockCacheStats()
		if _, err := c.CallRoutine(memcpy, buf+n, buf, n); err != nil {
			t.Fatal(err)
		}
		after := c.BlockCacheStats()
		return (after.Executions - before.Executions) - (after.Chained - before.Chained), after.Chained - before.Chained
	}
	consulted(64) // translate
	small, _ := consulted(4096)
	large, chained := consulted(n)
	if large != small || large > 8 {
		t.Errorf("code-page table consulted %d times for 4 KiB, %d times for 1 MiB; want equal and small", small, large)
	}
	if chained < n/8-1 {
		t.Errorf("%d chained dispatches for %d loop trips", chained, n/8)
	}
	if fl := c.BlockCacheStats().Flushes; fl != 0 {
		t.Errorf("%d code-cache flushes while copying data", fl)
	}
}
