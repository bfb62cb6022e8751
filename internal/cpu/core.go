package cpu

import (
	"fmt"

	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
)

// Engine selects how a core executes guest code.
type Engine int

const (
	// EngineDBT executes through the basic-block translation cache
	// (lower once per block to a chained micro-op tape, run that
	// thereafter). This is the paper's QEMU-style mode and the default.
	EngineDBT Engine = iota
	// EngineInterp decodes every instruction on every execution. It models
	// the per-instruction-dispatch CPU simulation of the Multi2Sim-style
	// baseline and serves as the DBT ablation reference.
	EngineInterp
)

func (e Engine) String() string {
	if e == EngineDBT {
		return "dbt"
	}
	return "interp"
}

// StopReason reports why Run returned.
type StopReason int

const (
	// StopHalted means the core executed HLT.
	StopHalted StopReason = iota
	// StopBudget means the instruction budget was exhausted.
	StopBudget
	// StopError means the core hit an unrecoverable condition (exception
	// with no vector table installed).
	StopError
)

func (r StopReason) String() string {
	switch r {
	case StopHalted:
		return "halted"
	case StopBudget:
		return "budget"
	case StopError:
		return "error"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// SVCHandler is an optional host hook invoked for SVC when the guest has
// not installed a vector table (VBAR == 0). It lets bare-metal example
// programs request host services; a full guest stack installs VBAR and
// handles SVC itself. Returning false halts the core.
type SVCHandler func(c *Core, imm uint16) bool

// Core is one VA64 CPU core: architectural state plus its translation
// machinery. A Core is driven from a single goroutine.
type Core struct {
	// X is the general-purpose register file; X[31] is the zero register.
	X  [32]uint64
	PC uint64

	// NZCV condition flags.
	FlagN, FlagZ, FlagC, FlagV bool

	sys [NumSysRegs]uint64

	bus    *mem.Bus
	walker *mmu.Walker
	intc   *irq.Controller

	engine Engine
	btc    blockCache

	// ldv and stv cache the host view of the page the last guest load and
	// the last guest store went to; see hostView.
	ldv, stv pageView

	// Instret counts retired instructions.
	Instret uint64
	// Decodes counts fetch-and-decode events: every retired instruction on
	// the interpreter, only the instructions of newly translated blocks on
	// the DBT. It is the per-instruction dispatch work Fig 9 attributes the
	// interpreted baseline's scaling to, as a count instead of a duration.
	// Like the block-cache statistics it is host-side instrumentation, not
	// architectural state, and is not captured in snapshots.
	Decodes uint64
	// Faults counts taken synchronous exceptions.
	Faults uint64
	// IRQs counts taken interrupts.
	IRQs uint64

	halted  bool
	stopErr error
	// unhandled backs stopErr for an exception with no vector table. Every
	// CallRoutine ends in one (the fetch at the return sentinel), so
	// recording it must not allocate; Err hands out a copy.
	unhandled unhandledError

	// OnSVC is consulted when VBAR is zero; see SVCHandler.
	OnSVC SVCHandler
}

// NewCore creates a core with the given ID wired to the bus and interrupt
// controller. The controller may be nil for device-less unit tests (WFI
// then behaves as NOP).
func NewCore(id int, bus *mem.Bus, intc *irq.Controller) *Core {
	c := &Core{
		bus:    bus,
		walker: mmu.NewWalker(bus),
		intc:   intc,
		engine: EngineDBT,
	}
	c.sys[SysCPUID] = uint64(id)
	return c
}

// SetEngine selects the execution engine. Switching flushes the block cache.
func (c *Core) SetEngine(e Engine) {
	c.engine = e
	c.btc.flush()
}

// Walker exposes the core's MMU walker (for platform setup and tests).
func (c *Core) Walker() *mmu.Walker { return c.walker }

// Halted reports whether the core has executed HLT or stopped on error.
func (c *Core) Halted() bool { return c.halted }

// Err returns the unrecoverable error that stopped the core, if any.
func (c *Core) Err() error {
	if c.stopErr == &c.unhandled {
		e := c.unhandled
		return &e
	}
	return c.stopErr
}

type unhandledError struct{ cause, far, pc uint64 }

func (e *unhandledError) Error() string {
	return fmt.Sprintf("cpu: unhandled exception cause=%d far=%#x pc=%#x", e.cause, e.far, e.pc)
}

// Reset clears halted state and jumps to the entry point. Architectural
// registers keep their values (like a warm reset); callers zero X
// themselves when needed.
func (c *Core) Reset(entry uint64) {
	c.halted = false
	c.stopErr = nil
	c.PC = entry
}

// State is the serializable architectural state of one core, captured
// for platform snapshots. The translation caches (TLB, block translation
// cache) are warm-up state, not architecture, and are rebuilt on demand
// after a restore.
type State struct {
	X       [32]uint64
	PC      uint64
	FlagN   bool
	FlagZ   bool
	FlagC   bool
	FlagV   bool
	Sys     [NumSysRegs]uint64
	Instret uint64
	Faults  uint64
	IRQs    uint64
	Halted  bool
}

// CaptureState snapshots the core's architectural state.
func (c *Core) CaptureState() State {
	return State{
		X: c.X, PC: c.PC,
		FlagN: c.FlagN, FlagZ: c.FlagZ, FlagC: c.FlagC, FlagV: c.FlagV,
		Sys:     c.sys,
		Instret: c.Instret, Faults: c.Faults, IRQs: c.IRQs,
		Halted: c.halted,
	}
}

// RestoreState installs captured architectural state, reapplying MMU
// side effects (TTBR0/SCTLR) and flushing the translation caches. The
// core keeps its identity (CPUID is read-only).
func (c *Core) RestoreState(st State) {
	id := c.sys[SysCPUID]
	c.X = st.X
	c.PC = st.PC
	c.FlagN, c.FlagZ, c.FlagC, c.FlagV = st.FlagN, st.FlagZ, st.FlagC, st.FlagV
	c.sys = st.Sys
	c.sys[SysCPUID] = id
	c.Instret, c.Faults, c.IRQs = st.Instret, st.Faults, st.IRQs
	c.halted = st.Halted
	c.stopErr = nil
	c.ldv, c.stv = pageView{}, pageView{}
	// Reapply MMU side effects only when the restored state needs them: a
	// fresh core already has translation off and empty caches, and the
	// redundant TLB flush is a measurable cost on the microsecond fork
	// path.
	if c.sys[SysSCTLR]&1 != 0 || c.walker.Enabled() {
		c.applyMMU()
	}
}

// Sys reads a system register.
func (c *Core) Sys(r SysReg) uint64 { return c.sys[r] }

// SetSys writes a system register, applying side effects (TTBR0/SCTLR
// reprogram the MMU and flush the translation caches).
func (c *Core) SetSys(r SysReg, v uint64) {
	if r == SysCPUID {
		return // read-only
	}
	c.sys[r] = v
	if r == SysTTBR0 || r == SysSCTLR {
		c.applyMMU()
	}
}

func (c *Core) applyMMU() {
	root := uint64(0)
	if c.sys[SysSCTLR]&1 != 0 {
		root = c.sys[SysTTBR0]
	}
	c.walker.SetRoot(root)
	c.btc.flush() // virtual code mappings may have changed
	c.ldv, c.stv = pageView{}, pageView{}
}

// irqEnabled reports whether the guest has interrupts unmasked.
func (c *Core) irqEnabled() bool { return c.sys[SysIE]&1 != 0 }

// --- Memory access -------------------------------------------------------

// pageView is a one-entry cache of a guest page's host view.
type pageView struct {
	base uint64              // guest address of the page
	page *[mem.PageSize]byte // nil: empty
}

// hostView returns the host bytes behind the guest access [va, va+size)
// when it can bypass the bus, refilling the one-page cache v on a miss,
// and nil when it cannot. With translation off there is no TLB entry to
// carry a host view, so the core keeps its own: the last page loaded from
// (ldv) and the last page stored to (stv). A RAM page's view
// (mem.Bus.PageView) never goes stale; MMIO and page-crossing accesses
// stay on the bus. Filling stv dirty-marks the page once and drops any
// code translated from it; translate in turn drops an stv of the page it
// reads, so a store that hits stv never needs noteWrite. With translation
// on the walker's TLB fast path does this job and counts the access:
// nothing is cached here.
func (c *Core) hostView(v *pageView, va uint64, size int, write bool) []byte {
	off := va - v.base
	if v.page == nil || off > mem.PageSize-uint64(size) {
		off = va & mem.PageMask
		if c.walker.Enabled() || off > mem.PageSize-uint64(size) {
			return nil
		}
		page := c.bus.PageView(va)
		if page == nil {
			return nil
		}
		if write {
			c.bus.MarkDirty(va-off, mem.PageSize)
			c.btc.noteWrite(va)
		}
		v.base, v.page = va-off, (*[mem.PageSize]byte)(page)
	}
	return v.page[off : off+uint64(size)]
}

// load performs a data load; on fault it takes the exception and reports
// ok=false so the executor abandons the instruction. Off the hostView path
// it goes through the walker's combined translate-and-access (TLB-cached
// host page views, or the full translate + bus route on miss or MMIO).
func (c *Core) load(va uint64, size int) (uint64, bool) {
	if b := c.hostView(&c.ldv, va, size, false); b != nil {
		return mem.LoadLE(b), true
	}
	v, err := c.walker.Load(va, size, mem.Read)
	if err != nil {
		c.raiseSync(ExcAbortRead, va, c.PC)
		return 0, false
	}
	return v, true
}

func (c *Core) store(va uint64, size int, val uint64) bool {
	if b := c.hostView(&c.stv, va, size, true); b != nil {
		mem.StoreLE(b, size, val)
		return true
	}
	if err := c.walker.Store(va, size, val); err != nil {
		c.raiseSync(ExcAbortWrit, va, c.PC)
		return false
	}
	c.btc.noteWrite(va)
	if last := va + uint64(size) - 1; last>>12 != va>>12 {
		c.btc.noteWrite(last) // the store straddled two pages
	}
	return true
}

// fetchWord translates and reads one instruction word without raising.
// With translation off the PC is a physical address, and those are 48 bits
// wide (the PTE format): a fetch beyond — CallRoutine's return sentinel —
// aborts without a bus access and the bus error it would allocate.
func (c *Core) fetchWord(va uint64) (uint32, bool) {
	if va%4 != 0 || va>>48 != 0 && !c.walker.Enabled() {
		return 0, false
	}
	w, err := c.walker.Load(va, 4, mem.Execute)
	return uint32(w), err == nil
}

// fetch is fetchWord that takes the prefetch abort on failure.
func (c *Core) fetch(va uint64) (uint32, bool) {
	w, ok := c.fetchWord(va)
	if !ok {
		c.raiseSync(ExcAbortExec, va, va)
	}
	return w, ok
}

// --- Exceptions ----------------------------------------------------------

// raiseSync enters the synchronous exception vector: ESR/FAR/ELR/SPSR are
// latched, interrupts masked, and control transfers to VBAR+VecSync. With
// no vector table installed the core stops with an error (bare-metal test
// programs are expected not to fault), and so it does when the fetch of
// the vector itself aborts: entering it again would abort again, and no
// instruction would ever retire to charge the run's budget.
func (c *Core) raiseSync(cause, far, retPC uint64) {
	c.Faults++
	vbar := c.sys[SysVBAR]
	if vbar == 0 || cause == ExcAbortExec && far == vbar+VecSync {
		c.halted = true
		c.unhandled = unhandledError{cause, far, retPC}
		c.stopErr = &c.unhandled
		return
	}
	c.sys[SysESR] = cause
	c.sys[SysFAR] = far
	c.sys[SysELR] = retPC
	c.sys[SysSPSR] = c.sys[SysIE]
	c.sys[SysIE] = 0
	c.PC = vbar + VecSync
}

// takeIRQ enters the IRQ vector. retPC is the instruction to resume at.
// The interrupt is claimed from the controller (clearing its pending
// latch, like reading a GIC's IAR); the claimed line number is made
// visible to the handler in ESR as 0x100|line.
func (c *Core) takeIRQ(retPC uint64) {
	vbar := c.sys[SysVBAR]
	if vbar == 0 {
		// No handler installed: leave the interrupt pending; the host-side
		// stack (driver model) will claim it instead.
		return
	}
	line, ok := c.intc.Claim()
	if !ok {
		return // raced with another claimer
	}
	c.IRQs++
	c.sys[SysESR] = 0x100 | uint64(line)
	c.sys[SysELR] = retPC
	c.sys[SysSPSR] = c.sys[SysIE]
	c.sys[SysIE] = 0
	c.PC = vbar + VecIRQ
}

// eret returns from an exception.
func (c *Core) eret() {
	c.sys[SysIE] = c.sys[SysSPSR]
	c.PC = c.sys[SysELR]
}

// pendingIRQ reports whether an interrupt should be taken now. It tests
// the core's own enable and vector inline and asks the controller only
// when both are set, so that it inlines into the tape's loop re-entry.
func (c *Core) pendingIRQ() bool {
	return c.irqEnabled() && c.sys[SysVBAR] != 0 && c.lineRaised()
}

// lineRaised reports whether the interrupt controller holds a pending,
// enabled line. Kept out of line: inlined, it would take pendingIRQ over
// the inlining budget.
//
//go:noinline
func (c *Core) lineRaised() bool { return c.intc != nil && c.intc.Pending() }

// --- Top-level run loop --------------------------------------------------

// Run executes up to budget instructions and returns why it stopped.
func (c *Core) Run(budget uint64) StopReason {
	if c.engine == EngineDBT {
		return c.runDBT(budget)
	}
	return c.runInterp(budget)
}

// CallRoutine performs a host-initiated guest call: arguments in X0..X7,
// LR set to a sentinel, execution until the routine returns (BR LR to the
// sentinel) or halts. It returns X0. This is how the driver model runs its
// guest-code helpers (memcpy, descriptor writers) on the simulated CPU.
func (c *Core) CallRoutine(entry uint64, args ...uint64) (uint64, error) {
	const sentinel = 0xFFFF_FFFF_FFFF_FF00
	if len(args) > 8 {
		return 0, fmt.Errorf("cpu: CallRoutine: too many args (%d)", len(args))
	}
	for i, a := range args {
		c.X[i] = a
	}
	for i := len(args); i < 8; i++ {
		c.X[i] = 0
	}
	c.X[LR] = sentinel
	c.halted = false
	c.stopErr = nil
	c.PC = entry
	for {
		c.Run(1 << 22)
		if c.PC == sentinel {
			return c.X[0], nil
		}
		if c.halted {
			if err := c.Err(); err != nil {
				return 0, err
			}
			return c.X[0], nil // HLT also terminates a routine
		}
	}
}
