package gpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/stats"
)

// GPU memory-mapped register offsets. The kernel driver programs the GPU
// exclusively through this window plus shared memory and the interrupt
// line — the same hardware/software contract as the Mali job manager
// interface the paper models.
const (
	RegGPUID      = 0x000 // RO: device identity
	RegIRQRawstat = 0x004 // latched interrupt causes
	RegIRQClear   = 0x008 // WO: clear rawstat bits
	RegIRQMask    = 0x00C // interrupt enable mask
	RegIRQStatus  = 0x010 // RO: rawstat & mask
	RegGPUCmd     = 0x020 // WO: 1 = soft reset
	RegShaderPres = 0x030 // RO: bitmask of present shader cores

	RegJS0Head    = 0x100 // u64: job chain head VA
	RegJS0Command = 0x108 // WO: 1 = start chain
	RegJS0Status  = 0x110 // RO: job slot status

	RegAS0Transtab  = 0x200 // u64: GPU address space page table root
	RegAS0Command   = 0x208 // WO: 1 = apply/flush
	RegAS0FaultStat = 0x210 // RO: fault syndrome
	RegAS0FaultAddr = 0x218 // RO: faulting VA
)

// RegWindowSize is the size of the GPU MMIO window.
const RegWindowSize = 0x1000

// GPUIDValue identifies the simulated device (G71, 8 cores, r0p0).
const GPUIDValue = 0x6071_0008

// IRQ rawstat bits.
const (
	IRQJobDone    = 1 << 0
	IRQJobFault   = 1 << 1
	IRQMMUFault   = 1 << 2
	IRQJobStopped = 1 << 3 // chain ended early on a soft-stop command
)

// Job slot status values.
const (
	JSIdle    = 0
	JSActive  = 1
	JSDone    = 2
	JSFaulted = 3
	JSStopped = 4 // soft-stopped before the chain completed
)

// JS0_COMMAND values.
const (
	JSCmdStart    = 1
	JSCmdSoftStop = 2
)

// ErrStopped is the internal marker for a soft-stopped chain; the Job
// Manager converts it into JSStopped + IRQJobStopped rather than a fault.
var ErrStopped = errors.New("gpu: job chain soft-stopped")

// Config selects the simulated GPU's shape and instrumentation.
type Config struct {
	// ShaderCores is the architectural core count (G71 MP8 = 8), at most
	// MaxShaderCores. A job's workgroups are striped over the cores; each
	// owns a TLB and a guest local-memory slot, and the count is what the
	// guest discovers.
	ShaderCores int
	// HostThreads is the number of host threads that run the cores, each
	// a fixed set of whole cores (§III-B3): 0 or more than ShaderCores
	// means one thread per core. It moves no counter.
	HostThreads int
	// Engine selects the shader execution engine (warp-batched by
	// default; see engine.go). Engines are observationally identical:
	// bit-identical counters and guest memory.
	Engine Engine
}

// MaxShaderCores bounds ShaderCores: RegShaderPres is a 64-bit mask of the
// present cores.
const MaxShaderCores = 64

// DefaultConfig returns the paper's default setup: a G71 MP8, one host
// thread per core.
func DefaultConfig() Config {
	return Config{ShaderCores: 8}
}

// Device is the simulated GPU. Its register file implements mem.Device;
// the Job Manager runs in its own host thread (goroutine), concurrent and
// asynchronous with the CPU, as in the paper's simulator.
type Device struct {
	cfg  Config
	bus  *mem.Bus
	intc *irq.Controller
	line irq.Line

	mu         sync.Mutex // register state
	irqRawstat uint32
	irqMask    uint32
	jsHead     uint64
	jsStatus   uint32
	asTranstab uint64
	asApplied  uint64 // root latched by AS0_COMMAND
	faultStat  uint64
	faultAddr  uint64

	doorbell chan uint64
	done     chan struct{}
	wg       sync.WaitGroup

	// stopReq is the soft-stop latch (JS0_COMMAND = JSCmdSoftStop). The
	// dispatch workers poll it at clause boundaries, so a runaway kernel
	// is interrupted without waiting for the chain to drain.
	stopReq atomic.Bool

	// collectCFG records clause-level control flow with divergence
	// annotations (Fig 6), at the cost of a map update per clause
	// execution. Off until SetCollectCFG; toggled between jobs.
	collectCFG atomic.Bool

	statsMu      sync.Mutex
	gpuStats     stats.GPUStats
	sysStats     stats.SystemStats
	cfgGraph     *stats.CFG
	touchedPages map[uint64]struct{}

	// cores are the ShaderCores architectural cores and threads the host
	// threads that run them, each made by the first job that reaches it
	// (see core and hostThread), and chainWalker is the Job Manager's own
	// walker for descriptor, shader and uniform reads, made by the first
	// chain: a session that never launches pays for none of them. workers
	// joins the threads a job starts, and lids holds the lid rows of
	// workgroups of lidSize threads (the running job's LocalSize), which
	// the job's threads only read.
	cores       []core
	threads     []*hostThread
	chainWalker *mmu.Walker
	workers     sync.WaitGroup
	lids        [][3]soaRow
	lidSize     [3]uint32
}

// NewDevice creates a GPU wired to the bus and interrupt line. Call Start
// to launch the Job Manager and Close to stop it.
func NewDevice(cfg Config, bus *mem.Bus, intc *irq.Controller, line irq.Line) *Device {
	if cfg.ShaderCores <= 0 {
		cfg.ShaderCores = 8
	}
	if cfg.HostThreads <= 0 || cfg.HostThreads > cfg.ShaderCores {
		cfg.HostThreads = cfg.ShaderCores
	}
	d := &Device{
		cfg:          cfg,
		bus:          bus,
		intc:         intc,
		line:         line,
		doorbell:     make(chan uint64, 64),
		done:         make(chan struct{}),
		cfgGraph:     stats.NewCFG(),
		touchedPages: make(map[uint64]struct{}),
	}
	return d
}

// SetCollectCFG toggles clause-level CFG collection for subsequent jobs.
func (d *Device) SetCollectCFG(on bool) { d.collectCFG.Store(on) }

// ClearCFG drops the accumulated control-flow graph (between per-run CFG
// collections) without touching the counters.
func (d *Device) ClearCFG() {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	d.cfgGraph = stats.NewCFG()
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Start launches the Job Manager thread.
func (d *Device) Start() {
	d.wg.Add(1)
	go d.jobManager()
}

// Close stops the Job Manager and waits for it to drain, then hands its
// threads' warp slabs and its walkers' TLB arrays to the next device (see
// slabs).
func (d *Device) Close() {
	close(d.done)
	d.wg.Wait()
	for _, th := range d.threads {
		if th != nil && th.ec.warpSlab != nil {
			s := th.ec.warpSlab[:cap(th.ec.warpSlab)]
			th.ec.warpSlab = nil
			slabs.Put(&s)
		}
	}
	for c := range d.cores {
		d.cores[c].walker.Release()
	}
	d.chainWalker.Release()
}

// --- Register interface (mem.Device) --------------------------------------

// ReadReg implements the CPU-visible register file. Every access is a
// CPU→GPU control transaction and is counted for Table III.
//
//simlint:commit -- counts CPU-GPU control-register reads (Table III)
func (d *Device) ReadReg(off uint64, size int) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sysStats.CtrlRegReads++
	switch off {
	case RegGPUID:
		return GPUIDValue, nil
	case RegIRQRawstat:
		return uint64(d.irqRawstat), nil
	case RegIRQMask:
		return uint64(d.irqMask), nil
	case RegIRQStatus:
		return uint64(d.irqRawstat & d.irqMask), nil
	case RegShaderPres:
		return (1 << uint(d.cfg.ShaderCores)) - 1, nil
	case RegJS0Head:
		return d.jsHead, nil
	case RegJS0Status:
		return uint64(d.jsStatus), nil
	case RegAS0Transtab:
		return d.asTranstab, nil
	case RegAS0FaultStat:
		return d.faultStat, nil
	case RegAS0FaultAddr:
		return d.faultAddr, nil
	}
	return 0, nil
}

// WriteReg implements driver-side register writes.
//
//simlint:commit -- counts CPU-GPU control-register writes (Table III)
func (d *Device) WriteReg(off uint64, size int, val uint64) error {
	d.mu.Lock()
	d.sysStats.CtrlRegWrites++
	switch off {
	case RegIRQClear:
		d.irqRawstat &^= uint32(val)
		if d.irqRawstat&d.irqMask == 0 {
			d.intc.Deassert(d.line)
		}
		d.mu.Unlock()
		return nil
	case RegIRQMask:
		d.irqMask = uint32(val)
		d.mu.Unlock()
		return nil
	case RegGPUCmd:
		if val == 1 {
			d.irqRawstat = 0
			d.jsStatus = JSIdle
			d.faultStat = 0
			d.faultAddr = 0
			d.intc.Deassert(d.line)
		}
		d.mu.Unlock()
		return nil
	case RegJS0Head:
		d.jsHead = val
		d.mu.Unlock()
		return nil
	case RegJS0Command:
		switch val {
		case JSCmdStart:
			head := d.jsHead
			d.jsStatus = JSActive
			d.mu.Unlock()
			// Clear the stop latch before the doorbell, not in the Job
			// Manager: a soft-stop written any time after the start
			// command must never be lost to a descheduled JM thread.
			d.stopReq.Store(false)
			select {
			case d.doorbell <- head:
			case <-d.done:
			}
			return nil
		case JSCmdSoftStop:
			// Latch the stop request; the dispatch workers observe it at
			// the next clause boundary. A no-op when the slot is idle
			// (the latch is cleared when the next chain starts).
			d.mu.Unlock()
			d.stopReq.Store(true)
			return nil
		}
		d.mu.Unlock()
		return nil
	case RegAS0Transtab:
		d.asTranstab = val
		d.mu.Unlock()
		return nil
	case RegAS0Command:
		if val == 1 {
			d.asApplied = d.asTranstab
		}
		d.mu.Unlock()
		return nil
	}
	d.mu.Unlock()
	return nil
}

func (d *Device) translationRoot() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.asApplied
}

// raiseIRQ latches rawstat bits and asserts the interrupt line when
// unmasked.
//
//simlint:commit -- counts asserted interrupts
func (d *Device) raiseIRQ(bits uint32) {
	d.mu.Lock()
	d.irqRawstat |= bits
	fire := d.irqRawstat&d.irqMask != 0
	d.mu.Unlock()
	if fire {
		d.statsMu.Lock()
		d.sysStats.IRQsAsserted++
		d.statsMu.Unlock()
		d.intc.Assert(d.line)
	}
}

// --- Job Manager -----------------------------------------------------------

// jobManager is the JM thread: it waits for doorbells, walks job chains,
// dispatches compute jobs and signals completion through the interrupt
// interface (§III-B4).
func (d *Device) jobManager() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case head := <-d.doorbell:
			if err := d.runChain(head); err != nil {
				if errors.Is(err, ErrStopped) {
					d.mu.Lock()
					d.jsStatus = JSStopped
					d.mu.Unlock()
					d.raiseIRQ(IRQJobStopped)
					continue
				}
				d.mu.Lock()
				d.jsStatus = JSFaulted
				d.mu.Unlock()
				d.recordFault(err)
				d.raiseIRQ(IRQJobFault)
				continue
			}
			d.mu.Lock()
			d.jsStatus = JSDone
			d.mu.Unlock()
			d.raiseIRQ(IRQJobDone)
		}
	}
}

func (d *Device) recordFault(err error) {
	var f *mmu.Fault
	d.mu.Lock()
	defer d.mu.Unlock()
	if asFault(err, &f) {
		d.faultStat = uint64(f.Type) + 1
		d.faultAddr = f.VA
		d.irqRawstat |= IRQMMUFault
	} else {
		d.faultStat = 0xFF
	}
}

func asFault(err error, out **mmu.Fault) bool {
	f, ok := err.(*mmu.Fault)
	if ok {
		*out = f
	}
	return ok
}

// runChain walks a job descriptor chain. Its walker's descriptor, shader
// and uniform reads may overlap guest stores from a previous chain's tail
// or a racy guest, and are word-atomic like every walker access.
//
//simlint:commit -- merges per-chain TLB and compute-job counters
func (d *Device) runChain(head uint64) error {
	if d.chainWalker == nil {
		d.chainWalker = d.newWalker()
	}
	walker := d.chainWalker
	walker.Rebind(d.translationRoot())
	defer func() {
		d.statsMu.Lock()
		d.mergeWalker(walker)
		d.statsMu.Unlock()
	}()

	for va := head; va != 0; {
		if d.stopReq.Load() {
			return ErrStopped
		}
		desc, err := d.readDescriptor(walker, va)
		if err != nil {
			return err
		}
		if desc.JobType != JobTypeCompute {
			return fmt.Errorf("gpu: unsupported job type %d", desc.JobType)
		}
		prog, err := d.decodeShader(walker, desc)
		if err != nil {
			return err
		}
		uniforms, err := d.readUniforms(walker, desc, prog)
		if err != nil {
			return err
		}
		if err := d.execJob(desc, prog, uniforms); err != nil {
			return err
		}
		d.statsMu.Lock()
		d.sysStats.ComputeJobs++
		d.statsMu.Unlock()
		va = desc.NextJobVA
	}
	return nil
}

// newWalker makes a walker the device keeps (the Job Manager's, a core's)
// and every job re-binds, with touched pages tracked.
func (d *Device) newWalker() *mmu.Walker {
	w := mmu.NewWalker(d.bus)
	w.ResetTouched()
	return w
}

// mergeWalker folds a walker's TLB counters and touched pages into the
// device totals. The caller holds statsMu.
//
//simlint:commit -- merges a walker's TLB counters
func (d *Device) mergeWalker(w *mmu.Walker) {
	d.sysStats.TLBHits += w.Hits
	d.sysStats.TLBWalks += w.Walks
	w.ForEachTouched(func(p uint64) {
		d.touchedPages[p] = struct{}{}
	})
}

func (d *Device) readDescriptor(walker *mmu.Walker, va uint64) (*JobDescriptor, error) {
	raw, err := readGuest(walker, va, JobDescSize)
	if err != nil {
		return nil, err
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(raw[off:]) }
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(raw[off:]) }
	return &JobDescriptor{
		JobType:       u32(0x00),
		Flags:         u32(0x04),
		GlobalSize:    [3]uint32{u32(0x08), u32(0x0C), u32(0x10)},
		LocalSize:     [3]uint32{u32(0x14), u32(0x18), u32(0x1C)},
		ShaderVA:      u64(0x20),
		ArgsVA:        u64(0x28),
		LocalMemVA:    u64(0x30),
		LocalMemBytes: u32(0x38),
		ShaderSize:    u32(0x3C),
		NextJobVA:     u64(0x40),
	}, nil
}

// EncodeDescriptor serialises a descriptor into its 72-byte wire form; the
// driver writes these bytes into shared memory.
func EncodeDescriptor(desc *JobDescriptor) []byte {
	raw := make([]byte, JobDescSize)
	binary.LittleEndian.PutUint32(raw[0x00:], desc.JobType)
	binary.LittleEndian.PutUint32(raw[0x04:], desc.Flags)
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint32(raw[0x08+4*i:], desc.GlobalSize[i])
		binary.LittleEndian.PutUint32(raw[0x14+4*i:], desc.LocalSize[i])
	}
	binary.LittleEndian.PutUint64(raw[0x20:], desc.ShaderVA)
	binary.LittleEndian.PutUint64(raw[0x28:], desc.ArgsVA)
	binary.LittleEndian.PutUint64(raw[0x30:], desc.LocalMemVA)
	binary.LittleEndian.PutUint32(raw[0x38:], desc.LocalMemBytes)
	binary.LittleEndian.PutUint32(raw[0x3C:], desc.ShaderSize)
	binary.LittleEndian.PutUint64(raw[0x40:], desc.NextJobVA)
	return raw
}

// MaxShaderBytes bounds a shader binary, as a device limit does on
// hardware: the Job Manager copies the whole binary out of guest memory
// before decoding it, so the bound is what keeps a descriptor's ShaderSize
// from sizing host memory. The largest binary clc emits for any registry,
// SLAM or example kernel at any compiler version is 2 144 bytes (an SGEMM
// ladder kernel at 5.6).
const MaxShaderBytes = 256 << 10

// ShaderSizeError reports a shader binary above MaxShaderBytes.
type ShaderSizeError struct{ Size uint64 }

func (e *ShaderSizeError) Error() string {
	return fmt.Sprintf("gpu: shader binary of %d bytes exceeds the %d-byte limit", e.Size, MaxShaderBytes)
}

// decodeShader reads the shader binary from guest memory and decodes it
// through the process-wide program cache (§III-B3).
func (d *Device) decodeShader(walker *mmu.Walker, desc *JobDescriptor) (*Program, error) {
	if desc.ShaderSize > MaxShaderBytes {
		return nil, &ShaderSizeError{Size: uint64(desc.ShaderSize)}
	}
	raw, err := readGuest(walker, desc.ShaderVA, int(desc.ShaderSize))
	if err != nil {
		return nil, err
	}
	return programs.get(raw, d.cfg.Engine)
}

func (d *Device) readUniforms(walker *mmu.Walker, desc *JobDescriptor, prog *Program) ([]uint64, error) {
	if prog.Uniforms == 0 {
		return nil, nil
	}
	raw, err := readGuest(walker, desc.ArgsVA, 8*prog.Uniforms)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, prog.Uniforms)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return out, nil
}

func hashBytes(b []byte) uint64 {
	// FNV-1a, inlined to avoid an allocation per job on the hot path.
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// --- Statistics access ------------------------------------------------------

// Stats returns a snapshot of the accumulated program-execution and
// system statistics.
//
//simlint:commit -- folds the page-tracker total into the snapshot
func (d *Device) Stats() (stats.GPUStats, stats.SystemStats) {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	sys := d.sysStats
	sys.PagesAccessed = uint64(len(d.touchedPages))
	return d.gpuStats, sys
}

// CFGGraph returns the accumulated control-flow graph (empty unless
// SetCollectCFG turned collection on).
func (d *Device) CFGGraph() *stats.CFG {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	g := stats.NewCFG()
	g.Merge(d.cfgGraph)
	return g
}

// NoteKernelLaunch lets the runtime record kernel enqueues (a runtime-
// level statistic surfaced alongside hardware counters in Fig 14).
//
//simlint:commit -- counts runtime kernel enqueues (Fig 14)
func (d *Device) NoteKernelLaunch() {
	d.statsMu.Lock()
	d.sysStats.KernelLaunch++
	d.statsMu.Unlock()
}
