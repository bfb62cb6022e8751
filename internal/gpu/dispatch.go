package gpu

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/stats"
)

// JobDescriptor is the in-memory structure the driver writes and the Job
// Manager parses (§III-B4). All pointers are guest virtual addresses in
// the GPU address space. Layout (little-endian, 72 bytes):
//
//	0x00 u32 jobType (1 = compute)
//	0x04 u32 flags
//	0x08 u32 globalSize[3]
//	0x14 u32 localSize[3]
//	0x20 u64 shaderVA
//	0x28 u64 argsVA
//	0x30 u64 localMemVA (base of ShaderCores slots; 0 = none, local accesses fault)
//	0x38 u32 localMemBytes (per workgroup)
//	0x3C u32 shaderSize
//	0x40 u64 nextJobVA (job chain)
type JobDescriptor struct {
	JobType       uint32
	Flags         uint32
	GlobalSize    [3]uint32
	LocalSize     [3]uint32
	ShaderVA      uint64
	ArgsVA        uint64
	LocalMemVA    uint64
	LocalMemBytes uint32
	ShaderSize    uint32
	NextJobVA     uint64
}

// JobDescSize is the descriptor's size in bytes.
const JobDescSize = 72

// JobTypeCompute is the only job type the compute-focused simulator runs.
const JobTypeCompute = 1

// MaxWorkgroupThreads bounds a workgroup, as a device limit does on
// hardware: a core holds a whole workgroup's warps at once, so the bound is
// what keeps a descriptor's LocalSize from sizing host memory.
const MaxWorkgroupThreads = 1024

// WorkgroupSizeError reports a LocalSize above MaxWorkgroupThreads.
type WorkgroupSizeError struct{ Local [3]uint32 }

func (e *WorkgroupSizeError) Error() string {
	return fmt.Sprintf("gpu: workgroup of %v threads exceeds the %d-thread limit", e.Local, MaxWorkgroupThreads)
}

// Workgroups returns the total number of workgroups in the dispatch, or why
// the descriptor cannot be dispatched.
func (d *JobDescriptor) Workgroups() (uint64, error) {
	n, threads := uint64(1), uint64(1)
	for i := 0; i < 3; i++ {
		if d.LocalSize[i] == 0 || d.GlobalSize[i] == 0 {
			return 0, fmt.Errorf("gpu: zero dimension in job (global=%v local=%v)", d.GlobalSize, d.LocalSize)
		}
		if d.GlobalSize[i]%d.LocalSize[i] != 0 {
			return 0, fmt.Errorf("gpu: global size %d not a multiple of local size %d", d.GlobalSize[i], d.LocalSize[i])
		}
		// The running product stays below 2^42: checked factor by factor.
		if threads *= uint64(d.LocalSize[i]); threads > MaxWorkgroupThreads {
			return 0, &WorkgroupSizeError{Local: d.LocalSize}
		}
		var over uint64
		if over, n = bits.Mul64(n, uint64(d.GlobalSize[i]/d.LocalSize[i])); over != 0 {
			return 0, fmt.Errorf("gpu: workgroup count of job (global=%v local=%v) overflows 64 bits", d.GlobalSize, d.LocalSize)
		}
	}
	return n, nil
}

// core is one of the ShaderCores architectural cores (§III-B3), made the
// first time a job reaches it and kept for the life of the device: a TLB
// and the job's guest local slot. err is how its share of the running job
// ended.
type core struct {
	walker *mmu.Walker
	local  guestLocal
	err    error
}

// bind readies core c for a job exactly as a newly made core would be: a
// flushed TLB with zeroed counters (a job's TLBWalks count from cold, and
// page tables rewritten since the last job are honoured) and the slot
// LocalMemVA + c·LocalMemBytes the driver allocated for it. A job without
// a local allocation turns a local access into a job fault.
func (k *core) bind(d *Device, c int, desc *JobDescriptor, root uint64) {
	if k.walker == nil {
		k.walker = d.newWalker()
	}
	k.walker.Rebind(root)
	k.err, k.local = nil, guestLocal{walker: k.walker}
	if n := uint64(desc.LocalMemBytes); desc.LocalMemVA != 0 {
		k.local.base, k.local.size = desc.LocalMemVA+uint64(c)*n, n
	}
}

// hostThread is one host thread's execution context, made the first time a
// job needs it and kept for the life of the device: the context with its
// uniform table, tallies and warp slab, and a stats shard. A job re-binds
// it (bind), so a job on a warm device allocates nothing here. Jobs on a
// device are serial and execJob joins its threads: a context has one user
// at a time.
type hostThread struct {
	ec execContext
	gs stats.GPUStats
}

// bind readies the thread for a job: a zeroed stats shard, a refilled
// uniform table and the job's lid rows. The caller has built d.lids for
// the job; runCores sets the walker and local store of each core it runs.
//
//simlint:commit -- zeroes the thread's stats shard and commits the register-usage report
func (th *hostThread) bind(d *Device, desc *JobDescriptor, prog *Program, uniforms []uint64) {
	th.gs = stats.GPUStats{RegistersUsed: uint64(prog.RegCount)}
	e := &th.ec
	e.eng, e.gs, e.stop = d.cfg.Engine, &th.gs, &d.stopReq
	e.prog, e.uniforms = prog, uniforms
	e.gsz, e.lsz, e.lids = desc.GlobalSize, desc.LocalSize, d.lids
	e.cfg = nil
	if d.collectCFG.Load() {
		e.cfg = stats.NewCFG()
	}
	e.bindTape()
}

// execJob dispatches a decoded job. Its workgroups are striped over
// min(ShaderCores, workgroups) architectural cores — core c runs
// workgroups c, c+n, c+2n, … — and host thread t runs cores t, t+T, …,
// each whole and in index order. Thread 0 is the Job Manager's own
// goroutine, the others are started for the job.
//
// With per-core TLBs, the assignment of workgroups to cores decides which
// core takes each page's table walk, so a work-stealing counter would make
// the Table III TLB statistics a function of host scheduling. A core's TLB
// sees only its own accesses, whichever thread runs it, so every counter
// and every guest byte of a data-race-free kernel is a function of the job
// and ShaderCores, not of HostThreads.
//
//simlint:commit -- merges the threads' stats shards at job completion
func (d *Device) execJob(desc *JobDescriptor, prog *Program, uniforms []uint64) error {
	totalWG, err := desc.Workgroups()
	if err != nil {
		return err
	}
	root := d.translationRoot()

	nCores := int(min(uint64(d.cfg.ShaderCores), totalWG))
	nThreads := min(d.cfg.HostThreads, nCores)
	if d.cores == nil {
		d.cores = make([]core, d.cfg.ShaderCores)
		d.threads = make([]*hostThread, d.cfg.HostThreads)
	}
	if d.lidSize != desc.LocalSize {
		d.lids, d.lidSize = lidRows(d.lids, desc.LocalSize), desc.LocalSize
	}
	cores, threads := d.cores[:nCores], d.threads[:nThreads]
	for c := range cores {
		cores[c].bind(d, c, desc, root)
	}
	for t, th := range threads {
		if th == nil {
			th = &hostThread{}
			if s, ok := slabs.Get().(*[]wgWarp); ok {
				th.ec.warpSlab = *s
			}
			threads[t] = th
		}
		th.bind(d, desc, prog, uniforms)
	}
	for t := 1; t < nThreads; t++ {
		d.workers.Add(1)
		go d.runCoresAndDone(t, nThreads, nCores, totalWG)
	}
	d.runCores(0, nThreads, nCores, totalWG)
	d.workers.Wait()

	// Totalling at job completion requires no further synchronisation
	// (§IV-A): each shard was written by exactly one goroutine.
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	for _, th := range threads {
		d.gpuStats.Merge(&th.gs)
		if th.ec.cfg != nil {
			d.cfgGraph.Merge(th.ec.cfg)
		}
	}
	// A genuine fault wins over the soft-stop marker so diagnostics are
	// not masked when a stop races a faulting workgroup.
	var fault, stopped error
	for c := range cores {
		k := &cores[c]
		d.mergeWalker(k.walker)
		switch {
		case k.err == nil:
		case errors.Is(k.err, ErrStopped):
			stopped = ErrStopped
		case fault == nil:
			fault = k.err
		}
	}
	if fault != nil {
		return fault
	}
	return stopped
}

// runCores runs host thread t's cores t, t+nThreads, … below nCores, each
// to the end of its share of the job's total workgroups, whatever the cores
// before it did. Moving to the next core swaps only the context's walker
// and local store.
func (d *Device) runCores(t, nThreads, nCores int, total uint64) {
	e := &d.threads[t].ec
	for c := t; c < nCores; c += nThreads {
		k := &d.cores[c]
		e.walker, e.local = k.walker, &k.local
		k.err = e.runWorkgroups(uint64(c), uint64(nCores), total)
	}
}

// runCoresAndDone is runCores on a goroutine execJob joins.
func (d *Device) runCoresAndDone(t, nThreads, nCores int, total uint64) {
	defer d.workers.Done()
	d.runCores(t, nThreads, nCores, total)
}

// runWorkgroups runs one core's share of a job: workgroups first,
// first+stride, … below total. A descriptor can ask for 2^32 workgroups
// and more, so the index is decomposed in 64 bits; only a soft-stop ends
// such a job. However the core's share ends, what its tapes tallied
// reaches the thread's stats shard before execJob merges it.
func (e *execContext) runWorkgroups(first, stride, total uint64) error {
	defer e.commitTallies()
	wgX, wgY := uint64(e.gsz[0]/e.lsz[0]), uint64(e.gsz[1]/e.lsz[1])
	// Job-entry fence: guest-visible state written before the doorbell
	// (descriptors, inputs) is ordered before any shader access. The
	// matching job-exit fence below orders every store of this core
	// before job completion is signalled. Workgroup boundaries
	// deliberately have no global fence — as on hardware, cross-core
	// visibility between workgroups of one job is only word-granular,
	// clause-ordered (see DESIGN.md §7).
	mem.Fence()
	for i := first; i < total; i += stride {
		if e.stop.Load() {
			return ErrStopped
		}
		e.wgid = [3]uint32{uint32(i % wgX), uint32(i / wgX % wgY), uint32(i / (wgX * wgY))}
		if err := e.runWorkgroup(); err != nil {
			return err
		}
	}
	mem.Fence()
	return nil
}

// wgWarp couples a warp with its scheduler state.
type wgWarp struct {
	w         warp
	done      bool
	atBarrier bool
}

// slabs recycles warp slabs across devices: Device.Close puts its threads'
// slabs here and a device's new thread takes one, so a session's first job
// does not first-touch a fresh slab (≈ 150 KiB for a 256-thread workgroup).
// A slab holds register rows and divergence frames only — nothing that
// points into a session — and warpsFor resets every row a program can name
// before a workgroup runs, so what a previous session left in it cannot be
// read (TestRecycledSlabLeaksNoRegisters). TLB arrays are recycled the same
// way, flushed, by mmu.Walker.Release.
var slabs sync.Pool // of *[]wgWarp

// lidRows builds a job's lid.x/y/z rows in rows' storage, one triple per
// warp of a workgroup: they are the same for every workgroup and every core
// of the job, and a thread's gid is its workgroup's origin plus its lid.
func lidRows(rows [][3]soaRow, lsz [3]uint32) [][3]soaRow {
	total := int(lsz[0]) * int(lsz[1]) * int(lsz[2])
	if n := (total + WarpSize - 1) / WarpSize; cap(rows) < n {
		rows = make([][3]soaRow, n)
	} else {
		rows = rows[:n]
		clear(rows)
	}
	t := 0 // thread t is (x, y, z), x counting fastest
	for z := uint64(0); z < uint64(lsz[2]); z++ {
		for y := uint64(0); y < uint64(lsz[1]); y++ {
			for x := uint64(0); x < uint64(lsz[0]); x++ {
				w := &rows[t/WarpSize]
				w[0][t%WarpSize], w[1][t%WarpSize], w[2][t%WarpSize] = x, y, z
				t++
			}
		}
	}
	return rows
}

// warpsFor returns the context's warp slab sized to n warps and reset for
// a new workgroup, growing it when it is too small. A kernel observes
// zero-initialised registers, so the reset clears the scheduler words and
// every register row the program can name — r0 up to the highest register
// any decoded instruction references (Program.regRows) and the clause
// temporaries. The other rows need none: the lane-id rows the program
// names are rewritten per workgroup and the executor's scratch rows are
// written before they are read. The divergence stack keeps its backing
// array.
func (e *execContext) warpsFor(n int) []wgWarp {
	if cap(e.warpSlab) < n {
		e.warpSlab = make([]wgWarp, n)
		return e.warpSlab
	}
	s := e.warpSlab[:n]
	e.warpSlab = s
	for i := range s {
		ww := &s[i]
		ww.done, ww.atBarrier = false, false
		w := &ww.w
		w.active, w.exited, w.pc, w.steps, w.stack = 0, 0, 0, 0, w.stack[:0]
		clear(w.rows[:e.prog.regRows])
		clear(w.rows[NumGRF : NumGRF+NumTemp])
	}
	return s
}

// runWorkgroup executes one workgroup: all its threads grouped into
// quads, scheduled round-robin with barrier rendezvous. The execContext's
// wgid/gsz/lsz and lid rows must be set.
//
//simlint:commit -- counts dispatched workgroups, threads and warps
func (e *execContext) runWorkgroup() error {
	if e.tape != nil {
		for d, id := range e.wgid {
			e.uvals[uvWGID+d] = uint64(id)
		}
	}
	lsz := e.lsz
	total := int(lsz[0]) * int(lsz[1]) * int(lsz[2])
	nWarps := len(e.lids)

	ids := e.prog.idRows // the lane-id rows the program names
	warps := e.warpsFor(nWarps)
	for wi := range warps {
		w := &warps[wi].w
		w.lanes = min(WarpSize, total-wi*WarpSize)
		w.active = fullMask(w.lanes)
		for d, lid := range e.lids[wi] {
			if ids&(1<<(3+d)) != 0 {
				w.rows[rowLID+d] = lid
			}
			if ids&(1<<d) != 0 {
				origin := e.wgid[d] * lsz[d]
				for l := range lid {
					w.rows[rowGID+d][l] = uint64(origin + uint32(lid[l]))
				}
			}
		}
	}

	e.gs.Workgroups++
	e.gs.Threads += uint64(total)
	e.gs.Warps += uint64(nWarps)

	remaining := nWarps
	for remaining > 0 {
		atBarrier := 0
		for i := range warps {
			ww := &warps[i]
			if ww.done {
				continue
			}
			if ww.atBarrier {
				atBarrier++
				continue
			}
			st, err := e.runWarp(&ww.w)
			if err != nil {
				return err
			}
			switch st {
			case warpDone:
				ww.done = true
				remaining--
			case warpAtBarrier:
				ww.atBarrier = true
				atBarrier++
			}
		}
		if remaining > 0 && atBarrier == remaining {
			// Barrier generation complete. Guest barriers are full fences;
			// one Fence at the rendezvous covers every warp's stores.
			mem.Fence()
			for i := range warps {
				if !warps[i].done {
					warps[i].atBarrier = false
				}
			}
		}
	}
	return nil
}

// readGuest copies n bytes from the GPU address space, page by page (the
// underlying physical pages need not be contiguous).
func readGuest(walker *mmu.Walker, va uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := walker.ReadBytes(va, out); err != nil {
		return nil, err
	}
	return out, nil
}
