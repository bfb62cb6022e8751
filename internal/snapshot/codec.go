package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"mobilesim/internal/cl"
	"mobilesim/internal/driver"
	"mobilesim/internal/gpu"
	"mobilesim/internal/mem"
	"mobilesim/internal/platform"
)

// Wire format v3. Little-endian throughout; strings and byte blobs are
// u64-length-prefixed; maps are emitted in sorted key order so encoding
// is a pure function of the state.
const (
	magic   = "MSIMSNAP"
	version = uint32(3)

	// maxBlob caps length prefixes while decoding. 16 GiB comfortably
	// exceeds any supported guest RAM.
	maxBlob = 16 << 30

	// blobChunk is the most a decoder allocates on the strength of a
	// length prefix alone. A prefix is a claim, not evidence: beyond the
	// first chunk a buffer grows only as bytes actually arrive, so a
	// hostile stream costs a small multiple of its own size. A source that
	// can say how much it holds (decoder.src) is evidence, and skips the
	// growing.
	blobChunk = 512 << 10
)

type encoder struct {
	w   *bufio.Writer
	err error
}

func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.raw(b[:])
}

func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.raw(b[:])
}

func (e *encoder) raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.raw(b)
}

func (e *encoder) str(s string) { e.bytes([]byte(s)) }

func (e *encoder) u64s(v []uint64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(x)
	}
}

// fixed serialises a struct composed purely of fixed-size fields
// (uint64s, bools, fixed arrays) via encoding/binary — cpu.State and the
// stats records qualify.
func (e *encoder) fixed(v any) {
	if e.err == nil {
		e.err = binary.Write(e.w, binary.LittleEndian, v)
	}
}

type decoder struct {
	r *bufio.Reader
	// src is the reader under r when it reports its unread length — the
	// in-memory readers do (bytes.Reader, bytes.Buffer, strings.Reader) —
	// and nil otherwise.
	src interface{ Len() int }
	err error
}

// u32 and u64 return 0 once the stream has failed — never the partial
// bytes of a short read — so a count or length read past a truncation
// cannot size an allocation.
func (d *decoder) u32() uint32 {
	var b [4]byte
	d.raw(b[:])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (d *decoder) u64() uint64 {
	var b [8]byte
	d.raw(b[:])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (d *decoder) raw(b []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
	}
}

func (d *decoder) bytes() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > maxBlob {
		d.err = fmt.Errorf("snapshot: blob length %d exceeds limit", n)
		return nil
	}
	first := min(n, blobChunk)
	if d.src != nil && n <= uint64(d.src.Len()+d.r.Buffered()) {
		first = n // the source holds that much: one exact allocation
	}
	b := make([]byte, first)
	for got := 0; ; {
		d.raw(b[got:])
		if d.err != nil {
			return nil
		}
		if got = len(b); uint64(got) == n {
			return b
		}
		grown := make([]byte, min(n, 4*uint64(got)))
		copy(grown, b)
		b = grown
	}
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) u64s() []uint64 {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > maxBlob/8 {
		d.err = fmt.Errorf("snapshot: list length %d exceeds limit", n)
		return nil
	}
	v := make([]uint64, 0, min(n, blobChunk/8))
	for i := uint64(0); i < n && d.err == nil; i++ {
		v = append(v, d.u64())
	}
	return v
}

func (d *decoder) fixed(v any) {
	if d.err == nil {
		d.err = binary.Read(d.r, binary.LittleEndian, v)
	}
}

// Encode writes the state in wire format v3. Encoding the same state
// twice produces identical bytes.
func Encode(w io.Writer, st *State) error {
	e := &encoder{w: bufio.NewWriter(w)}
	e.raw([]byte(magic))
	e.u32(version)

	// Session configuration.
	e.u64(st.Config.RAMSize)
	e.u64(uint64(st.Config.ShaderCores))
	e.u64(uint64(st.Config.HostThreads))
	e.str(st.Config.CompilerVersion)

	// Guest RAM image.
	p := st.Platform
	e.u64(p.RAM.Base())
	e.u64(p.RAM.Size())
	e.bytes(p.RAM.Data())

	// Page allocator.
	e.u64(p.Alloc.Base)
	e.u64(p.Alloc.Limit)
	e.u64(p.Alloc.Next)

	// CPU core (fixed-size architectural state).
	e.fixed(&p.CPU)

	// Interrupt controller.
	e.fixed(&p.IRQ)

	// GPU registers and statistics.
	e.u32(p.GPU.IRQRawstat)
	e.u32(p.GPU.IRQMask)
	e.u64(p.GPU.JSHead)
	e.u32(p.GPU.JSStatus)
	e.u64(p.GPU.ASTranstab)
	e.u64(p.GPU.ASApplied)
	e.u64(p.GPU.FaultStat)
	e.u64(p.GPU.FaultAddr)
	e.fixed(&p.GPU.GPUStats)
	e.fixed(&p.GPU.SysStats)
	e.u64s(p.GPU.TouchedPages)

	// Firmware program (code + sorted symbol table).
	e.u64(p.FirmwareBase)
	e.bytes(p.FirmwareCode)
	syms := make([]string, 0, len(p.FirmwareSyms))
	for name := range p.FirmwareSyms {
		syms = append(syms, name)
	}
	sort.Strings(syms)
	e.u64(uint64(len(syms)))
	for _, name := range syms {
		e.str(name)
		e.u64(p.FirmwareSyms[name])
	}

	// Runtime + driver.
	e.str(st.CL.Version)
	e.u64(st.CL.LocalVA)
	e.u64(uint64(st.CL.LocalBytes))
	e.u64(st.CL.Drv.Staging)
	e.u64(st.CL.Drv.ASRoot)
	e.u64(uint64(st.CL.Drv.ASPages))
	e.u64(st.CL.Drv.JobsSubmitted)
	e.u64(st.CL.Drv.IRQsHandled)

	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// Decode reads a state in wire format v3.
func Decode(r io.Reader) (*State, error) {
	d := &decoder{r: bufio.NewReader(r)}
	d.src, _ = r.(interface{ Len() int })
	var m [len(magic)]byte
	d.raw(m[:])
	if d.err == nil && string(m[:]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", m)
	}
	if v := d.u32(); d.err == nil && v != version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (have %d)", v, version)
	}

	st := &State{Platform: &platform.State{}}
	st.Config.RAMSize = d.u64()
	st.Config.ShaderCores = int(d.u64())
	st.Config.HostThreads = int(d.u64())
	st.Config.CompilerVersion = d.str()

	p := st.Platform
	imgBase := d.u64()
	imgSize := d.u64()
	imgData := d.bytes()
	if d.err == nil {
		img, err := mem.NewImage(imgBase, imgSize, imgData)
		if err != nil {
			return nil, err
		}
		p.RAM = img
	}

	p.Alloc = mem.AllocState{Base: d.u64(), Limit: d.u64(), Next: d.u64()}

	d.fixed(&p.CPU)
	d.fixed(&p.IRQ)

	p.GPU = gpu.State{
		IRQRawstat: d.u32(), IRQMask: d.u32(),
		JSHead: d.u64(), JSStatus: d.u32(),
		ASTranstab: d.u64(), ASApplied: d.u64(),
		FaultStat: d.u64(), FaultAddr: d.u64(),
	}
	d.fixed(&p.GPU.GPUStats)
	d.fixed(&p.GPU.SysStats)
	p.GPU.TouchedPages = d.u64s()

	p.FirmwareBase = d.u64()
	p.FirmwareCode = d.bytes()
	nSyms := d.u64()
	if d.err == nil && nSyms > 1<<20 {
		return nil, fmt.Errorf("snapshot: implausible symbol count %d", nSyms)
	}
	p.FirmwareSyms = make(map[string]uint64)
	for i := uint64(0); i < nSyms && d.err == nil; i++ {
		name := d.str()
		p.FirmwareSyms[name] = d.u64()
	}

	st.CL = cl.State{
		Version:    d.str(),
		LocalVA:    d.u64(),
		LocalBytes: uint32(d.u64()),
		Drv: driver.State{
			Staging:       d.u64(),
			ASRoot:        d.u64(),
			ASPages:       int(d.u64()),
			JobsSubmitted: d.u64(),
			IRQsHandled:   d.u64(),
		},
	}
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", d.err)
	}
	return st, nil
}
