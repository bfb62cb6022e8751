package snapshot

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"mobilesim/internal/cl"
	"mobilesim/internal/gpu"
	"mobilesim/internal/mem"
	"mobilesim/internal/platform"
	"mobilesim/internal/workloads"
)

// bootRAM is the guest memory of the test platforms. The golden counters
// below do not depend on it.
const bootRAM = 64 << 20

// bootState cold-boots a platform and runtime and captures them.
func bootState(t *testing.T) *State {
	t.Helper()
	p, err := platform.New(platform.Config{RAMSize: bootRAM})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rt, err := cl.NewContext(p, "")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Capture(Config{RAMSize: bootRAM}, rt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func encode(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallEncoding is a well-formed stream of a few KiB — a booted state cut
// down to one page of RAM image and one disk sector, with every
// variable-length section non-empty — small enough to attack at every
// byte offset.
func smallEncoding(t *testing.T) []byte {
	t.Helper()
	st := bootState(t)
	pst := *st.Platform
	img, err := mem.NewImage(pst.RAM.Base(), pst.RAM.Size(), pst.RAM.Data()[:mem.PageSize])
	if err != nil {
		t.Fatal(err)
	}
	pst.RAM = img
	pst.Block.Image = pst.Block.Image[:512]
	pst.UART.RX = []byte("rx")
	pst.Alloc.Free = []uint64{pst.Alloc.Base, pst.Alloc.Base + mem.PageSize}
	pst.GPU.TouchedPages = []uint64{1, 2, 3}
	cfg := st.Config
	cfg.CompilerVersion = "6.1"
	enc := encode(t, &State{Config: cfg, Platform: &pst, CL: st.CL})
	if _, err := Decode(bytes.NewReader(enc)); err != nil {
		t.Fatalf("the small stream itself does not decode: %v", err)
	}
	return enc
}

// sources are the two kinds of reader Decode tells apart: one that reports
// its unread length, which earns a blob one exact allocation, and one that
// does not, whose blobs grow as their bytes arrive.
var sources = []struct {
	name string
	open func([]byte) io.Reader
}{
	{"in-memory", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"stream", func(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }},
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

func TestRoundTripIsByteIdentical(t *testing.T) {
	enc := encode(t, bootState(t))
	for _, src := range sources {
		st, err := Decode(src.open(enc))
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if again := encode(t, st); !bytes.Equal(enc, again) {
			t.Errorf("%s: encode → decode → encode changed the bytes (%d → %d)", src.name, len(enc), len(again))
		}
	}
}

// TestTruncatedStreamsFail cuts a stream at every byte — so at every
// section boundary and inside every field — and requires an error, never a
// panic and never a state.
func TestTruncatedStreamsFail(t *testing.T) {
	enc := smallEncoding(t)
	for _, src := range sources {
		for n := 0; n < len(enc); n++ {
			if st, err := Decode(src.open(enc[:n])); err == nil || st != nil {
				t.Fatalf("%s truncated to %d of %d bytes decoded (state %v, err %v)", src.name, n, len(enc), st != nil, err)
			}
		}
	}
}

// TestHostileLengthPrefixAllocationIsBounded pins that a length prefix or
// element count is a claim the decoder does not pay for up front.
func TestHostileLengthPrefixAllocationIsBounded(t *testing.T) {
	const slack = 1 << 20

	// The reported request: magic, version, four u64s and the first length
	// prefix asking for 16 GiB, then nothing.
	enc := smallEncoding(t)
	body := append([]byte(nil), enc[:len(magic)+4+4*8+8]...)
	binary.LittleEndian.PutUint64(body[len(body)-8:], maxBlob)
	var allocs allocMeter
	for _, src := range sources {
		allocs.since()
		if _, err := Decode(src.open(body)); err == nil {
			t.Errorf("%s: a 52-byte body decoded", src.name)
		}
		if got := allocs.since(); got >= slack {
			t.Errorf("%s: a %d-byte body made the decoder allocate %d bytes", src.name, len(body), got)
		}
	}

	// Every prefix and count of the format, found by brute force: each
	// hostile value — the largest every cap admits, per kind of cap — is
	// written over every 8-byte window of a valid stream.
	hostile := []uint64{maxBlob, maxBlob / 8, 1 << 20, 4096}
	body = make([]byte, len(enc))
	for _, src := range sources {
		allocs.since()
		for off := 0; off+8 <= len(enc); off++ {
			for _, v := range hostile {
				copy(body, enc)
				binary.LittleEndian.PutUint64(body[off:], v)
				Decode(src.open(body)) // error or not: only the cost is judged
				if got := allocs.since(); got >= uint64(len(body))+slack {
					t.Fatalf("%s, %#x at offset %d: decoder allocated %d bytes for a %d-byte stream", src.name, v, off, got, len(body))
				}
			}
		}
	}
}

// reservedConfigBytes is the offset of the three reserved bytes that end
// the configuration section of st's encoding.
func reservedConfigBytes(st *State) int {
	return len(magic) + 4 + 4*8 + 8 + len(st.Config.CompilerVersion)
}

// TestOldEngineByteIsIgnored decodes a v1 stream as older writers produced
// it: with the closure JIT selected (the second reserved configuration byte
// set to 1), and with the RAM image captured up to the page allocator's bump
// pointer instead of the highest dirty page (megabytes of zeros after the
// firmware page). It must restore on whatever engine the restoring
// configuration names — the warp default here — and reproduce Reduction's
// row of goldenTable (internal/workloads/goldenstats_test.go), which is
// recorded at four host threads.
func TestOldEngineByteIsIgnored(t *testing.T) {
	st := bootState(t)
	pst := *st.Platform
	padded := make([]byte, pst.Alloc.Next-pst.RAM.Base())
	if copy(padded, pst.RAM.Data()) == len(padded) {
		t.Fatalf("boot image already reaches the allocator's bump pointer %#x", pst.Alloc.Next)
	}
	var err error
	if pst.RAM, err = mem.NewImage(pst.RAM.Base(), pst.RAM.Size(), padded); err != nil {
		t.Fatal(err)
	}
	enc := encode(t, &State{Config: st.Config, Platform: &pst, CL: st.CL})
	engineByte := reservedConfigBytes(st) + 1
	if enc[engineByte] != 0 {
		t.Fatalf("reserved byte at %d is written %d, want 0", engineByte, enc[engineByte])
	}
	enc[engineByte] = 1
	old, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}

	gcfg := gpu.DefaultConfig()
	gcfg.HostThreads = 4
	p, rt, err := Restore(old, platform.Config{GPU: gcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if eng := p.GPU.Config().Engine; eng != gpu.EngineWarp {
		t.Fatalf("restored on the %v engine, want warp", eng)
	}

	spec, err := workloads.ByName("Reduction")
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Make(spec.SmallScale).Run(context.Background(), rt, spec.Name, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("Reduction not verified: %v", res.VerifyErr)
	}
	gs, sys := p.GPU.Stats()
	got := [...]uint64{gs.GlobalLS, gs.MainMemAcc, sys.TLBHits, sys.TLBWalks, sys.PagesAccessed, sys.ComputeJobs, gs.Threads}
	want := [...]uint64{4129, 4129, 21476, 33, 9, 2, 4352}
	if got != want {
		t.Errorf("GlobalLS, MainMemAcc, TLBHits, TLBWalks, Pages, Jobs, Threads = %v, want %v", got, want)
	}
}

// TestOldDecodeCountSlotIsReserved pins the u64 after the GPU's fault
// address: older writers stored the device's decode count there, which
// depends on what the process decoded before, so a post-run stream would
// have differed with process history. It is written 0, and a non-zero value
// from an older writer decodes and re-encodes as 0.
func TestOldDecodeCountSlotIsReserved(t *testing.T) {
	st := bootState(t)
	pst := *st.Platform
	pst.GPU.FaultAddr = 0x0123_4567_89ab_cdef // a marker to find the slot by
	enc := encode(t, &State{Config: st.Config, Platform: &pst, CL: st.CL})
	var marker [8]byte
	binary.LittleEndian.PutUint64(marker[:], pst.GPU.FaultAddr)
	at := bytes.Index(enc, marker[:])
	if at < 0 || bytes.Index(enc[at+1:], marker[:]) >= 0 {
		t.Fatal("the fault-address marker is not unique in the stream")
	}
	slot := at + 8
	if v := binary.LittleEndian.Uint64(enc[slot:]); v != 0 {
		t.Fatalf("reserved slot at %d is written %d, want 0", slot, v)
	}
	old := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(old[slot:], 5)
	dec, err := Decode(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if again := encode(t, dec); !bytes.Equal(again, enc) {
		t.Errorf("a stream with a decode count in the reserved slot re-encodes differently")
	}
}

// TestRetiredConfigSlotsAreReserved pins the three bytes that end the
// configuration section. Older writers stored CFG collection, the closure
// JIT and "decode cache off" there; CFG collection is now a run option, the
// engine host wiring and the decode cache always on, so each byte is
// written 0 and ignored on read. A stream with all three set to 1 decodes,
// re-encodes to the bytes a current writer produces, and forks a platform
// that runs a workload with CFG collection off.
func TestRetiredConfigSlotsAreReserved(t *testing.T) {
	st := bootState(t)
	enc := encode(t, st)
	at := reservedConfigBytes(st)
	if got := enc[at : at+3]; !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Fatalf("reserved configuration bytes at %d are written %v, want zeros", at, got)
	}
	old := append([]byte(nil), enc...)
	copy(old[at:], []byte{1, 1, 1})
	dec, err := Decode(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if again := encode(t, dec); !bytes.Equal(again, enc) {
		t.Fatal("a stream with the reserved configuration bytes set re-encodes differently")
	}

	p, rt, err := Restore(dec, platform.Config{GPU: gpu.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	spec, err := workloads.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Make(spec.SmallScale).Run(context.Background(), rt, spec.Name, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("BFS not verified on the fork: %v", res.VerifyErr)
	}
	if g := p.GPU.CFGGraph().Render(); g != "" {
		t.Errorf("the fork collected a CFG from a reserved byte:\n%s", g)
	}
}
