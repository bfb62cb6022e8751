package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"mobilesim/internal/cl"
	"mobilesim/internal/mem"
	"mobilesim/internal/platform"
)

// bootRAM is the guest memory of the test platforms.
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
// down to one page of RAM image, with every variable-length section
// non-empty — small enough to attack at every byte offset.
func smallEncoding(t *testing.T) []byte {
	t.Helper()
	st := bootState(t)
	pst := *st.Platform
	img, err := mem.NewImage(pst.RAM.Base(), pst.RAM.Size(), pst.RAM.Data()[:mem.PageSize])
	if err != nil {
		t.Fatal(err)
	}
	pst.RAM = img
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

	// The reported request: magic, version, the configuration's three u64s
	// and the first length prefix asking for 16 GiB, then nothing.
	enc := smallEncoding(t)
	body := append([]byte(nil), enc[:len(magic)+4+3*8+8]...)
	binary.LittleEndian.PutUint64(body[len(body)-8:], maxBlob)
	var allocs allocMeter
	for _, src := range sources {
		allocs.since()
		if _, err := Decode(src.open(body)); err == nil {
			t.Errorf("%s: a %d-byte body decoded", src.name, len(body))
		}
		if got := allocs.since(); got >= slack {
			t.Errorf("%s: a %d-byte body made the decoder allocate %d bytes", src.name, len(body), got)
		}
	}

	// Every prefix and count of the format, found by brute force: each
	// hostile value — the largest every cap admits, per kind of cap — is
	// written over every 8-byte window of a valid stream.
	hostile := []uint64{maxBlob, maxBlob / 8, 1 << 20}
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

// TestV1HeaderIsRefused: version 2 dropped the CPU core count, the
// peripherals and v1's reserved slots, version 3 the page allocator's free
// list, and no reader of an older version remains, so a stream with a v1
// or v2 header fails with the version error before anything else is read.
func TestV1HeaderIsRefused(t *testing.T) {
	enc := encode(t, bootState(t))
	if v := binary.LittleEndian.Uint32(enc[len(magic):]); v != version {
		t.Fatalf("stream header says version %d, want %d", v, version)
	}
	for old := uint32(1); old < version; old++ {
		binary.LittleEndian.PutUint32(enc[len(magic):], old)
		for _, src := range sources {
			st, err := Decode(src.open(enc))
			if err == nil || st != nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported format version %d", old)) {
				t.Errorf("%s: a v%d header decoded to state %v, err %v", src.name, old, st != nil, err)
			}
		}
	}
}
