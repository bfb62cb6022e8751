package driver_test

import (
	"bytes"
	"context"
	"testing"

	"mobilesim/internal/driver"
	"mobilesim/internal/gpu"
	"mobilesim/internal/platform"
)

var bg = context.Background()

func open(t *testing.T) (*platform.Platform, *driver.Driver) {
	t.Helper()
	p, err := platform.New(platform.Config{RAMSize: 128 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	d, err := driver.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, d
}

func TestOpenInitialisesGPU(t *testing.T) {
	p, d := open(t)
	// gpu_init ran on the guest: AS0 programmed, IRQs unmasked — visible
	// as control-register writes.
	_, sys := p.GPU.Stats()
	if sys.CtrlRegWrites < 4 {
		t.Errorf("gpu_init produced %d register writes", sys.CtrlRegWrites)
	}
	if d.AS.Root() == 0 {
		t.Error("no GPU address space")
	}
	if d.CPUTime == 0 {
		t.Error("driver CPU time not accounted")
	}
}

func TestAllocAndCopyRoundTrip(t *testing.T) {
	_, d := open(t)
	va, err := d.AllocGPU(10_000)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := d.CopyToDevice(bg, va, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.CopyFromDevice(bg, va, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("copy round trip corrupted data")
	}
	// The pages are mapped in the GPU address space.
	if _, _, ok := d.AS.Lookup(va); !ok {
		t.Error("allocation not mapped for the GPU")
	}
}

func TestBadAllocRejected(t *testing.T) {
	_, d := open(t)
	if _, err := d.AllocGPU(0); err == nil {
		t.Error("zero-size alloc accepted")
	}
	if _, err := d.AllocGPU(-4); err == nil {
		t.Error("negative alloc accepted")
	}
}

func TestSubmitAndWaitFaultPath(t *testing.T) {
	_, d := open(t)
	// Submitting a descriptor at an unmapped address must fault cleanly.
	if err := d.SubmitAndWait(bg, 0xdead_0000); err == nil {
		t.Error("unmapped job chain should fault")
	}
	// The device recovers: a valid (empty) chain head of 0 is a no-op...
	// submit a real minimal job instead.
	va, err := d.AllocGPU(4096)
	if err != nil {
		t.Fatal(err)
	}
	prog := &gpu.Program{
		Clauses: []gpu.Clause{{Instrs: []gpu.Instr{{Op: gpu.OpRET}}}},
	}
	bin, err := gpu.Serialize(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CopyToDevice(bg, va, bin); err != nil {
		t.Fatal(err)
	}
	descVA, err := d.AllocGPU(gpu.JobDescSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteDescriptor(bg, descVA, &gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: [3]uint32{16, 1, 1},
		LocalSize:  [3]uint32{16, 1, 1},
		ShaderVA:   va,
		ShaderSize: uint32(len(bin)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.SubmitAndWait(bg, descVA); err != nil {
		t.Fatalf("minimal job failed: %v", err)
	}
	if d.JobsSubmitted != 2 || d.IRQsHandled != 2 {
		t.Errorf("submitted=%d irqs=%d, want 2/2", d.JobsSubmitted, d.IRQsHandled)
	}
}
