package cpu_test

import (
	"fmt"
	"testing"

	"mobilesim/internal/asm"
	"mobilesim/internal/cpu"
	"mobilesim/internal/platform"
)

// The CPU layer's micro-benchmarks run the platform's real firmware
// routines — the guest code the driver executes — through CallRoutine, the
// way driver.call does.

func firmwarePlatform(tb testing.TB) (*platform.Platform, *cpu.Core) {
	tb.Helper()
	p, err := platform.New(platform.Config{RAMSize: platform.MinRAMSize})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(p.Close)
	return p, p.CPU
}

// firmwareProgram returns the platform's assembled firmware image.
func firmwareProgram(tb testing.TB) *asm.Program {
	p, _ := firmwarePlatform(tb)
	return p.Firmware
}

// BenchmarkDBTMemcpy is the driver's dominant guest loop: memcpy's
// mc_loop8, 7 instructions per 8 bytes, one block that re-enters itself.
// 64 KiB fits in the host's caches; 1 MiB is the size of a large buffer
// the driver stages and does not. Steady state allocates nothing.
func BenchmarkDBTMemcpy(b *testing.B) {
	for _, n := range []uint64{64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			p, c := firmwarePlatform(b)
			src, err := p.Alloc.AllocPages(int(2 * n / 4096))
			if err != nil {
				b.Fatal(err)
			}
			memcpy := p.Firmware.MustEntry("memcpy")
			call := func() {
				if _, err := c.CallRoutine(memcpy, src+n, src, n); err != nil {
					b.Fatal(err)
				}
			}
			call() // translate
			start := c.Instret
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.Instret-start), "ns/guest-instr")
		})
	}
}

// BenchmarkDBTFirstCall is what a fresh platform pays for its first guest
// call, a short memcpy: translating the routine's blocks and allocating the
// code page that indexes them, as every cold or forked session does once
// per routine it runs. Building and closing the platform is outside the
// timer and outside B/op.
func BenchmarkDBTFirstCall(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := platform.New(platform.Config{RAMSize: platform.MinRAMSize})
		if err != nil {
			b.Fatal(err)
		}
		buf, err := p.Alloc.AllocPages(1)
		if err != nil {
			b.Fatal(err)
		}
		memcpy := p.Firmware.MustEntry("memcpy")
		b.StartTimer()
		if _, err := p.CPU.CallRoutine(memcpy, buf+64, buf, 61); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		p.Close()
		b.StartTimer()
	}
}

// BenchmarkDBTCallOverhead is the cost of entering and leaving guest code:
// one store32 round trip (two instructions), the shape of every register
// write the driver makes.
func BenchmarkDBTCallOverhead(b *testing.B) {
	p, c := firmwarePlatform(b)
	addr, err := p.Alloc.AllocPages(1)
	if err != nil {
		b.Fatal(err)
	}
	store32 := p.Firmware.MustEntry("store32")
	if _, err := c.CallRoutine(store32, addr, 0); err != nil { // translate
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CallRoutine(store32, addr, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
