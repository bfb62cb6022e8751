// Quickstart: boot the full simulated platform, JIT-compile an OpenCL
// kernel through the vendor-style toolchain, run it on the simulated GPU
// via the driver stack, and read the results and statistics back — all
// through the public mobilesim facade.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"mobilesim"
)

const kernelSrc = `
kernel void axpb(global float* x, global float* y, float a, float b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + b;
    }
}
`

func main() {
	// 1. Boot a session: CPU, Bifrost-style GPU, interrupt controller, memory,
	//    kernel driver (GPU soft reset, address-space setup, IRQ
	//    unmasking — all through guest code and memory-mapped registers)
	//    and an OpenCL-like context on top.
	sess, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// 2. Create buffers and upload data (simulated-CPU memcpy).
	const n = 1024
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
	}
	bx, err := sess.NewBuffer(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	by, err := sess.NewBuffer(4 * n)
	if err != nil {
		log.Fatal(err)
	}
	if err := bx.WriteF32(nil, xs); err != nil {
		log.Fatal(err)
	}

	// 3. Build the program (JIT at load time, like the vendor stack) and
	//    bind arguments in declaration order.
	k, err := sess.LoadKernel(kernelSrc, "axpb")
	if err != nil {
		log.Fatal(err)
	}
	if err := k.SetArgs(bx, by, float32(2.0), float32(1.0), n); err != nil {
		log.Fatal(err)
	}

	// 4. Launch: descriptor written to shared memory, doorbell rung,
	//    Job Manager dispatches, completion IRQ handled by the guest ISR.
	//    The context can cancel the launch mid-kernel: the GPU soft-stops
	//    at a clause boundary and the session stays usable.
	if err := k.Launch(context.Background(), mobilesim.Dim1(n), mobilesim.Dim1(64)); err != nil {
		log.Fatal(err)
	}

	// 5. Read back and inspect.
	ys, err := by.ReadF32(nil, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("y[0]=%g y[1]=%g y[%d]=%g\n", ys[0], ys[1], n-1, ys[n-1])

	st := sess.Stats()
	fmt.Printf("GPU executed %d instructions over %d threads in %d job(s)\n",
		st.GPU.TotalInstr(), st.GPU.Threads, st.System.ComputeJobs)
	fmt.Printf("system traffic: %d ctrl-reg writes, %d reads, %d IRQ(s), %d pages touched\n",
		st.System.CtrlRegWrites, st.System.CtrlRegReads, st.System.IRQsAsserted,
		st.System.PagesAccessed)
	fmt.Printf("driver ran %d guest instructions on the simulated CPU\n", st.GuestInstructions)
}
