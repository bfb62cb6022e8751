package simtest

import (
	"testing"

	"mobilesim/internal/clc"
	"mobilesim/internal/gpu"
)

// Race-stress tests for the guest memory model: kernels that contend on
// shared guest memory from every workgroup at once, dispatched across
// one host thread per shader core. Under `go test -race` these are
// the direct proof that every GPU-side access path (interpreter, warp
// tape, local memory, sub-word stores) goes through the atomic accessors;
// the facade-level suites only reach the same paths indirectly.

// storeContentionSrc makes every thread hammer the same handful of words:
// word 0 takes same-value flag stores (the BFS frontier idiom), words
// 1..4 take per-lane byte stores into one shared word, and each thread
// also keeps a disjoint slot so functional output stays checkable.
const storeContentionSrc = `
kernel void contend(global int* shared, global uchar* bytes, global int* out, int iters) {
    int i = get_global_id(0);
    for (int j = 0; j < iters; j++) {
        if (shared[0] == 0) {
            shared[0] = 1;
        }
        shared[1] = shared[1] + 0;
        bytes[8 + (i % 4)] = 1;
    }
    out[i] = i + shared[0];
}
`

func runStoreContention(t *testing.T, h *Harness, rounds int) {
	const n, iters = 256, 16
	sharedBuf := h.AllocBuf(64)
	byteBuf := h.AllocBuf(64)
	outBuf := h.AllocBuf(4 * n)

	k, err := clc.Compile(storeContentionSrc, "contend", clc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		h.WriteI32(sharedBuf, make([]int32, 16))
		h.WriteU8(byteBuf, make([]byte, 64))
		h.RunKernel(k, [3]uint32{n, 1, 1}, [3]uint32{16, 1, 1},
			[]uint64{sharedBuf, byteBuf, outBuf, iters})

		out := h.ReadI32(outBuf, n)
		for i, v := range out {
			if v != int32(i)+1 {
				t.Fatalf("round %d: out[%d] = %d, want %d", r, i, v, i+1)
			}
		}
		if flag := h.ReadI32(sharedBuf, 1)[0]; flag != 1 {
			t.Fatalf("round %d: shared flag = %d, want 1", r, flag)
		}
		lanes := h.ReadU8(byteBuf+8, 4)
		for lane, b := range lanes {
			if b != 1 {
				t.Fatalf("round %d: neighbouring byte %d lost (= %d)", r, lane, b)
			}
		}
	}
}

// TestStoreContentionMultiCore loops a store-contention kernel across
// repeated dispatches (the -count idiom, inlined so one `go test -race`
// run already stresses many schedules) on eight concurrent cores.
func TestStoreContentionMultiCore(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 4
	}
	runStoreContention(t, NewMP(t, 8), rounds)
}

// TestStoreContentionInterp pins the reference interpreter explicitly (the
// device default is the warp engine, which the other contention tests
// already cover).
func TestStoreContentionInterp(t *testing.T) {
	cfg := gpu.DefaultConfig()
	cfg.HostThreads = 8
	cfg.Engine = gpu.EngineInterp
	runStoreContention(t, New(t, cfg), 5)
}
