package clc_test

import (
	"context"
	"testing"

	"mobilesim/internal/cl"
	"mobilesim/internal/clc"
	"mobilesim/internal/platform"
	"mobilesim/internal/workloads"
)

// FuzzCLCParse feeds arbitrary CLite source to the compiler: every input
// up to 64 KiB compiles or returns an error, and none panics. The seeds are
// the kernel sources of every registered workload, read out of the compile
// memo after one run of each at its SmallScale.
func FuzzCLCParse(f *testing.F) {
	for _, spec := range workloads.All() {
		p, err := platform.New(platform.Config{RAMSize: 256 << 20})
		if err != nil {
			f.Fatal(err)
		}
		c, err := cl.NewContext(p, "")
		if err == nil {
			_, err = spec.Make(spec.SmallScale).Run(context.Background(), c, spec.Name, false)
		}
		p.Close()
		if err != nil {
			f.Fatalf("%s: %v", spec.Name, err)
		}
	}
	for _, src := range clc.MemoSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			t.Skip()
		}
		if all, err := clc.CompileAll(src, clc.Options{}); all == nil && err == nil {
			t.Error("neither kernels nor an error")
		}
	})
}
