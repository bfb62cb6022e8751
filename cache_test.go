package mobilesim_test

import (
	"fmt"
	"sync"
	"testing"

	"mobilesim"
)

// scaleSrc is a kernel whose constant c makes each source distinct.
func scaleSrc(c int) string {
	return fmt.Sprintf(`
kernel void scale(global int* a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        a[i] = a[i] * 3 + %d;
    }
}
`, c)
}

// TestConcurrentSessionsShareCaches drives the process-wide caches — clc's
// compile memo, the GPU's program cache and the recycled warp slabs — from
// eight goroutines at once, each with sessions of its own at one of two
// compiler versions: every session loads and launches the source all of
// them share and a source only it compiles, twice over, and every launch
// must compute its own answer. CI runs it under -race -count=10.
func TestConcurrentSessionsShareCaches(t *testing.T) {
	const goroutines, n = 8, 96
	versions := [2]string{"5.6", "6.1"}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				cfg := mobilesim.Config{RAMSize: 16 << 20, HostThreads: 2, CompilerVersion: versions[g%2]}
				if err := loadAndLaunch(cfg, []int{7, 100 + g}, n); err != nil {
					errs <- fmt.Errorf("goroutine %d, round %d: %w", g, round, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// loadAndLaunch runs scaleSrc(c) for each c on one new session and checks
// every element.
func loadAndLaunch(cfg mobilesim.Config, consts []int, n int) error {
	s, err := mobilesim.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	for _, c := range consts {
		k, err := s.LoadKernel(scaleSrc(c), "scale")
		if err != nil {
			return err
		}
		buf, err := s.NewBuffer(4 * n)
		if err != nil {
			return err
		}
		in := make([]int32, n)
		for i := range in {
			in[i] = int32(i)
		}
		if err := buf.WriteI32(bg, in); err != nil {
			return err
		}
		if err := k.SetArgs(buf, n); err != nil {
			return err
		}
		if err := k.Launch(bg, mobilesim.Dim1(uint32(n)), mobilesim.Dim1(32)); err != nil {
			return err
		}
		out, err := buf.ReadI32(bg, n)
		if err != nil {
			return err
		}
		for i, v := range out {
			if want := int32(3*i + c); v != want {
				return fmt.Errorf("%s, constant %d: a[%d] = %d, want %d", cfg.CompilerVersion, c, i, v, want)
			}
		}
	}
	return nil
}
