// Observability surface tests: every run carries the modelled cost
// estimates, and the model values are deterministic functions of the
// run's counters.
package mobilesim_test

import (
	"context"
	"testing"

	"mobilesim"
)

// obsConfig pins HostThreads to 1 so every counter — and therefore the
// modelled cost, a pure function of the counters — is exactly
// reproducible across sessions.
func obsConfig() mobilesim.Config {
	return mobilesim.Config{RAMSize: 128 << 20, HostThreads: 1}
}

// TestRunResultModeled: a local run populates both cost-model estimates,
// and a second fresh session running the same workload at the same scale
// reproduces them bit for bit.
func TestRunResultModeled(t *testing.T) {
	run := func() mobilesim.ModeledCost {
		t.Helper()
		sess, err := mobilesim.New(obsConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Run(context.Background(), "BFS", mobilesim.WithScale(4))
		if err != nil {
			t.Fatal(err)
		}
		if res.Modeled.MobileCycles <= 0 || res.Modeled.DesktopCycles <= 0 {
			t.Fatalf("modelled cost not populated: %+v", res.Modeled)
		}
		if res.QueueWait < 0 {
			t.Fatalf("queue wait %v, want >= 0", res.QueueWait)
		}
		return res.Modeled
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("modelled cost not deterministic: %+v vs %+v", first, second)
	}
}

// TestLadderModeledUsesRungProfile: a ladder rung's desktop estimate is
// evaluated with the rung's own access-pattern profile, which the default
// profile does not reproduce.
func TestLadderModeledUsesRungProfile(t *testing.T) {
	sess, err := mobilesim.New(obsConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	naive := mobilesim.SgemmVariants()[0]
	res, err := sess.Run(context.Background(), naive.WorkloadName(), mobilesim.WithScale(1))
	if err != nil {
		t.Fatal(err)
	}
	gs, launches := res.Stats.GPU, res.Stats.System.KernelLaunch
	want := mobilesim.K20m().Estimate(&gs, naive.Profile, launches)
	if res.Modeled.DesktopCycles != want {
		t.Errorf("desktop estimate %v, want %v from the rung's profile", res.Modeled.DesktopCycles, want)
	}
	if def := mobilesim.K20m().Estimate(&gs, mobilesim.DefaultKernelProfile(), launches); def == want {
		t.Fatalf("the rung's profile and the default estimate alike (%v): the test cannot tell them apart", def)
	}
}
