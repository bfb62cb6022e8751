// SGEMM tuning study: run the six-step desktop-GPU optimisation ladder
// through the unified Workload API on the simulated mobile GPU, print the
// per-variant statistics, and show how the analytical Mali and desktop
// models (each run's RunResult.Modeled) rank them differently — the Fig 15
// workflow demonstrating that
// desktop optimisations trigger mobile bottlenecks.
//
//	go run ./examples/sgemm-tuning
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"mobilesim"
)

func main() {
	const scale = 4 // 64x64x64 matrices (dim = 16*scale)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\tinstr\tglobal LS\tlocal LS\tregs\tMali est.\tdesktop est.")

	for _, v := range mobilesim.SgemmVariants() {
		sess, err := mobilesim.New(mobilesim.Config{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sess.Run(context.Background(), v.WorkloadName(), mobilesim.WithScale(scale))
		if err != nil {
			log.Fatalf("%s: %v", v.Name, err)
		}
		if !res.Verified {
			log.Fatalf("%s: %v", v.Name, res.VerifyErr)
		}
		gs := res.Stats.GPU
		fmt.Fprintf(tw, "%d:%s\t%d\t%d\t%d\t%d\t%.2e\t%.2e\n",
			v.ID, v.Name, gs.TotalInstr(), gs.GlobalLS, gs.LocalLS, gs.RegistersUsed,
			res.Modeled.MobileCycles, res.Modeled.DesktopCycles)
		sess.Close()
	}
	tw.Flush()
	fmt.Println("\nLower is faster. Note the divergent rankings: the 2D register-")
	fmt.Println("blocked variant the desktop model likes is near the bottom on the")
	fmt.Println("mobile model, where main-memory traffic dominates cost.")
}
