package workloads

import (
	"context"

	"mobilesim/internal/cl"
	"mobilesim/internal/slam"
)

// The three SLAMBench presets of Fig 14 (§V-E1), registered as
// "slam/<preset>". Scale multiplies the input resolution (1 = 64×64 for
// standard). The pipeline has no host-native reference, so a run is never
// verified; its output is the run's *slam.Metrics.

func init() {
	for _, preset := range []func(scale int) slam.Config{slam.Standard, slam.Fast3, slam.Express} {
		preset := preset
		register(&Spec{
			Name: "slam/" + preset(1).Name, Kind: KindSLAM, Suite: "SLAMBench",
			Description: "KFusion-style dense-SLAM pipeline (Fig 14 preset)",
			SmallScale:  1, DefaultScale: 1, PaperScale: 4,
			Make: func(scale int) *Instance {
				cfg := preset(scale)
				return &Instance{Sim: func(ctx context.Context, c *cl.Context) (any, error) {
					return slam.Run(ctx, c, cfg)
				}}
			},
		})
	}
}
