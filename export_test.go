package mobilesim

import (
	"context"

	"mobilesim/internal/workloads"
)

// RunSpec runs a hand-built Spec the way Run runs a registered one, for
// tests that must see the moment a run starts or stops.
func (s *Session) RunSpec(ctx context.Context, spec *workloads.Spec, opts ...RunOption) (*RunResult, error) {
	res, _, err := s.run(ctx, spec, opts...)
	return res, err
}
