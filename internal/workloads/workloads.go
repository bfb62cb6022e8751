// Package workloads defines every workload the repository runs, each as
// one Spec: the paper's benchmark suite (Table II — the AMD APP SDK,
// Parboil and Rodinia kernels plus clBLAS SGEMM), the SLAMBench pipeline
// presets (Fig 14) and the SGEMM tuning ladder (Fig 15). Each is CLite
// OpenCL source executed through the full simulated stack; the benchmarks
// and the ladder pair it with a host-native Go reference implementation
// that serves both as the correctness oracle and as the "native
// execution" baseline for the slowdown measurements (Fig 7).
package workloads

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"mobilesim/internal/cl"
	"mobilesim/internal/costmodel"
)

// Kind classifies a workload.
type Kind string

// Workload kinds.
const (
	KindBenchmark Kind = "benchmark" // Table II suite member
	KindSLAM      Kind = "slam"      // SLAMBench pipeline preset
	KindSgemm     Kind = "sgemm"     // SGEMM tuning-ladder variant
)

// Instance is one prepared workload run: inputs generated, kernels ready.
type Instance struct {
	// Sim runs the full workload on the simulator (buffer traffic, kernel
	// enqueues, result readback) and returns the output signature. A
	// cancelled ctx interrupts the running kernel at a clause boundary.
	Sim func(ctx context.Context, c *cl.Context) (any, error)
	// Native runs the same computation host-natively and returns the
	// reference signature; nil when the workload has none (SLAM), in which
	// case Run never verifies.
	Native func() any
	// Tol is the comparison tolerance for float outputs.
	Tol float64
}

// Spec describes a workload and how to instantiate it at a given scale.
// Scale is a linear size knob: SmallScale keeps unit tests fast,
// DefaultScale drives benches, PaperScale approximates the paper's input.
type Spec struct {
	Name string
	// Kind defaults to KindBenchmark at registration.
	Kind  Kind
	Suite string
	// PaperInput is the Table II input size (benchmarks only).
	PaperInput string
	// Description is the one-line listing summary; a benchmark's defaults
	// to its suite and paper input.
	Description string
	// Profile is the access-pattern annotation the desktop cost model
	// reads; nil means costmodel.DefaultProfile (see CostProfile).
	Profile *costmodel.KernelProfile
	// Make builds an Instance; scale semantics are per workload but
	// monotone (bigger scale, bigger input).
	Make         func(scale int) *Instance
	SmallScale   int
	DefaultScale int
	PaperScale   int
}

// CostProfile is the desktop cost model's annotation for this workload.
func (s *Spec) CostProfile() costmodel.KernelProfile {
	if s.Profile == nil {
		return costmodel.DefaultProfile()
	}
	return *s.Profile
}

var registry []*Spec

func register(s *Spec) {
	if s.Kind == "" {
		s.Kind = KindBenchmark
	}
	if s.Description == "" {
		s.Description = fmt.Sprintf("%s benchmark (paper input %s)", s.Suite, s.PaperInput)
	}
	registry = append(registry, s)
}

// All returns every registered workload sorted by name.
func All() []*Spec {
	out := append([]*Spec(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// OfKind returns the registered workloads of one kind sorted by name;
// OfKind(KindBenchmark) is the Table II suite.
func OfKind(k Kind) []*Spec {
	var out []*Spec
	for _, s := range All() {
		if s.Kind == k {
			out = append(out, s)
		}
	}
	return out
}

// ByName finds a workload. The error for an unknown name lists the
// registered workloads and suggests the nearest match, mirroring the
// compiler-version validation in the facade Config.
func ByName(name string) (*Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, 0, len(registry))
	for _, s := range registry {
		names = append(names, s.Name)
	}
	return nil, UnknownNameError("workloads", "workload", name, names)
}

// UnknownNameError builds the standard list-and-suggest error for an
// unknown registry name: "<prefix>: unknown <noun> <name> (did you mean
// ...?); have ...". names is sorted in place.
func UnknownNameError(prefix, noun, name string, names []string) error {
	sort.Strings(names)
	msg := fmt.Sprintf("%s: unknown %s %q", prefix, noun, name)
	if near := Nearest(name, names); near != "" {
		msg += fmt.Sprintf(" (did you mean %q?)", near)
	}
	return fmt.Errorf("%s; have %s", msg, strings.Join(names, ", "))
}

// Nearest returns the candidate with the smallest case-insensitive edit
// distance from name, or "" when nothing is plausibly close (distance
// greater than half the name's length).
func Nearest(name string, candidates []string) string {
	best, bestDist := "", len(name)/2+1
	for _, c := range candidates {
		if d := editDistance(strings.ToLower(name), strings.ToLower(c)); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Result is a completed run.
type Result struct {
	// Output is what the simulator returned: the output signature, or a
	// SLAM preset's *slam.Metrics.
	Output         any
	SimDuration    time.Duration
	NativeDuration time.Duration
	Verified       bool
	VerifyErr      error
}

// Run executes the instance on the given context, times the simulator and
// native paths, and verifies outputs. With verify false, or without a
// host-native reference, the reference is neither run nor compared
// (Result.Verified stays false and NativeDuration zero).
func (inst *Instance) Run(ctx context.Context, c *cl.Context, name string, verify bool) (*Result, error) {
	t0 := time.Now()
	simOut, err := inst.Sim(ctx, c)
	if err != nil {
		return nil, fmt.Errorf("%s: sim: %w", name, err)
	}
	simDur := time.Since(t0)

	res := &Result{Output: simOut, SimDuration: simDur}
	if !verify || inst.Native == nil {
		return res, nil
	}
	t1 := time.Now()
	natOut := inst.Native()
	res.NativeDuration = time.Since(t1)

	if err := compare(simOut, natOut, inst.Tol); err != nil {
		res.VerifyErr = fmt.Errorf("%s: verify: %w", name, err)
	} else {
		res.Verified = true
	}
	return res, nil
}

// compare checks output signatures with tolerance for floats.
func compare(sim, nat any, tol float64) error {
	switch s := sim.(type) {
	case []float32:
		n, ok := nat.([]float32)
		if !ok || len(n) != len(s) {
			return fmt.Errorf("shape mismatch: sim %T/%d vs native %T", sim, len(s), nat)
		}
		for i := range s {
			if !closeF32(s[i], n[i], tol) {
				return fmt.Errorf("element %d: sim %g vs native %g", i, s[i], n[i])
			}
		}
	case []int32:
		n, ok := nat.([]int32)
		if !ok || len(n) != len(s) {
			return fmt.Errorf("shape mismatch: sim %T/%d vs native %T", sim, len(s), nat)
		}
		for i := range s {
			if s[i] != n[i] {
				return fmt.Errorf("element %d: sim %d vs native %d", i, s[i], n[i])
			}
		}
	case []byte:
		n, ok := nat.([]byte)
		if !ok || len(n) != len(s) {
			return fmt.Errorf("shape mismatch: sim %T/%d vs native %T", sim, len(s), nat)
		}
		for i := range s {
			d := int(s[i]) - int(n[i])
			if d < -1 || d > 1 { // byte quantisation slack
				return fmt.Errorf("byte %d: sim %d vs native %d", i, s[i], n[i])
			}
		}
	default:
		return fmt.Errorf("unsupported signature type %T", sim)
	}
	return nil
}

func closeF32(a, b float32, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return true
	}
	d := math.Abs(float64(a) - float64(b))
	m := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	if tol == 0 {
		tol = 1e-4
	}
	return d <= tol || (m > 1 && d/m <= tol)
}

// rng returns a deterministic generator so sim and native paths see the
// same inputs across runs.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func randF32s(r *rand.Rand, n int, lo, hi float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = lo + (hi-lo)*r.Float32()
	}
	return out
}

func randI32s(r *rand.Rand, n int, max int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = r.Int31n(max)
	}
	return out
}

func randBytes(r *rand.Rand, n int) []byte {
	out := make([]byte, n)
	r.Read(out)
	return out
}

// buffers is a small helper to cut allocation boilerplate in workloads.
func newBufF32(ctx context.Context, c *cl.Context, vals []float32) (*cl.Buffer, error) {
	b, err := c.CreateBuffer(4 * len(vals))
	if err != nil {
		return nil, err
	}
	if err := c.WriteF32(ctx, b, vals); err != nil {
		return nil, err
	}
	return b, nil
}

func newBufI32(ctx context.Context, c *cl.Context, vals []int32) (*cl.Buffer, error) {
	b, err := c.CreateBuffer(4 * len(vals))
	if err != nil {
		return nil, err
	}
	if err := c.WriteI32(ctx, b, vals); err != nil {
		return nil, err
	}
	return b, nil
}

func newBufU8(ctx context.Context, c *cl.Context, vals []byte) (*cl.Buffer, error) {
	b, err := c.CreateBuffer(len(vals))
	if err != nil {
		return nil, err
	}
	if err := c.WriteBuffer(ctx, b, vals); err != nil {
		return nil, err
	}
	return b, nil
}

// kernel1 builds a program with one kernel and binds arguments in order
// (see cl.Kernel.SetArgs).
func kernel1(ctx context.Context, c *cl.Context, src, name string, args ...any) (*cl.Kernel, error) {
	prog, err := c.BuildProgram(ctx, src)
	if err != nil {
		return nil, err
	}
	k, err := prog.CreateKernel(name)
	if err != nil {
		return nil, err
	}
	if err := k.SetArgs(args...); err != nil {
		return nil, err
	}
	return k, nil
}

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }
