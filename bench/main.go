// Command bench is the repository benchmark (BENCHMARK.json): five
// round-based workloads driven through the simulator's public functions,
// every result verified, host time reported as the median round, modelled
// cycles from the program's own cost model, and per-layer metrics from
// harness-side spans. README.md has the design and the evidence.
//
//	bash bench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh              # every workload, both metric sets
//	bash bench/run.sh -check       # quick run of everything, payloads re-parsed
//	bash bench/run.sh -repeat 2    # two full sets, compared against the bounds
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// passesPerRun is how many child processes share a run's time budget.
// Each sets up from scratch in a fresh heap, so setup_s is a median of
// this many set-ups and a slow phase of the host or an unlucky heap
// layout taints one pass's rounds, not the run's median.
const passesPerRun = 5

// passTimeout bounds one child; a full run stays inside the contract's
// 180 s even if a pass hangs.
const passTimeout = 100 * time.Second

//go:embed golden.json
var goldenJSON []byte

// goldenFile is golden.json: per workload, the first round's counts at the
// commit that last blessed them.
type goldenFile map[string]*counts

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	check    bool
	repeat   int
	bless    bool
	manifest string
	outDir   string
}

func main() {
	var o options
	child := flag.Bool("child", false, "internal: run one pass described on stdin, write its record to fd 3")
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the contract payload; empty runs them all")
	flag.Int64Var(&o.seed, "seed", 1, "fixes the operation order inside a round and the bench-owned kernel's data")
	flag.Float64Var(&o.seconds, "seconds", 0, "timed seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced rounds, end-to-end metrics; 1: spans on every second round, per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "one pass, two timed rounds: for smoke tests, not for numbers")
	flag.BoolVar(&o.check, "check", false, "quick run of every workload and metric set; re-parse each payload against BENCHMARK.json")
	flag.IntVar(&o.repeat, "repeat", 1, "without -workload: run the full set this many times and compare end-to-end metrics against their bounds")
	flag.BoolVar(&o.bless, "bless", false, "without -workload: rewrite bench/golden.json from this run's counts")
	flag.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for trace-<workload>.json")
	flag.Parse()

	ctx := context.Background()
	var err error
	switch {
	case *child:
		err = childMain(ctx)
	case o.check:
		o.quick = true
		err = runSets(ctx, &o)
	case o.workload == "":
		err = runSets(ctx, &o)
	default:
		err = runContract(ctx, &o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// childMain is the body of a pass process: spec in on stdin, record out
// on fd 3, so nothing the simulator might print can corrupt either.
func childMain(ctx context.Context) error {
	// One processor: see calib.go.
	runtime.GOMAXPROCS(1)
	var spec passSpec
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		return fmt.Errorf("pass spec: %w", err)
	}
	rec, err := runPass(ctx, &spec)
	if err != nil {
		return err
	}
	pipe := os.NewFile(3, "record")
	if err := json.NewEncoder(pipe).Encode(rec); err != nil {
		return err
	}
	return pipe.Close()
}

// spawnPass runs one pass in a child process of this same binary.
func spawnPass(ctx context.Context, spec *passSpec) (*passRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, passTimeout)
	defer cancel()
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	cmd := exec.CommandContext(ctx, self, "-child")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.ExtraFiles = []*os.File{pw}
	if err := cmd.Start(); err != nil {
		pw.Close()
		return nil, err
	}
	pw.Close()
	var rec passRecord
	decErr := json.NewDecoder(pr).Decode(&rec)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s pass %d: %w", spec.Workload, spec.Pass, err)
	}
	if decErr != nil {
		return nil, fmt.Errorf("%s pass %d: record: %w", spec.Workload, spec.Pass, decErr)
	}
	return &rec, nil
}

// passRunner runs one pass; tests substitute an in-process one.
type passRunner func(context.Context, *passSpec) (*passRecord, error)

// runWorkload is one run: the passes of one workload, pooled and derived.
// With trace on it also writes the workload's trace file.
func runWorkload(ctx context.Context, o *options, w *workload, trace bool, golden goldenFile, run passRunner) (*runResult, error) {
	passes, budget := passesPerRun, time.Duration(o.seconds*float64(time.Second))/passesPerRun
	if o.quick {
		passes, budget = 1, 0
	}
	var pin uint64
	if g := golden[w.Name]; g != nil {
		pin = g.SlamInstr
	}
	var recs []*passRecord
	for p := 0; p < passes; p++ {
		rec, err := run(ctx, &passSpec{
			Workload: w.Name, Seed: o.seed, Pass: p, Budget: budget, Trace: trace,
			Probes:  trace && p == 0 && w.Kind == kindServe,
			SlamPin: pin,
		})
		if err != nil {
			return nil, err
		}
		for _, e := range rec.Errors {
			fmt.Fprintf(os.Stderr, "bench: %s pass %d: %s\n", w.Name, p, e)
		}
		recs = append(recs, rec)
	}
	r := derive(w, o.seed, recs, golden[w.Name])
	if trace {
		if err := writeTrace(o.outDir, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// writeTrace writes the spans of a traced run, all passes, to
// <dir>/trace-<workload>.json.
func writeTrace(dir string, r *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spans []span
	for _, p := range r.Passes {
		spans = append(spans, p.Spans...)
	}
	data, err := json.Marshal(map[string]any{"workload": r.Workload, "seed": r.Seed, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+r.Workload+".json"), data, 0o644)
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// setUpRun resolves what every mode needs: the manifest, the golden
// counts, and the run length.
func setUpRun(o *options) (*manifest, goldenFile, error) {
	m, err := readManifest(o.manifest)
	if err != nil {
		return nil, nil, err
	}
	golden, err := loadGolden()
	if err != nil {
		return nil, nil, err
	}
	if o.seconds <= 0 {
		o.seconds = float64(m.RunSeconds)
	}
	return m, golden, nil
}

// runContract is the builder contract's entry: one workload, one metric
// set, the payload as the last (and only) line of standard output.
func runContract(ctx context.Context, o *options) error {
	m, golden, err := setUpRun(o)
	if err != nil {
		return err
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	r, err := runWorkload(ctx, o, w, o.trace == 1, golden, spawnPass)
	if err != nil {
		return err
	}
	defs, values := r.metricSet(m, o.trace == 1)
	p, err := r.payloadFor(defs, values)
	if err != nil {
		return err
	}
	printTable(r, defs, values)
	return json.NewEncoder(os.Stdout).Encode(p)
}

// printTable is the human view of one run, on standard error.
func printTable(r *runResult, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(os.Stderr, "\n%s  seed %d  correct %v  ops %d attempted, %d failed  %d timed rounds (tail p%g = %.3f ms)\n",
		r.Workload, r.Seed, r.Correct, r.Attempted, r.Failed, r.Samples, r.Tail, r.TailMS)
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", 100*d.Bound)
		}
		fmt.Fprintf(os.Stderr, "  %-38s %16.6g %-9s (%s is better)%s\n", d.Name, values[d.Name], d.Unit, d.Better, bound)
	}
}

// runSets runs every workload with both metric sets, o.repeat times, in
// the order A B C D E, A B C D E so that a slow phase of the host does not
// fall on one workload's every run. It prints one document on standard
// output: per set, per workload, both payloads.
func runSets(ctx context.Context, o *options) error {
	m, golden, err := setUpRun(o)
	if err != nil {
		return err
	}
	type both struct {
		EndToEnd *payload `json:"end_to_end"`
		PerLayer *payload `json:"per_layer"`
	}
	sets := make([]map[string]both, o.repeat)
	blessed := make(goldenFile)
	var problems []error
	for i := range sets {
		sets[i] = make(map[string]both)
		for wi := range workloads {
			w := &workloads[wi]
			var b both
			for _, trace := range []bool{false, true} {
				r, err := runWorkload(ctx, o, w, trace, golden, spawnPass)
				if err != nil {
					return err
				}
				defs, values := r.metricSet(m, trace)
				p, err := r.payloadFor(defs, values)
				if p == nil {
					return err
				}
				if err == nil && !p.Correct {
					err = errors.New("outputs are not correct")
				}
				if err == nil && trace && r.Coverage < 0.95 {
					err = fmt.Errorf("operation spans cover %.1f%% of the traced round time, want 95%%", 100*r.Coverage)
				}
				if err != nil {
					problems = append(problems, fmt.Errorf("%s (trace %v): %w", w.Name, trace, err))
				}
				printTable(r, defs, values)
				if trace {
					b.PerLayer = p
				} else {
					b.EndToEnd = p
					c := r.Passes[0].Counts
					blessed[w.Name] = &c
				}
			}
			sets[i][w.Name] = b
		}
	}
	if err := checkManifest(m); err != nil {
		problems = append(problems, err)
	}

	if o.repeat >= 2 {
		fmt.Fprintf(os.Stderr, "\n%-14s %-27s %14s %14s %9s %8s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
		for wi := range workloads {
			name := workloads[wi].Name
			for _, d := range m.EndToEnd {
				a := sets[0][name].EndToEnd.Metrics[d.Name].Value
				b := sets[o.repeat-1][name].EndToEnd.Metrics[d.Name].Value
				diff := relDiff(a, b)
				verdict := ""
				if diff > d.Bound {
					verdict = "  DISAGREE"
					problems = append(problems, fmt.Errorf("%s %s: sets differ by %.2f%%, bound %g%%", name, d.Name, 100*diff, 100*d.Bound))
				}
				fmt.Fprintf(os.Stderr, "%-14s %-27s %14.6g %14.6g %8.3f%% %7g%%%s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
			}
		}
	}
	if o.bless {
		data, err := json.MarshalIndent(blessed, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join("bench", "golden.json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"seed": o.seed, "seconds": o.seconds, "sets": sets}); err != nil {
		return err
	}
	return errors.Join(problems...)
}

// checkManifest holds BENCHMARK.json to the harness: the same workloads in
// the same order, and metric lists within the contract's sizes.
func checkManifest(m *manifest) error {
	if len(m.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name {
			return fmt.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloads[i].Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("BENCHMARK.json declares %d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("BENCHMARK.json declares %d per-layer metrics, want 1 to 128", n)
	}
	return nil
}
