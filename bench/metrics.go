package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// manifest is BENCHMARK.json, the one place metric names, units,
// directions and bounds are declared; the harness computes values by name
// and takes everything else from here.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// metricValue is one entry of the payload's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// payload is the document the builder contract wants as the last line of
// standard output.
type payload struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkPayload re-reads a payload against the declared metric set: every
// declared name present, no other, each a finite number with the declared
// unit, and attempted/failed sane.
func checkPayload(p *payload, defs []metricDef) error {
	if p.Attempted < 1 || p.Failed < 0 || p.Failed > p.Attempted {
		return fmt.Errorf("attempted %d, failed %d", p.Attempted, p.Failed)
	}
	declared := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		declared[d.Name] = d
	}
	for name, v := range p.Metrics {
		d, ok := declared[name]
		switch {
		case !nameRE.MatchString(name):
			return fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		case !ok:
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %q is not finite", name)
		case v.Unit != d.Unit:
			return fmt.Errorf("metric %q has unit %q, declared %q", name, v.Unit, d.Unit)
		}
		delete(declared, name)
	}
	for name := range declared {
		return fmt.Errorf("declared metric %q is missing", name)
	}
	return nil
}

// runResult is one run of one workload: the pooled passes and both metric
// sets derived from them.
type runResult struct {
	Workload  string
	Seed      int64
	Passes    []*passRecord
	Attempted int
	Failed    int
	Correct   bool
	// Samples is the number of untraced timed rounds behind round_p50_ms;
	// Tail the highest percentile with at least ten of them beyond it and
	// TailMS its value.
	Samples  int
	Tail     float64
	TailMS   float64
	EndToEnd map[string]float64
	PerLayer map[string]float64
	// Coverage is, over the traced rounds, the share of round time inside
	// operation spans (the acceptance bar is 0.95).
	Coverage float64
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// pooledRounds concatenates the timed rounds of every pass, untraced and
// traced apart: a run's statistics are taken over all passes' samples
// together, so a slow phase of the host that swallows one pass moves the
// median by at most that pass's share.
func pooledRounds(passes []*passRecord) (untraced, traced []float64) {
	for _, p := range passes {
		for _, rd := range p.Rounds {
			if rd.Traced {
				traced = append(traced, float64(rd.NS))
			} else {
				untraced = append(untraced, float64(rd.NS))
			}
		}
	}
	return untraced, traced
}

// derive pools the passes of a run and computes every metric by name.
// Layer metrics of a layer the workload never enters are 0.
func derive(w *workload, seed int64, passes []*passRecord, golden *counts) *runResult {
	r := &runResult{Workload: w.Name, Seed: seed, Passes: passes, Correct: true}
	first := passes[0].Counts

	untraced, traced := pooledRounds(passes)
	var setups, scaled, cpu, calib, capture, encode, ship []float64
	var spans []span
	var self []int64
	var alloc, mallocs, gcs, rounds, peak float64
	var decodeNS, encodedBytes float64
	refStable := 0.0
	serve := serveRecord{}
	for _, p := range passes {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		if !p.CountsStable || !p.Counts.sameGPU(&first, w.Tol) {
			r.Correct = false
		}
		// End-to-end host times are CPU times at nominal host speed (see
		// calib.go): each is scaled by what the reference loop run right
		// after it said about the host.
		setups = append(setups, atNominal(float64(p.SetupNS), float64(p.SetupCalibNS)))
		for _, rd := range p.Rounds {
			calib = append(calib, float64(rd.CalibNS))
			if !rd.Traced {
				cpu = append(cpu, float64(rd.CPUNS))
				scaled = append(scaled, atNominal(float64(rd.CPUNS), float64(rd.CalibNS)))
			}
		}
		capture = append(capture, float64(p.CaptureNS))
		encode = append(encode, float64(p.EncodeNS))
		ship = append(ship, float64(p.ShipNS))
		self = append(self, selfTimes(p.Spans)...)
		spans = append(spans, p.Spans...)
		alloc += float64(p.AllocBytes)
		mallocs += float64(p.Mallocs)
		gcs += float64(p.GCCycles)
		rounds += float64(len(p.Rounds))
		peak = math.Max(peak, p.PeakRSSMB)
		encodedBytes = math.Max(encodedBytes, float64(p.EncodedBytes))
		if p.DecodeNS > 0 {
			decodeNS = float64(p.DecodeNS)
			if p.RefStable {
				refStable = 1
			}
		}
		if s := p.Serve; s != nil {
			serve.PoolHits += s.PoolHits
			serve.PoolInline += s.PoolInline
			serve.DedupHits += s.DedupHits
			serve.Failures += s.Failures
			serve.Retries += s.Retries
			serve.Hedges += s.Hedges
			serve.Discarded += s.Discarded
			serve.Reships += s.Reships
			// The program's own p50s are per-pass log-bucket estimates:
			// average them over the passes.
			serve.GetWaitP50US += s.GetWaitP50US / float64(len(passes))
			serve.RefillP50US += s.RefillP50US / float64(len(passes))
			serve.DispatchP50MS += s.DispatchP50MS / float64(len(passes))
		}
	}
	r.Correct = r.Correct && r.Failed == 0 && len(untraced) > 0
	r.Samples, r.Tail = len(untraced), pickTail(len(untraced))
	r.TailMS = ms(quantile(untraced, r.Tail/100))

	rawP50 := median(untraced)
	p50 := median(scaled)
	r.EndToEnd = map[string]float64{
		"setup_s":                   median(setups) / 1e9,
		"round_p50_ms":              ms(p50),
		"sim_mips":                  ratio(float64(first.GPUInstr+first.GuestInstr)/1e6, p50/1e9),
		"modeled_mcycles_per_round": first.MobileMcycles,
	}

	// Span pools by name; run spans also carry the program's own timings.
	byName := make(map[string][]float64)
	selfByName := make(map[string][]float64)
	var runNS, simNS, driverNS, opNS float64
	var queue []float64
	for i := range spans {
		s := &spans[i]
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
		selfByName[s.Name] = append(selfByName[s.Name], float64(self[i]))
		if s.Name == "run" {
			runNS += float64(s.dur())
			simNS += float64(s.SimNS)
			driverNS += float64(s.DriverNS)
			queue = append(queue, float64(s.QueueNS))
		}
		// Top-level spans, the children of a round: the operations, or
		// on serve the one call into the coordinator.
		if s.Name == "op" || s.Name == "cluster_run" {
			opNS += float64(s.dur())
		}
	}
	var tracedNS float64
	for _, t := range traced {
		tracedNS += t
	}
	r.Coverage = ratio(opNS, tracedNS)
	nTraced := float64(len(traced))
	jobs := float64(first.GPUJobs)

	drift := 1.0
	if golden != nil && first.sameGPU(golden, w.Tol) {
		drift = 0
	}

	r.PerLayer = map[string]float64{
		"gpu.exec_share":             ratio(simNS-driverNS, runNS),
		"gpu.sim_mips":               ratio(float64(first.GPUInstr)*nTraced/1e6, (simNS-driverNS)/1e9),
		"gpu.instr_per_round":        float64(first.GPUInstr),
		"gpu.clauses_per_round":      float64(first.Clauses),
		"gpu.jobs_per_round":         jobs,
		"gpu.divergent_branch_ratio": ratio(float64(first.DivBranches), float64(first.Branches)),
		"gpu.local_ls_ratio":         ratio(float64(first.LocalLS), float64(first.LSInstr)),
		"gpu.counter_drift":          drift,

		"mmu.tlb_hit_ratio":   ratio(float64(first.TLBHits), float64(first.TLBHits+first.TLBWalks)),
		"mmu.walks_per_round": float64(first.TLBWalks),
		"mmu.pages_per_round": float64(first.Pages),

		"cpu.driver_share":            ratio(driverNS, runNS),
		"cpu.guest_mips":              ratio(float64(first.GuestInstr)*nTraced/1e6, driverNS/1e9),
		"cpu.guest_instr_per_round":   float64(first.GuestInstr),
		"driver.ctrl_reg_ops_per_job": ratio(float64(first.CtrlRegOps), jobs),
		"driver.irqs_per_job":         ratio(float64(first.IRQs), jobs),

		"platform.cold_boot_p50_us": us(median(byName["cold_boot"])),
		"session.close_p50_us":      us(median(byName["close"])),
		"mem.alloc_mb_per_round":    ratio(alloc/(1<<20), rounds),
		"mem.mallocs_per_round":     ratio(mallocs, rounds),
		"mem.gc_cycles":             gcs,
		"mem.peak_rss_mb":           peak,

		"clc.compile_p50_us":   us(median(byName["compile"])),
		"cl.stage_in_p50_us":   us(median(byName["stage_in"])),
		"cl.launch_p50_us":     us(median(byName["launch"])),
		"cl.read_back_p50_us":  us(median(byName["read_back"])),
		"snapshot.fork_p50_us": us(median(byName["fork"])),
		"snapshot.capture_ms":  ms(median(capture)),
		"snapshot.encode_ms":   ms(median(encode)),
		"snapshot.decode_ms":   ms(decodeNS),
		"snapshot.encoded_mb":  encodedBytes / (1 << 20),
		"snapshot.ref_stable":  refStable,

		"pool.hit_ratio":          ratio(float64(serve.PoolHits), float64(serve.PoolHits+serve.PoolInline)),
		"pool.inline_forks":       float64(serve.PoolInline),
		"pool.get_wait_p50_us":    serve.GetWaitP50US,
		"pool.refill_fork_p50_us": serve.RefillP50US,

		"hostd.overhead_p50_us": us(median(selfByName["request"])),
		"hostd.req_p50_ms":      ms(median(byName["request"])),
		"hostd.req_p99_ms":      ms(quantile(byName["request"], 0.99)),
		"hostd.dedup_hits":      float64(serve.DedupHits),
		"hostd.failures":        float64(serve.Failures),

		"cluster.overhead_p50_us": us(median(selfByName["cluster_run"])),
		"cluster.dispatch_p50_ms": serve.DispatchP50MS,
		"cluster.retries":         float64(serve.Retries),
		"cluster.hedges":          float64(serve.Hedges),
		"cluster.discarded":       float64(serve.Discarded),
		"cluster.reships":         float64(serve.Reships),
		"cluster.ship_ms":         ms(median(ship)),

		"session.run_p50_ms":                  ms(median(byName["run"])),
		"session.queue_wait_p50_us":           us(median(queue)),
		"session.round_p90_ms":                ms(quantile(untraced, 0.90)),
		"session.round_p99_ms":                ms(quantile(untraced, 0.99)),
		"session.trace_overhead_pct":          100 * ratio(median(traced)-rawP50, rawP50),
		"workloads.verify_share":              ratio(runNS-simNS, runNS),
		"costmodel.desktop_mcycles_per_round": first.DesktopMcycles,

		// The harness's own health: share of traced round time inside
		// operation spans, failures (always 0 on a healthy tree; the
		// payload's failed/attempted carry the same), what the reference
		// loop said about the host (1 = nominal, below 1 = slower), the
		// median round as the wall clock and as the CPU clock read it,
		// unscaled, and how far this run's rounds scatter.
		"harness.span_coverage":       r.Coverage,
		"harness.fail_ratio":          ratio(float64(r.Failed), float64(r.Attempted)),
		"harness.timed_rounds":        float64(len(untraced)),
		"harness.host_speed":          ratio(float64(calibNominal), median(calib)),
		"harness.round_p50_raw_ms":    ms(rawP50),
		"harness.round_p50_cpu_ms":    ms(median(cpu)),
		"harness.round_iqr_pct":       100 * ratio(quantile(untraced, 0.75)-quantile(untraced, 0.25), rawP50),
		"harness.round_mean_over_p50": ratio(mean(untraced), rawP50),
	}
	return r
}

func mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}

// metricSet returns the metric set a run with or without tracing reports:
// its declarations and the computed values.
func (r *runResult) metricSet(m *manifest, trace bool) ([]metricDef, map[string]float64) {
	if trace {
		return m.PerLayer, r.PerLayer
	}
	return m.EndToEnd, r.EndToEnd
}

// payloadFor selects the declared metrics from the computed ones and
// re-checks the result. A declared metric the harness does not compute is
// an error, so the manifest and the harness cannot drift apart silently.
func (r *runResult) payloadFor(defs []metricDef, values map[string]float64) (*payload, error) {
	p := &payload{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %q, which the harness does not compute", d.Name)
		}
		p.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return p, checkPayload(p, defs)
}
