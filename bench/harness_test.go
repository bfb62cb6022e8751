package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 20..30 counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},
	}
	want := []int64{100 - (20 + 20 + 10), 20, 30 - 20, 30, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestPooledMedian(t *testing.T) {
	// One slow pass out of three must not move the pooled median far,
	// where a median of per-pass means would.
	pass := func(traced bool, ns ...int64) *passRecord {
		p := &passRecord{}
		for _, v := range ns {
			p.Rounds = append(p.Rounds, roundRec{NS: v, Traced: traced})
		}
		return p
	}
	untraced, traced := pooledRounds([]*passRecord{pass(false, 10, 11, 12), pass(false, 30, 31, 32), pass(true, 99), pass(false, 10, 12, 11)})
	if got := median(untraced); got != 12 || len(traced) != 1 {
		t.Errorf("pooled median = %g over %d untraced and %d traced rounds, want 12 over 9 and 1", got, len(untraced), len(traced))
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.25); got != 2 {
		t.Errorf("p25 = %g, want 2", got)
	}
}

// A pass that ran while the host was slow — the reference loop twice as
// long, and set-up and rounds longer by that factor to the power
// calibExponent — must report the same end-to-end host times as one that
// ran at nominal speed.
func TestHostSpeedNormalisation(t *testing.T) {
	pass := func(slowdown float64) *passRecord {
		sim := math.Pow(slowdown, calibExponent)
		p := &passRecord{SetupNS: int64(300e6 * sim), SetupCalibNS: int64(float64(calibNominal) * slowdown), CountsStable: true, Attempted: 1}
		for i := 0; i < 4; i++ {
			p.Rounds = append(p.Rounds, roundRec{NS: int64(12e6 * sim), CPUNS: int64(10e6 * sim), CalibNS: int64(float64(calibNominal) * slowdown)})
		}
		return p
	}
	r := derive(&workloads[0], 1, []*passRecord{pass(1), pass(2), pass(2)}, nil)
	if got := r.EndToEnd["round_p50_ms"]; math.Abs(got-10) > 1e-9 {
		t.Errorf("round_p50_ms = %g, want 10", got)
	}
	if got := r.EndToEnd["setup_s"]; math.Abs(got-0.3) > 1e-9 {
		t.Errorf("setup_s = %g, want 0.3", got)
	}
	if got, want := r.PerLayer["harness.round_p50_raw_ms"], 12*math.Pow(2, calibExponent); got != want {
		t.Errorf("wall-clock median = %g, want %g", got, want)
	}
	if got, want := r.PerLayer["harness.round_p50_cpu_ms"], 10*math.Pow(2, calibExponent); got != want {
		t.Errorf("CPU-clock median = %g, want %g", got, want)
	}
	if got := r.PerLayer["harness.host_speed"]; got != 0.5 {
		t.Errorf("host speed = %g, want 0.5", got)
	}
}

func TestCheckPayload(t *testing.T) {
	defs := []metricDef{{Name: "a.b", Unit: "ms"}, {Name: "c", Unit: "count"}}
	good := func() *payload {
		return &payload{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"a.b": {1, "ms"}, "c": {0, "count"}}}
	}
	if err := checkPayload(good(), defs); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*payload){
		"missing":   func(p *payload) { delete(p.Metrics, "c") },
		"extra":     func(p *payload) { p.Metrics["d"] = metricValue{1, "ms"} },
		"NaN":       func(p *payload) { p.Metrics["c"] = metricValue{math.NaN(), "count"} },
		"unit":      func(p *payload) { p.Metrics["c"] = metricValue{1, "ms"} },
		"bad name":  func(p *payload) { p.Metrics["a b"] = metricValue{1, "ms"} },
		"attempted": func(p *payload) { p.Attempted = 0 },
	} {
		p := good()
		breakIt(p)
		if err := checkPayload(p, defs); err == nil {
			t.Errorf("%s: payload accepted", name)
		}
	}
}

// TestQuickRunMatchesManifest runs every workload at -quick size, in this
// process, and holds both payloads and BENCHMARK.json itself to the
// builder contract. It asserts nothing about wall-clock time.
func TestQuickRunMatchesManifest(t *testing.T) {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkManifest(m); err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
	setup := false
	for _, d := range m.EndToEnd {
		if !nameRE.MatchString(d.Name) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v breaks the contract", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}

	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	o := &options{seed: 1, quick: true, outDir: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		r, err := runWorkload(context.Background(), o, w, true, golden, runPass)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: correct %v, %d of %d operations failed", w.Name, r.Correct, r.Failed, r.Attempted)
		}
		if r.PerLayer["gpu.counter_drift"] != 0 {
			t.Errorf("%s: GPU counts %+v drifted from golden.json", w.Name, r.Passes[0].Counts)
		}
		for _, trace := range []bool{false, true} {
			defs, values := r.metricSet(m, trace)
			if _, err := r.payloadFor(defs, values); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
			// Every computed metric is declared: no name is printed that
			// BENCHMARK.json does not know.
			if len(values) != len(defs) {
				t.Errorf("%s: harness computes %d metrics, BENCHMARK.json declares %d", w.Name, len(values), len(defs))
			}
		}
		for name, v := range r.EndToEnd {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, name, v)
			}
		}
		if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if r.Coverage < 0.95 {
			t.Errorf("%s: operation spans cover %.3f of the traced round time, want 0.95", w.Name, r.Coverage)
		}
	}
}
