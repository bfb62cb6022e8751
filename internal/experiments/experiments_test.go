package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

var small = Options{Scale: ScaleSmall}

func TestFig1CompilerVersionsDiffer(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d versions, want 5", len(rows))
	}
	// 5.6 is the unit baseline.
	if rows[0].ArithCycles != 1 || rows[0].Registers != 1 {
		t.Errorf("baseline row not normalised: %+v", rows[0])
	}
	// Substantial differences across versions (paper: up to 47%).
	var spread float64
	for _, r := range rows {
		if d := absf(r.ArithCycles - 1); d > spread {
			spread = d
		}
	}
	if spread < 0.1 {
		t.Errorf("arith-cycle spread %.2f too small; versions indistinguishable", spread)
	}
	// 6.1 == 6.2 as in the paper.
	if rows[3] != (Fig1Row{Version: "6.1", ArithCycles: rows[4].ArithCycles,
		ArithInstrs: rows[4].ArithInstrs, LSCycles: rows[4].LSCycles,
		LSInstrs: rows[4].LSInstrs, Registers: rows[4].Registers, Absolute: rows[4].Absolute}) {
		t.Errorf("6.1 and 6.2 should produce identical code:\n%+v\n%+v", rows[3], rows[4])
	}
}

func TestFig6DivergenceCFG(t *testing.T) {
	var buf bytes.Buffer
	rendered, err := Fig6(context.Background(), &buf, small)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rendered, "dvg.") {
		t.Error("BFS CFG shows no divergence annotations")
	}
	if !strings.Contains(rendered, "->") {
		t.Error("CFG has no edges")
	}
}

func TestFig7SlowdownShape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig7(context.Background(), &buf, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if r.GPUOnly <= 0 || r.FullSystem <= 0 {
			t.Errorf("%s: non-positive slowdown %+v", r.Name, r)
		}
	}
}

// TestFig8AndFig10RatiosFinite: Fig 8 has one row per benchmark and Fig
// 10 one per host-thread count, every speed ratio finite and positive.
// Which way the ratios point — the DBT stack beating the baseline,
// throughput growing with host threads — is wall-clock timing, so it is
// reported, not asserted.
func TestFig8AndFig10RatiosFinite(t *testing.T) {
	ok := func(r float64) bool { return r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r) }
	var buf bytes.Buffer
	rows8, err := Fig8(context.Background(), &buf, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows8) != len(fig8Benchmarks) {
		t.Fatalf("Fig 8: %d rows, want one per benchmark (%d)", len(rows8), len(fig8Benchmarks))
	}
	for i, r := range rows8 {
		if r.Name != fig8Benchmarks[i] || !ok(r.Speedup) || !ok(r.SpeedupInstrumented) {
			t.Errorf("Fig 8 row %d: %+v, want %s with finite positive ratios", i, r, fig8Benchmarks[i])
		}
	}
	rows10, err := Fig10(context.Background(), &buf, small)
	if err != nil {
		t.Fatal(err)
	}
	threads := []int{1, 2, 4, 8}
	if len(rows10) != len(threads) {
		t.Fatalf("Fig 10: %d rows, want one per host-thread count %v", len(rows10), threads)
	}
	for i, r := range rows10 {
		if r.Threads != threads[i] || !ok(r.SobelSpeedup) || !ok(r.BinarySearchSpeedup) {
			t.Errorf("Fig 10 row %d: %+v, want %d threads with finite positive ratios", i, r, threads[i])
		}
	}
}

func TestFig9BaselineScalesWorse(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig9(context.Background(), &buf, small)
	if err != nil {
		t.Fatal(err)
	}
	// The Fig 9 gap, on counts (the durations are report-only: a few
	// milliseconds of host time say nothing under load). Both runs are the
	// same SobelFilter on the same stack, so they retire the same guest
	// instructions; the interpreted baseline fetches and decodes every one
	// of them, while the DBT decodes each block once.
	for _, r := range rows {
		if r.BaselineInstrs != r.OursInstrs {
			t.Errorf("%dx%d: baseline retired %d guest instructions, ours %d; the baseline must do the same work", r.Dim, r.Dim, r.BaselineInstrs, r.OursInstrs)
		}
		if r.BaselineDecodes != r.BaselineInstrs {
			t.Errorf("%dx%d: baseline decoded %d of %d retired instructions; the interpreter decodes each one", r.Dim, r.Dim, r.BaselineDecodes, r.BaselineInstrs)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.BaselineDecodes < 10*last.OursDecodes {
		t.Errorf("baseline decodes %d not clearly above ours %d", last.BaselineDecodes, last.OursDecodes)
	}
	// Both retire more guest instructions as the input grows, but only the
	// baseline's dispatch work grows with them.
	if last.OursInstrs <= first.OursInstrs || last.BaselineInstrs <= first.BaselineInstrs {
		t.Errorf("guest instructions should grow with input size: ours %d -> %d, baseline %d -> %d",
			first.OursInstrs, last.OursInstrs, first.BaselineInstrs, last.BaselineInstrs)
	}
	if growth := last.BaselineDecodes - first.BaselineDecodes; growth <= 10*(last.OursDecodes-first.OursDecodes) {
		t.Errorf("baseline decode growth %d not clearly above ours %d", growth, last.OursDecodes-first.OursDecodes)
	}
}

func TestTable3SystemStatsShape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table3(context.Background(), &buf, small)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	bfs, sobel, stencil := byName["BFS"], byName["SobelFilter"], byName["Stencil"]
	// BFS is control-heavy: many jobs, far more register traffic and
	// interrupts than single-kernel benchmarks.
	if bfs.Sys.ComputeJobs < 5 || bfs.Sys.ComputeJobs <= sobel.Sys.ComputeJobs {
		t.Errorf("BFS jobs = %d, sobel = %d; BFS should dominate", bfs.Sys.ComputeJobs, sobel.Sys.ComputeJobs)
	}
	if bfs.Sys.CtrlRegWrites <= sobel.Sys.CtrlRegWrites {
		t.Error("BFS should generate more control-register writes than SobelFilter")
	}
	// Stencil submits one job per iteration.
	if stencil.Sys.ComputeJobs < 10 {
		t.Errorf("stencil jobs = %d, want its iteration count", stencil.Sys.ComputeJobs)
	}
	// One interrupt per submission (plus none spurious).
	if sobel.Sys.IRQsAsserted == 0 {
		t.Error("SobelFilter should raise at least one interrupt")
	}
}

func TestTables2And4Print(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SobelFilter") {
		t.Error("Table II missing benchmarks")
	}
	buf.Reset()
	if err := Table4(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"GPGPU-Sim", "Multi2Sim", "This reproduction"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q", want)
		}
	}
}

func TestFig14RelativeMetrics(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig14(context.Background(), &buf, small)
	if err != nil {
		t.Fatal(err)
	}
	fast, expr := rows[0], rows[1]
	if fast.ArithInstr >= 1 || expr.ArithInstr >= fast.ArithInstr {
		t.Errorf("instruction ratios should shrink: fast=%.2f express=%.2f", fast.ArithInstr, expr.ArithInstr)
	}
	if fast.LocalLS <= fast.ArithInstr {
		t.Errorf("local-LS ratio (%.2f) should exceed the instruction ratio (%.2f)", fast.LocalLS, fast.ArithInstr)
	}
	if !(expr.FPSRel > fast.FPSRel && fast.FPSRel > 1) {
		t.Errorf("FPS should improve: fast=%.2f express=%.2f", fast.FPSRel, expr.FPSRel)
	}
}

func TestFig15Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig15(context.Background(), &buf, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d variants", len(rows))
	}
	byID := map[int]Fig15Row{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	// Mali winner is variant 4; desktop winner is variant 6; no
	// correlation between the two platforms.
	for id := 1; id <= 6; id++ {
		if id != 4 && byID[4].MaliTime >= byID[id].MaliTime {
			t.Errorf("variant 4 should win on Mali (v4=%.2f v%d=%.2f)", byID[4].MaliTime, id, byID[id].MaliTime)
		}
		if id != 6 && byID[6].NVIDIATime >= byID[id].NVIDIATime {
			t.Errorf("variant 6 should win on NVIDIA model (v6=%.2f v%d=%.2f)", byID[6].NVIDIATime, id, byID[id].NVIDIATime)
		}
	}
	if byID[1].NVIDIATime != 1 {
		t.Errorf("variant 1 should be the NVIDIA-model slowest (=1.0), got %.2f", byID[1].NVIDIATime)
	}
}

func TestParseScaleRefusesUnknownNames(t *testing.T) {
	for _, k := range []ScaleKind{ScaleSmall, ScaleDefault, ScalePaper} {
		if got, err := ParseScale(string(k)); err != nil || got != k {
			t.Errorf("ParseScale(%q) = %q, %v", k, got, err)
		}
	}
	for _, name := range []string{"bogus", "", "Small"} {
		if _, err := ParseScale(name); err == nil {
			t.Errorf("ParseScale(%q) accepted an unknown scale", name)
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestIndexLookup(t *testing.T) {
	// Each description names what its experiment measures; the usage text
	// prints them.
	want := map[string]string{
		"fig1":   "compiler-version instruction counts",
		"fig6":   "BFS divergence CFG",
		"fig7":   "full-stack slowdown vs native",
		"fig8":   "simulation-rate comparison",
		"fig9":   "driver runtime vs input size",
		"fig10":  "host-thread scaling",
		"fig11":  "instruction mixes",
		"fig12":  "data-access breakdowns",
		"fig13":  "clause-size distributions",
		"fig14":  "SLAMBench configuration study",
		"fig15":  "SGEMM tuning-ladder study",
		"table2": "benchmark suite inventory",
		"table3": "system-interaction statistics",
		"table4": "simulator feature comparison",
	}
	if len(Index) != len(want) {
		t.Errorf("Index has %d experiments, want %d", len(Index), len(want))
	}
	for _, e := range Index {
		got, err := Lookup(e.Name)
		if err != nil || got.Name != e.Name || got.Run == nil {
			t.Errorf("Lookup(%q) = %+v, %v", e.Name, got.Name, err)
		}
		if e.Description != want[e.Name] {
			t.Errorf("%s: description %q, want %q", e.Name, e.Description, want[e.Name])
		}
	}
	if _, err := Lookup("fig07"); err == nil || !strings.Contains(err.Error(), `did you mean "fig7"`) {
		t.Errorf("unknown name: error %v does not suggest fig7", err)
	}
}
