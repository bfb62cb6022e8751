package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mobilesim"
	"mobilesim/internal/hostd"
)

// runCLI runs the command with args and returns its exit status and
// output streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestUsageErrors: flags that only one mode reads are refused in the
// other, as are a missing job list, -cfg with a batch and unknown flags —
// each before anything boots.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-check-local", "BFS"},
		{"-hedge", "1s", "BFS"},
		{"-stats", "BFS"},
		{"-hosts", "http://127.0.0.1:1", "-cfg", "BFS"},
		{"-hosts", "http://127.0.0.1:1", "-workers", "2", "BFS"},
		{"-cfg", "BFS", "SPMV"},
		{"-cfg", "-workers", "2", "BFS"},
		{"-cfg", "-suite"},
		{"-no-such-flag", "BFS"},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("mobilesim %s: exit %d, want 2 (stdout %q, stderr %q)", strings.Join(args, " "), code, stdout, stderr)
		}
		if stderr == "" {
			t.Errorf("mobilesim %s: no usage message", strings.Join(args, " "))
		}
	}
}

func TestUnknownWorkloadSuggestsNearest(t *testing.T) {
	code, _, stderr := runCLI("Binarysearch")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, `did you mean "BinarySearch"?`) {
		t.Errorf("stderr does not suggest BinarySearch:\n%s", stderr)
	}
}

func TestSuiteSmallRunsLocally(t *testing.T) {
	code, stdout, stderr := runCLI("-ram", "128", "-threads", "1", "-suite", "-small")
	n := len(mobilesim.Benchmarks())
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if want := fmt.Sprintf("batch: %d ok, 0 failed", n); !strings.Contains(stdout, want) {
		t.Errorf("stdout lacks %q:\n%s", want, stdout)
	}
}

// TestHostsCheckLocal fans the small suite over two in-process mobilesimd
// hosts and requires the cluster aggregate to equal a local run of the
// same jobs.
func TestHostsCheckLocal(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := hostd.New(hostd.Config{Sim: mobilesim.Config{RAMSize: 128 << 20, HostThreads: 1}, PoolSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		hs := httptest.NewServer(srv.Mux())
		t.Cleanup(hs.Close)
		urls = append(urls, hs.URL)
	}
	code, stdout, stderr := runCLI("-hosts", strings.Join(urls, ","),
		"-ram", "128", "-threads", "1", "-suite", "-small", "-check-local", "-stats")
	if code != 0 {
		t.Fatalf("exit %d:\n%s\n%s", code, stdout, stderr)
	}
	for _, want := range []string{
		"local check: cluster aggregate is bit-identical to the local run",
		"delivery: retries=",
		urls[0], urls[1],
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestCompareAggregates: -check-local refuses a one-counter difference in
// any deterministic part of the aggregate, and ignores host wall-clock.
func TestCompareAggregates(t *testing.T) {
	var base mobilesim.Stats
	base.GPU.ArithInstr = 100
	base.System.ComputeJobs = 3
	base.GuestInstructions = 1000

	for _, tc := range []struct {
		name  string
		mut   func(*mobilesim.Stats)
		match bool
	}{
		{"identical", func(*mobilesim.Stats) {}, true},
		{"driver CPU time", func(s *mobilesim.Stats) { s.DriverCPUTime = time.Second }, true},
		{"one GPU counter", func(s *mobilesim.Stats) { s.GPU.ArithInstr++ }, false},
		{"one system counter", func(s *mobilesim.Stats) { s.System.ComputeJobs++ }, false},
		{"guest instructions", func(s *mobilesim.Stats) { s.GuestInstructions++ }, false},
	} {
		other := base
		tc.mut(&other)
		if err := compareAggregates(other, base); (err == nil) != tc.match {
			t.Errorf("%s: compareAggregates = %v, want match=%v", tc.name, err, tc.match)
		}
	}
}
