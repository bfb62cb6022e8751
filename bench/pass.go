package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mobilesim"
	"mobilesim/internal/cluster"
	"mobilesim/internal/hostd"
)

// procStart is the zero point of every span: as close to process start as
// a Go program can observe.
var procStart = time.Now()

const warmupRounds = 3

// passSpec is what the parent asks one child process to do.
type passSpec struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Pass     int           `json:"pass"`
	Budget   time.Duration `json:"budget_ns"` // timed rounds run until this much time has passed
	Trace    bool          `json:"trace"`     // record spans on every second timed round
	// Probes measures the snapshot-layer extras (decode, ref stability)
	// after the timed rounds; they need a second boot, so one pass of a
	// traced run does them, outside every timed interval.
	Probes bool `json:"probes"`
	// SlamPin is golden.json's slam/express instruction count (0 = none).
	SlamPin uint64 `json:"slam_pin"`
}

// roundRec is one timed round.
type roundRec struct {
	NS     int64 `json:"ns"`     // wall time
	CPUNS  int64 `json:"cpu_ns"` // process CPU time
	Traced bool  `json:"traced"`
	// CalibNS is the CPU time of the reference loop run right after the
	// round (calib.go).
	CalibNS int64 `json:"calib_ns"`
}

// passRecord is what a child sends back over its pipe: raw samples and
// counters; the parent pools the passes and derives every metric.
type passRecord struct {
	Pass int `json:"pass"`
	// SetupNS is the CPU time the process used from its start to the first
	// timed round, SetupCalibNS the median of the reference loops run along
	// the way.
	SetupNS      int64  `json:"setup_ns"`
	SetupCalibNS int64  `json:"setup_calib_ns"`
	Counts       counts `json:"counts"` // first timed round
	// CountsStable: every later round reported the same GPU counts.
	CountsStable bool       `json:"counts_stable"`
	Rounds       []roundRec `json:"rounds"`
	Spans        []span     `json:"spans,omitempty"`
	Attempted    int        `json:"attempted"`
	Failed       int        `json:"failed"`
	Errors       []string   `json:"errors,omitempty"` // first few failures, for the log

	CaptureNS    int64 `json:"capture_ns"`
	EncodeNS     int64 `json:"encode_ns"`
	EncodedBytes int64 `json:"encoded_bytes"`
	ShipNS       int64 `json:"ship_ns"`
	DecodeNS     int64 `json:"decode_ns"`
	RefStable    bool  `json:"ref_stable"`

	AllocBytes uint64  `json:"alloc_bytes"` // over the timed rounds
	Mallocs    uint64  `json:"mallocs"`
	GCCycles   uint32  `json:"gc_cycles"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`

	Serve *serveRecord `json:"serve,omitempty"`
}

// serveRecord is what hostd's /api/v1/stats and cluster.Report said at the
// end of a serve pass. Latencies there are log-bucket estimates (≤ ~2×).
type serveRecord struct {
	PoolHits       uint64  `json:"pool_hits"`
	PoolInline     uint64  `json:"pool_inline_forks"`
	GetWaitP50US   float64 `json:"get_wait_p50_us"`
	RefillP50US    float64 `json:"refill_fork_p50_us"`
	DedupHits      uint64  `json:"dedup_hits"`
	Failures       uint64  `json:"failures"`
	DispatchP50MS  float64 `json:"dispatch_p50_ms"`
	Retries        uint64  `json:"retries"`
	Hedges         uint64  `json:"hedges"`
	Discarded      uint64  `json:"discarded"`
	Reships        uint64  `json:"reships"`
	RequestsServed uint64  `json:"requests"`
}

// env is a pass's set-up state.
type env struct {
	w    *workload
	in   *inputs
	tr   *tracer
	spec *passSpec

	snap *mobilesim.Snapshot // fork workloads

	// serve
	host    *hostd.Server
	httpd   *httptest.Server
	cluster *cluster.Cluster
	jobs    []cluster.Job
	// runSpan is the cluster_run span the HTTP client parents request
	// spans to; written between rounds only.
	runSpan int
}

// runPass is a child process's whole life: set up, warm up, time rounds
// until the budget is spent, collect what the program's own counters say.
func runPass(ctx context.Context, spec *passSpec) (*passRecord, error) {
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	rec := &passRecord{Pass: spec.Pass, CountsStable: true}
	e := &env{w: w, in: makeInputs(w, spec.Seed), tr: &tracer{t0: procStart}, spec: spec}
	if err := e.setUp(ctx, rec); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.tearDown()

	// The reference loop is sampled along the set-up, after the boot and
	// after each warm-up round, so that set-up time is scaled by the host
	// speed of the moments it was spent in; the loops' own CPU time is not
	// set-up.
	calibs := []float64{float64(calibrate())}
	for i := 0; i < warmupRounds; i++ {
		e.round(ctx, rec, false)
		calibs = append(calibs, float64(calibrate()))
	}
	if rec.Failed > 0 {
		// A broken workload is not worth timing; the parent reports it.
		return rec, nil
	}
	rec.SetupNS = int64(cpuTime() - calibSpent)
	rec.SetupCalibNS = int64(median(calibs))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	// At least two rounds, and in a traced run an even number, so traced
	// and untraced rounds alternate in pairs.
	for n := 0; n < 2 || time.Since(start) < spec.Budget || (spec.Trace && n%2 == 1); n++ {
		traced := spec.Trace && n%2 == 1
		t0, c0 := time.Now(), cpuTime()
		c := e.round(ctx, rec, traced)
		ns, cpu := int64(time.Since(t0)), int64(cpuTime()-c0)
		rec.Rounds = append(rec.Rounds, roundRec{NS: ns, CPUNS: cpu, Traced: traced, CalibNS: int64(calibrate())})
		if n == 0 {
			rec.Counts = c
		} else if !c.sameGPU(&rec.Counts, w.Tol) {
			rec.CountsStable = false
			if len(rec.Errors) < 5 {
				rec.Errors = append(rec.Errors, fmt.Sprintf("round %d: GPU counts %+v differ from round 0's %+v", n, c, rec.Counts))
			}
		}
	}
	runtime.ReadMemStats(&m1)
	rec.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rec.Mallocs = m1.Mallocs - m0.Mallocs
	rec.GCCycles = m1.NumGC - m0.NumGC
	rec.PeakRSSMB = peakRSSMB()

	if e.host != nil {
		if rec.Serve, err = e.serveStats(ctx); err != nil {
			return nil, err
		}
	}
	if spec.Probes {
		if err := snapshotProbes(rec); err != nil {
			return nil, err
		}
	}
	rec.Spans = e.tr.spans
	for i := range rec.Spans {
		rec.Spans[i].Pass = spec.Pass
	}
	return rec, nil
}

// bootAndCapture cold-boots the base session and captures the warm
// snapshot every fork of the pass starts from.
func bootAndCapture(rec *passRecord) (*mobilesim.Snapshot, error) {
	base, err := mobilesim.New(simConfig)
	if err != nil {
		return nil, err
	}
	defer base.Close()
	t0 := time.Now()
	snap, err := base.Snapshot()
	rec.CaptureNS = int64(time.Since(t0))
	return snap, err
}

func encodeSnapshot(snap *mobilesim.Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (e *env) setUp(ctx context.Context, rec *passRecord) error {
	switch e.w.Kind {
	case kindCold:
		return nil
	case kindFork:
		snap, err := bootAndCapture(rec)
		e.snap = snap
		return err
	}

	// serve: what `mobilesimd` does at start-up (boot, capture, default
	// pool) and what a Batch with Hosts does before its first job (boot,
	// capture, encode, ship).
	var err error
	if e.host, err = hostd.New(hostd.Config{Sim: simConfig, PoolSize: 2}); err != nil {
		return err
	}
	e.httpd = httptest.NewServer(e.host.Mux())
	snap, err := bootAndCapture(rec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	enc, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	rec.EncodeNS, rec.EncodedBytes = int64(time.Since(t0)), int64(len(enc))

	e.cluster, err = cluster.New(cluster.Options{
		Hosts:          []string{e.httpd.URL},
		PerHostStreams: 1,
		Client:         &http.Client{Transport: &tracingTransport{base: e.httpd.Client().Transport, e: e}},
	})
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := e.cluster.Ship(ctx, enc); err != nil {
		return err
	}
	rec.ShipNS = int64(time.Since(t0))
	for _, i := range e.in.Order {
		e.jobs = append(e.jobs, cluster.Job{Workload: e.w.Jobs[i].Name, Scale: e.w.Jobs[i].Scale})
	}
	return nil
}

func (e *env) tearDown() {
	if e.httpd != nil {
		e.httpd.Close()
	}
	if e.host != nil {
		e.host.Close()
	}
}

// round runs the workload's operations once, in the seed's order, and
// returns the counters the program reported for them. Every operation is
// verified; failures are tallied in rec and do not stop the round.
func (e *env) round(ctx context.Context, rec *passRecord, traced bool) counts {
	e.tr.setOn(traced)
	defer e.tr.setOn(false)
	id := e.tr.begin("round", 0, 0)
	defer e.tr.end(id)

	var c counts
	tally := func(name string, r opResult, err error) {
		rec.Attempted++
		if err != nil {
			rec.Failed++
			if len(rec.Errors) < 5 {
				rec.Errors = append(rec.Errors, err.Error())
			}
			return
		}
		c.add(&r.stats, r.mobile, r.desktop)
		if name == slamPin {
			c.SlamInstr += r.stats.GPU.TotalInstr()
		}
	}

	if e.w.Kind == kindServe {
		// The coordinator's own cost is this span's self time: the call
		// minus the requests it made.
		e.runSpan = e.tr.begin("cluster_run", id, 0)
		res, err := e.cluster.Run(ctx, e.jobs)
		e.tr.end(e.runSpan)
		for i := range e.jobs {
			name := e.jobs[i].Workload
			if err != nil {
				tally(name, opResult{}, err)
				continue
			}
			r, jerr := serveResult(&res.Jobs[i])
			tally(name, r, jerr)
		}
		return c
	}

	fork := func() (*mobilesim.Session, error) {
		return mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(e.snap))
	}
	for _, i := range e.in.Order {
		if i >= len(e.w.Jobs) {
			r, err := sessionOp(e.tr, id, "cold_boot", coldBoot, func(parent, op int, s *mobilesim.Session) (opResult, error) {
				return quickstartBody(ctx, e.tr, parent, op, s, e.in)
			})
			tally("quickstart", r, err)
			continue
		}
		j, cold := e.w.Jobs[i], e.w.Kind == kindCold
		boot, open := "fork", fork
		if cold {
			boot, open = "cold_boot", coldBoot
		}
		r, err := sessionOp(e.tr, id, boot, open, func(parent, op int, s *mobilesim.Session) (opResult, error) {
			return runJob(ctx, e.tr, parent, op, s, j, e.spec.SlamPin, e.w.Tol, cold)
		})
		tally(j.Name, r, err)
	}
	return c
}

// serveResult verifies one job the cluster delivered and lifts the
// response's statistics into the shape the local workloads produce.
func serveResult(jr *cluster.JobResult) (opResult, error) {
	if jr.Err != nil {
		return opResult{}, jr.Err
	}
	resp := jr.Response
	if resp == nil {
		return opResult{}, fmt.Errorf("%s: no response", jr.Job.Workload)
	}
	out := opResult{
		stats: mobilesim.Stats{
			GPU:               resp.Stats.GPU,
			System:            resp.Stats.System,
			GuestInstructions: resp.Stats.GuestInstructions,
		},
		mobile:  resp.Modeled.MobileCycles,
		desktop: resp.Modeled.DesktopCycles,
	}
	return out, checkRun(resp.Workload, resp.Verified, resp.VerifyError, 0, 0, 0)
}

// tracingTransport is the serve client's HTTP transport. On traced rounds
// it records a request span from send to the last body byte, and inside
// it the wall and queue-wait times the host reported, so the request's
// self time is what HTTP, JSON, hostd and the pool hand-out cost.
type tracingTransport struct {
	base http.RoundTripper
	e    *env
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.e.tr
	if req.URL.Path != cluster.PathRun {
		return t.base.RoundTrip(req)
	}
	op := tr.newOp()
	id := tr.begin("request", t.e.runSpan, op)
	resp, err := t.base.RoundTrip(req)
	if err != nil || id == 0 {
		tr.end(id)
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := tr.end(id)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))

	var timing struct {
		SimMS       float64 `json:"sim_ms"`
		WallMS      float64 `json:"wall_ms"`
		QueueWaitMS float64 `json:"queue_wait_ms"`
		Stats       struct {
			DriverCPUNS int64 `json:"driver_cpu_ns"`
		} `json:"stats"`
	}
	if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &timing) == nil {
		// The host's intervals sit somewhere inside the request; where
		// exactly does not change any self time, so they are centred.
		queue, wall := msToNS(timing.QueueWaitMS), msToNS(timing.WallMS)
		start := r.Start + max(0, (r.dur()-int64(queue+wall))/2)
		tr.interval("queue_wait", id, op, start, queue)
		run := tr.interval("run", id, op, start+int64(queue), wall)
		tr.annotate(run, msToNS(timing.SimMS), time.Duration(timing.Stats.DriverCPUNS), queue)
	}
	return resp, nil
}

func msToNS(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// serveStats reads the program's own serving counters.
func (e *env) serveStats(ctx context.Context) (*serveRecord, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.httpd.URL+cluster.PathStats, nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.httpd.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	type latency struct {
		P50MS float64 `json:"p50_ms"`
	}
	var st struct {
		Requests  uint64 `json:"requests"`
		Failures  uint64 `json:"failures"`
		DedupHits uint64 `json:"dedup_hits"`
		Snapshots []struct {
			Hits        uint64  `json:"hits"`
			InlineForks uint64  `json:"inline_forks"`
			GetWait     latency `json:"get_wait"`
			RefillFork  latency `json:"refill_fork"`
		} `json:"snapshots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("hostd stats: %w", err)
	}
	if len(st.Snapshots) != 1 {
		return nil, fmt.Errorf("hostd stats: %d installed snapshots, want the one shipped", len(st.Snapshots))
	}
	pool := st.Snapshots[0]
	rep := e.cluster.Report()
	return &serveRecord{
		PoolHits:       pool.Hits,
		PoolInline:     pool.InlineForks,
		GetWaitP50US:   pool.GetWait.P50MS * 1e3,
		RefillP50US:    pool.RefillFork.P50MS * 1e3,
		DedupHits:      st.DedupHits,
		Failures:       st.Failures,
		RequestsServed: st.Requests,
		DispatchP50MS:  float64(rep.Hosts[0].Dispatch.Summary().P50) / 1e6,
		Retries:        rep.Retries,
		Hedges:         rep.Hedges,
		Discarded:      rep.Discarded,
		Reships:        rep.Reships,
	}, nil
}

// snapshotProbes measures what the snapshot layer costs a host that
// receives an image (decode) and whether two boots of one Config encode
// to the same content address — if not, every cluster Batch re-installs
// the image on every host.
func snapshotProbes(rec *passRecord) error {
	var refs [2]string
	var enc []byte
	for i := range refs {
		var scratch passRecord
		snap, err := bootAndCapture(&scratch)
		if err != nil {
			return err
		}
		if enc, err = encodeSnapshot(snap); err != nil {
			return err
		}
		refs[i] = cluster.Ref(enc)
	}
	rec.RefStable = refs[0] == refs[1]
	t0 := time.Now()
	if _, err := mobilesim.ReadSnapshot(bytes.NewReader(enc)); err != nil {
		return err
	}
	rec.DecodeNS = int64(time.Since(t0))
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc does not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
