// Package cluster fans batches of simulation jobs out over N mobilesimd
// hosts: it ships one encoded warm snapshot to every host (content-
// addressed, idempotent), then dispatches jobs with work-stealing,
// bounded retry-with-backoff on host loss, and optional hedged requests
// for tail latency. Per-run statistics deltas come back exactly (integer
// counter records on the wire) and merge in job order, so a cluster run
// aggregates bit-identically to a local Batch run of the same jobs — the
// golden-stats determinism guarantee, end to end.
//
// Delivery discipline: a job may be attempted on several hosts (retries
// after failures, hedges racing a slow host), but exactly one response is
// accepted per job — the first to complete — and only accepted responses
// are merged. Within one host, RunRequest.IdempotencyKey makes duplicate
// deliveries replay the recorded response instead of re-executing. Both
// layers together make "ran at least once, counted exactly once" hold
// under retries, host loss and duplicate deliveries.
package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobilesim/internal/obs"
)

// ErrNoHosts is returned when every registered host has been marked dead.
var ErrNoHosts = errors.New("cluster: all hosts lost")

// Options configures a Cluster.
type Options struct {
	// Hosts are the mobilesimd base URLs (e.g. "http://10.0.0.1:8900").
	// At least one is required.
	Hosts []string
	// Client is the HTTP client used for every request; nil means a
	// default client with no global timeout (per-attempt lifetimes are
	// governed by the Run context).
	Client *http.Client
	// PerHostStreams is the number of jobs dispatched concurrently to one
	// host (default 2). Total in-flight work is bounded by
	// len(Hosts)*PerHostStreams; idle hosts steal queued jobs simply by
	// having free streams.
	PerHostStreams int
	// MaxAttempts bounds the total request attempts per job, hedges
	// included (default 4). A job whose attempts are exhausted fails with
	// the last error.
	MaxAttempts int
	// RetryBackoff is the delay before the first retry, doubling per
	// retry (default 50ms). No jitter: cluster sizes are small and
	// deterministic backoff keeps tests reproducible.
	RetryBackoff time.Duration
	// HedgeAfter launches a duplicate of a still-running job on a second
	// host after this delay, racing the two (0 disables hedging). The
	// duplicate carries the same idempotency key; the first response wins
	// and the loser is discarded, never merged.
	HedgeAfter time.Duration
	// HostFailureLimit is the number of consecutive transport/5xx
	// failures after which a host is declared dead and leaves the
	// rotation for the rest of the Cluster's life (default 3).
	HostFailureLimit int
}

func (o *Options) withDefaults() Options {
	d := *o
	if d.Client == nil {
		d.Client = &http.Client{}
	}
	if d.PerHostStreams <= 0 {
		d.PerHostStreams = 2
	}
	if d.MaxAttempts <= 0 {
		d.MaxAttempts = 4
	}
	if d.RetryBackoff <= 0 {
		d.RetryBackoff = 50 * time.Millisecond
	}
	if d.HostFailureLimit <= 0 {
		d.HostFailureLimit = 3
	}
	return d
}

// Job is one unit of cluster work: a registered workload name, an input
// scale and the snapshot ref its session is forked from.
type Job struct {
	Workload string
	Scale    int
	// Verify mirrors RunRequest.Verify (nil = host default, true).
	Verify *bool
	// Snapshot is the installed snapshot ref; Run fills it with the last
	// Ship's ref when empty.
	Snapshot string
}

// JobResult is the outcome of one Job.
type JobResult struct {
	Index int
	Job   Job
	// Host is the base URL of the host whose response was accepted.
	Host string
	// Attempts counts request attempts made (retries and hedges
	// included); Hedged reports that at least one hedge was launched.
	Attempts int
	Hedged   bool
	// Response is the accepted run response; nil when Err is set and no
	// attempt completed.
	Response *RunResponse
	// Err is the failure: exhausted retries, a permanent rejection, a
	// verification failure, or the context error.
	Err error
}

// Result summarises a cluster Run.
type Result struct {
	Jobs []JobResult
	// Completed counts jobs that ran and verified; Failed counts jobs
	// that errored or failed verification; Skipped counts jobs that never
	// produced a response because the context was cancelled.
	Completed, Failed, Skipped int
	// Aggregate merges the accepted per-run deltas in job-index order.
	Aggregate RunStats
	Wall      time.Duration
}

type host struct {
	url   string
	fails atomic.Int64 // consecutive transport/5xx failures
	dead  atomic.Bool
	runs  atomic.Uint64 // accepted responses

	// Attempt latency by kind: first dispatches, retries after a failed
	// round, and hedged duplicates. Failed attempts are observed too —
	// a host that fails fast shows up as a fast histogram with few runs,
	// which is exactly the signal an operator wants.
	dispatchLat obs.Histogram
	retryLat    obs.Histogram
	hedgeLat    obs.Histogram
}

// attemptKind tags which delivery path issued a request attempt, for
// per-host latency attribution.
type attemptKind int

const (
	attemptDispatch attemptKind = iota
	attemptRetry
	attemptHedge
)

func (h *host) observe(kind attemptKind, d time.Duration) {
	switch kind {
	case attemptRetry:
		h.retryLat.Observe(d)
	case attemptHedge:
		h.hedgeLat.Observe(d)
	default:
		h.dispatchLat.Observe(d)
	}
}

// Cluster is a host registry plus dispatch machinery. One Cluster is
// typically used for one Ship + one or more Run calls; dead hosts stay
// dead for its lifetime.
type Cluster struct {
	opts   Options
	client *http.Client
	hosts  []*host

	// slots is the work-stealing core: each live host contributes
	// PerHostStreams tokens. A job acquires a token (i.e. a free stream
	// on some host) to dispatch; faster hosts return tokens sooner and
	// therefore steal more of the queue. Tokens of dead hosts are retired
	// on sight instead of being returned.
	slots   chan *host
	live    atomic.Int64
	allDead chan struct{}
	deadOne sync.Once

	snapMu   sync.Mutex
	snapshot []byte
	snapRef  string

	retries   atomic.Uint64
	hedges    atomic.Uint64
	discarded atomic.Uint64 // completed duplicate responses dropped client-side
	reships   atomic.Uint64
}

// New validates opts and builds the host registry.
func New(opts Options) (*Cluster, error) {
	if len(opts.Hosts) == 0 {
		return nil, errors.New("cluster: no hosts")
	}
	o := opts.withDefaults()
	c := &Cluster{
		opts:    o,
		client:  o.Client,
		allDead: make(chan struct{}),
		slots:   make(chan *host, len(o.Hosts)*o.PerHostStreams),
	}
	seen := make(map[string]bool)
	for _, u := range o.Hosts {
		u = strings.TrimRight(u, "/")
		if u == "" {
			return nil, errors.New("cluster: empty host URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate host %s", u)
		}
		seen[u] = true
		h := &host{url: u}
		c.hosts = append(c.hosts, h)
		for i := 0; i < o.PerHostStreams; i++ {
			c.slots <- h
		}
	}
	c.live.Store(int64(len(c.hosts)))
	return c, nil
}

// HostLatency is one host's attempt-latency breakdown: every request
// attempt the coordinator issued against the host, split by delivery
// path. Failed attempts are included (a fast-failing host reads as a
// fast histogram with few accepted Runs).
type HostLatency struct {
	URL  string
	Dead bool
	// Runs counts responses accepted from this host.
	Runs uint64
	// Dispatch covers first attempts, Retry covers post-backoff retries,
	// Hedge covers hedged duplicates raced against a slow host.
	Dispatch, Retry, Hedge obs.Snapshot
}

// Report is a point-in-time observability snapshot of the cluster's
// delivery machinery: the lifetime delivery counters plus per-host
// attempt latencies, in Options.Hosts order.
type Report struct {
	// Retries and Hedges count the retry and hedge attempts dispatched
	// across all jobs; Discarded counts completed duplicate responses
	// dropped because another attempt of the same job had already been
	// accepted; Reships counts snapshot re-installations triggered by
	// hosts reporting an unknown snapshot ref.
	Retries, Hedges, Discarded, Reships uint64
	Hosts                               []HostLatency
}

// Report captures the cluster's delivery counters and per-host latency
// histograms.
func (c *Cluster) Report() Report {
	r := Report{
		Retries:   c.retries.Load(),
		Hedges:    c.hedges.Load(),
		Discarded: c.discarded.Load(),
		Reships:   c.reships.Load(),
		Hosts:     make([]HostLatency, len(c.hosts)),
	}
	for i, h := range c.hosts {
		r.Hosts[i] = HostLatency{
			URL:      h.url,
			Dead:     h.dead.Load(),
			Runs:     h.runs.Load(),
			Dispatch: h.dispatchLat.Snapshot(),
			Retry:    h.retryLat.Snapshot(),
			Hedge:    h.hedgeLat.Snapshot(),
		}
	}
	return r
}

// Ship installs an encoded snapshot on every live host and returns its
// content-addressed ref. Hosts that fail to install are marked dead; Ship
// fails only when no host accepted the snapshot. The bytes are retained
// so a host that later reports an unknown ref (e.g. it restarted) can be
// re-shipped transparently during Run.
func (c *Cluster) Ship(ctx context.Context, encoded []byte) (string, error) {
	ref := Ref(encoded)
	var wg sync.WaitGroup
	errs := make([]error, len(c.hosts))
	for i, h := range c.hosts {
		if h.dead.Load() {
			errs[i] = fmt.Errorf("%s: host is dead", h.url)
			continue
		}
		wg.Add(1)
		go func(i int, h *host) {
			defer wg.Done()
			if err := c.install(ctx, h, encoded, ref); err != nil {
				errs[i] = fmt.Errorf("%s: %w", h.url, err)
				c.killHost(h)
			}
		}(i, h)
	}
	wg.Wait()
	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok == 0 {
		return "", fmt.Errorf("cluster: snapshot install failed on every host: %w", errors.Join(errs...))
	}
	c.snapMu.Lock()
	c.snapshot = encoded
	c.snapRef = ref
	c.snapMu.Unlock()
	return ref, nil
}

// install POSTs the snapshot to one host and checks the ref round-trip.
func (c *Cluster) install(ctx context.Context, h *host, encoded []byte, ref string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url+PathSnapshot, bytes.NewReader(encoded))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("install: %s", httpErrorString(resp.StatusCode, body))
	}
	var sr SnapshotResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("install: bad response: %w", err)
	}
	if sr.Ref != ref {
		return fmt.Errorf("install: host computed ref %s, want %s", sr.Ref, ref)
	}
	return nil
}

// Run dispatches every job and blocks until each has an accepted
// response, a terminal failure, or the context is cancelled. Per-job
// failures are reported in the Result, not as an error; the error is
// ctx.Err() after cancellation and nil otherwise.
func (c *Cluster) Run(ctx context.Context, jobs []Job) (*Result, error) {
	t0 := time.Now()
	res := &Result{Jobs: make([]JobResult, len(jobs))}
	if len(jobs) == 0 {
		return res, nil
	}
	// Idempotency keys are runID/index: stable across every retry and
	// hedge of one job, unique across Run calls so two runs of the same
	// job list never dedup against each other.
	runID, err := nonce()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.snapMu.Lock()
	defaultRef := c.snapRef
	c.snapMu.Unlock()

	var wg sync.WaitGroup
	for i := range jobs {
		job := jobs[i]
		if job.Snapshot == "" {
			job.Snapshot = defaultRef
		}
		wg.Add(1)
		go func(i int, job Job) {
			defer wg.Done()
			res.Jobs[i] = c.driveJob(ctx, runID, i, job)
		}(i, job)
	}
	wg.Wait()

	// Merge in job-index order. The counters are integer sums (and one
	// max), so the aggregate is order-independent — but fixing the order
	// makes it byte-identical to a local Batch merge by construction.
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		switch {
		case jr.Response != nil:
			res.Aggregate.Merge(&jr.Response.Stats)
			if jr.Err != nil {
				res.Failed++
			} else {
				res.Completed++
			}
		case ctx.Err() != nil && errors.Is(jr.Err, ctx.Err()):
			res.Skipped++
		default:
			res.Failed++
		}
	}
	res.Wall = time.Since(t0)
	return res, ctx.Err()
}

// attemptOutcome is one request attempt's result.
type attemptOutcome struct {
	host *host
	resp *RunResponse
	err  error
	// permanent marks rejections that retrying cannot fix (4xx other
	// than an unknown snapshot): the job fails immediately.
	permanent bool
}

// driveJob owns one job's delivery state machine: acquire a host stream,
// attempt, hedge a duplicate if the attempt outlives HedgeAfter, accept
// the first completed response, retry with exponential backoff on
// retryable failures, give up after MaxAttempts.
func (c *Cluster) driveJob(ctx context.Context, runID string, idx int, job Job) JobResult {
	jr := JobResult{Index: idx, Job: job}
	key := runID + "/" + strconv.Itoa(idx)
	backoff := c.opts.RetryBackoff
	var avoid *host

	for jr.Attempts < c.opts.MaxAttempts {
		kind := attemptDispatch
		if jr.Attempts > 0 {
			kind = attemptRetry
			c.retries.Add(1)
			if err := sleepCtx(ctx, backoff); err != nil {
				jr.Err = err
				return jr
			}
			backoff *= 2
		}
		h, err := c.acquire(ctx, avoid)
		if err != nil {
			jr.Err = err
			return jr
		}
		jr.Attempts++
		results := make(chan attemptOutcome, 2)
		inflight := 1
		go c.attempt(ctx, h, job, key, kind, results)

		var hedgeC <-chan time.Time
		var hedgeTimer *time.Timer
		if c.opts.HedgeAfter > 0 {
			hedgeTimer = time.NewTimer(c.opts.HedgeAfter)
			hedgeC = hedgeTimer.C
		}
		stopHedge := func() {
			if hedgeTimer != nil {
				hedgeTimer.Stop()
				hedgeTimer = nil
			}
		}

		var lastFail attemptOutcome
		for inflight > 0 {
			select {
			case <-ctx.Done():
				stopHedge()
				c.drainDuplicates(results, inflight)
				jr.Err = ctx.Err()
				return jr
			case <-c.allDead:
				stopHedge()
				c.drainDuplicates(results, inflight)
				jr.Err = ErrNoHosts
				return jr
			case <-hedgeC:
				hedgeC = nil
				if jr.Attempts >= c.opts.MaxAttempts {
					continue
				}
				// Hedge only onto a different host with a free stream
				// right now — hedging must never queue behind real work
				// or double up on the slow host itself.
				h2, ok := c.tryAcquireOther(h)
				if !ok {
					continue
				}
				jr.Attempts++
				jr.Hedged = true
				c.hedges.Add(1)
				inflight++
				go c.attempt(ctx, h2, job, key, attemptHedge, results)
			case out := <-results:
				inflight--
				if out.err == nil {
					// First completed response wins; any still-running
					// duplicate is drained in the background and its
					// response discarded, never merged.
					stopHedge()
					c.drainDuplicates(results, inflight)
					out.host.runs.Add(1)
					jr.Host = out.host.url
					jr.Response = out.resp
					jr.Err = nil // clear the previous round's failure
					if out.resp.VerifyError != "" {
						jr.Err = fmt.Errorf("%s: verification failed: %s", job.Workload, out.resp.VerifyError)
					}
					return jr
				}
				lastFail = out
			}
		}
		stopHedge()
		jr.Err = lastFail.err
		if lastFail.permanent {
			return jr
		}
		avoid = lastFail.host
	}
	if jr.Err == nil {
		jr.Err = fmt.Errorf("cluster: job %d (%s): attempts exhausted", idx, job.Workload)
	}
	return jr
}

// drainDuplicates collects the remaining in-flight attempt outcomes in
// the background so their host streams are not blocked on an abandoned
// channel send (the channel is buffered for exactly this, but draining
// also counts discarded duplicates).
func (c *Cluster) drainDuplicates(results <-chan attemptOutcome, n int) {
	if n <= 0 {
		return
	}
	go func() {
		for i := 0; i < n; i++ {
			if out := <-results; out.err == nil {
				c.discarded.Add(1)
			}
		}
	}()
}

// attempt performs one HTTP run request on h, records its latency under
// the attempt kind, and reports the outcome. It owns h's stream token
// and releases it when done.
func (c *Cluster) attempt(ctx context.Context, h *host, job Job, key string, kind attemptKind, out chan<- attemptOutcome) {
	defer c.release(h)
	t0 := time.Now()
	resp, permanent, err := c.doRun(ctx, h, job, key, true)
	h.observe(kind, time.Since(t0))
	if err != nil && !permanent && ctx.Err() == nil {
		c.noteFailure(h)
	} else if err == nil {
		h.fails.Store(0)
	}
	out <- attemptOutcome{host: h, resp: resp, err: err, permanent: permanent}
}

// doRun performs the HTTP exchange. reshipOK allows one transparent
// snapshot re-installation when the host reports an unknown ref.
func (c *Cluster) doRun(ctx context.Context, h *host, job Job, key string, reshipOK bool) (*RunResponse, bool, error) {
	body, err := json.Marshal(RunRequest{
		Workload:       job.Workload,
		Scale:          job.Scale,
		Verify:         job.Verify,
		Snapshot:       job.Snapshot,
		IdempotencyKey: key,
	})
	if err != nil {
		return nil, true, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url+PathRun, bytes.NewReader(body))
	if err != nil {
		return nil, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", h.url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		// Mid-stream disconnect: the response started but never
		// finished. Retryable; the idempotency key makes the retry safe.
		return nil, false, fmt.Errorf("%s: reading response: %w", h.url, err)
	}
	if resp.StatusCode == http.StatusOK {
		var rr RunResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			return nil, false, fmt.Errorf("%s: bad run response: %w", h.url, err)
		}
		return &rr, false, nil
	}
	var er ErrorResponse
	_ = json.Unmarshal(raw, &er)
	if er.Code == CodeUnknownSnapshot && reshipOK {
		if c.reship(ctx, h) {
			return c.doRun(ctx, h, job, key, false)
		}
	}
	err = fmt.Errorf("%s: %s", h.url, httpErrorString(resp.StatusCode, raw))
	// 4xx (other than a re-shippable unknown snapshot) means the request
	// itself is wrong — unknown workload, bad scale — and no amount of
	// retrying fixes it. 5xx and 408 are host-side conditions worth
	// retrying elsewhere.
	permanent := resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusRequestTimeout
	return nil, permanent, err
}

// reship re-installs the retained snapshot on one host (it restarted or
// evicted the ref). Returns true when the run should be retried on h.
func (c *Cluster) reship(ctx context.Context, h *host) bool {
	c.snapMu.Lock()
	encoded, ref := c.snapshot, c.snapRef
	c.snapMu.Unlock()
	if encoded == nil {
		return false
	}
	if err := c.install(ctx, h, encoded, ref); err != nil {
		return false
	}
	c.reships.Add(1)
	return true
}

// noteFailure records a transport/5xx failure and kills the host at the
// consecutive-failure limit.
func (c *Cluster) noteFailure(h *host) {
	if h.fails.Add(1) >= int64(c.opts.HostFailureLimit) {
		c.killHost(h)
	}
}

// killHost removes a host from the rotation: its outstanding stream
// tokens are retired as they surface in acquire/release. When the last
// live host dies, every waiter is released with ErrNoHosts.
func (c *Cluster) killHost(h *host) {
	if h.dead.Swap(true) {
		return
	}
	if c.live.Add(-1) == 0 {
		c.deadOne.Do(func() { close(c.allDead) })
	}
}

// acquire blocks until a live host stream is free, preferring any host
// other than avoid (the one that just failed). When only avoid has free
// streams, it is returned anyway — retrying the same host after backoff
// beats stalling forever.
func (c *Cluster) acquire(ctx context.Context, avoid *host) (*host, error) {
	first, err := c.take(ctx)
	if err != nil {
		return nil, err
	}
	if avoid == nil || first != avoid {
		return first, nil
	}
	if second, ok := c.tryAcquireOther(avoid); ok {
		c.release(first)
		return second, nil
	}
	return first, nil
}

// take pulls the next live stream token, retiring dead hosts' tokens.
func (c *Cluster) take(ctx context.Context) (*host, error) {
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.allDead:
			return nil, ErrNoHosts
		case h := <-c.slots:
			if h.dead.Load() {
				continue // token retired
			}
			return h, nil
		}
	}
}

// tryAcquireOther grabs a free stream on any live host except not,
// without blocking. Tokens for not that surface during the scan are set
// aside and returned.
func (c *Cluster) tryAcquireOther(not *host) (*host, bool) {
	var aside []*host
	defer func() {
		for _, h := range aside {
			c.slots <- h
		}
	}()
	for i := 0; i < cap(c.slots); i++ {
		select {
		case h := <-c.slots:
			if h.dead.Load() {
				continue // token retired
			}
			if h == not {
				aside = append(aside, h)
				continue
			}
			return h, true
		default:
			return nil, false
		}
	}
	return nil, false
}

// release returns a stream token, retiring it if the host died while the
// attempt was in flight.
func (c *Cluster) release(h *host) {
	if !h.dead.Load() {
		c.slots <- h
	}
}

// sleepCtx sleeps d or returns early with ctx.Err().
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// httpErrorString renders a non-2xx response compactly.
func httpErrorString(status int, body []byte) string {
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error != "" {
		return fmt.Sprintf("HTTP %d: %s", status, er.Error)
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	if s == "" {
		return fmt.Sprintf("HTTP %d", status)
	}
	return fmt.Sprintf("HTTP %d: %s", status, s)
}

// nonce returns a random 64-bit hex string.
func nonce() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}
