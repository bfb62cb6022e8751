package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexEdges pins the bucket mapping at every interesting edge:
// zero, one nanosecond, exact power-of-two boundaries on both sides, and
// the overflow cutover.
func TestBucketIndexEdges(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1<<39 - 1, NumBuckets - 1}, // last finite bucket's top
		{1 << 39, NumBuckets},       // first overflow value
		{math.MaxInt64, NumBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestBucketBoundsRoundTrip checks that every bucket's bounds contain
// exactly the values that map to it.
func TestBucketBoundsRoundTrip(t *testing.T) {
	for i := 0; i < NumBuckets; i++ {
		lo, hi := bucketBounds(i)
		if bucketIndex(lo) != i || bucketIndex(hi) != i {
			t.Errorf("bucket %d bounds [%d,%d] do not map back to bucket %d", i, lo, hi, i)
		}
		if i > 0 && bucketIndex(lo-1) != i-1 {
			t.Errorf("bucket %d: lo-1=%d should map to bucket %d", i, lo-1, i-1)
		}
	}
	lo, _ := bucketBounds(NumBuckets)
	if lo != 1<<39 {
		t.Errorf("overflow bucket lower bound = %d, want %d", lo, int64(1)<<39)
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(-5 * time.Second) // clamped to 0
	h.Observe(3)
	h.Observe(time.Duration(1) << 39) // overflow

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := uint64(1+3) + uint64(1)<<39; s.SumNS != want {
		t.Fatalf("sum = %d, want %d", s.SumNS, want)
	}
	for i, want := range map[int]uint64{0: 2, 1: 1, 2: 1, NumBuckets: 1} {
		if s.Buckets[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Buckets[i], want)
		}
	}
}

// TestQuantileExactBuckets places known values and checks the estimates
// stay within their buckets and hit exact values where the bucket is a
// single point (bucket 0) or fully consumed.
func TestQuantileExactBuckets(t *testing.T) {
	var h Histogram
	// 90 zero observations, 10 in bucket 11 ([1024, 2047] ns).
	for i := 0; i < 90; i++ {
		h.Observe(0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1500)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.50); got != 0 {
		t.Errorf("p50 = %v, want 0", got)
	}
	if got := s.Quantile(0.90); got != 0 {
		// rank ceil(0.9*100)=90 is the last zero observation
		t.Errorf("p90 = %v, want 0", got)
	}
	p99 := s.Quantile(0.99)
	if p99 < 1024 || p99 > 2047 {
		t.Errorf("p99 = %v, want within [1024ns, 2047ns]", p99)
	}
	// The very last rank must land at the top of the occupied bucket.
	if got := s.Quantile(1.0); got != 2047 {
		t.Errorf("p100 = %v, want 2047ns", got)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var s Snapshot
	if got := s.Quantile(0.99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
	var h Histogram
	h.Observe(time.Microsecond)
	s = h.Snapshot()
	p50 := s.Quantile(0.50)
	if p50 < 512 || p50 > 1023 {
		t.Errorf("single-value p50 = %v, want within its bucket [512ns,1023ns]", p50)
	}
}

// TestQuantileOverflow: ranks landing in the overflow bucket report its
// lower bound — a floor, not an extrapolation.
func TestQuantileOverflow(t *testing.T) {
	var h Histogram
	h.Observe(time.Duration(math.MaxInt64))
	s := h.Snapshot()
	if got, want := s.Quantile(0.5), time.Duration(1)<<39; got != want {
		t.Errorf("overflow p50 = %v, want %v (bucket lower bound)", got, want)
	}
}

// TestSnapshotMerge: merging two snapshots must equal observing the
// union into one histogram, bucket for bucket.
func TestSnapshotMerge(t *testing.T) {
	var a, b, all Histogram
	obsA := []time.Duration{0, 1, 1024, time.Duration(1) << 39}
	obsB := []time.Duration{3, 1023, 1 << 20, time.Duration(math.MaxInt64)}
	for _, d := range obsA {
		a.Observe(d)
		all.Observe(d)
	}
	for _, d := range obsB {
		b.Observe(d)
		all.Observe(d)
	}
	merged := a.Snapshot()
	bs := b.Snapshot()
	merged.Merge(&bs)
	if want := all.Snapshot(); merged != want {
		t.Fatalf("merged snapshot differs from union:\n merged: %+v\n union:  %+v", merged, want)
	}
	union := all.Snapshot()
	if got, want := merged.Quantile(1.0), union.Quantile(1.0); got != want {
		t.Errorf("merged p100 %v != union p100 %v", got, want)
	}
}

func TestMeanAndSummary(t *testing.T) {
	var h Histogram
	h.Observe(100)
	h.Observe(300)
	s := h.Snapshot()
	if got := s.Mean(); got != 200 {
		t.Errorf("mean = %v, want 200ns", got)
	}
	sum := s.Summary()
	if sum.Count != 2 || sum.Sum != 400 || sum.Mean != 200 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.P50 > sum.P90 || sum.P90 > sum.P99 {
		t.Errorf("quantiles not monotone: %+v", sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const per = 1000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8*per {
		t.Fatalf("count = %d, want %d", got, 8*per)
	}
}

func TestWritePromSummary(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	s := h.Snapshot()
	var b strings.Builder
	WritePromSummaryHeader(&b, "x_seconds", "test metric")
	WritePromSummary(&b, "x_seconds", `workload="BFS"`, &s)
	out := b.String()
	for _, want := range []string{
		"# TYPE x_seconds summary\n",
		`x_seconds{workload="BFS",quantile="0.5"} `,
		`x_seconds{workload="BFS",quantile="0.99"} `,
		`x_seconds_sum{workload="BFS"} 1` + "\n",
		`x_seconds_count{workload="BFS"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition output missing %q:\n%s", want, out)
		}
	}
	// Unlabelled series must not emit empty braces.
	b.Reset()
	WritePromSummary(&b, "y_seconds", "", &s)
	if strings.Contains(b.String(), "{}") || !strings.Contains(b.String(), `y_seconds{quantile="0.5"}`) {
		t.Errorf("unlabelled exposition malformed:\n%s", b.String())
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := EscapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("EscapeLabel = %q", got)
	}
}
