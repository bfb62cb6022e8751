package mobilesim_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mobilesim"
	"mobilesim/internal/cluster"
	"mobilesim/internal/platform"
	"mobilesim/internal/simtest"
)

// snapCfg is the reference configuration for snapshot determinism tests:
// one host thread makes every workload — including BFS's benignly racy
// frontier — exactly deterministic, so cold-boot and restored runs can be
// compared bit for bit.
var snapCfg = mobilesim.Config{RAMSize: 256 << 20, HostThreads: 1}

// runStats runs one workload on a fresh session built by mk and returns
// the per-run stats delta with the host-time fields zeroed (wall-clock is
// not part of the deterministic contract).
func runStats(t *testing.T, mk func() (*mobilesim.Session, error), name string, scale int) mobilesim.Stats {
	t.Helper()
	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run(context.Background(), name, mobilesim.WithScale(scale))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("%s: verification failed: %v", name, res.VerifyErr)
	}
	st := res.Stats
	st.DriverCPUTime = 0
	return st
}

// TestForkIsolation proves a fork's writes never leak: siblings forked
// from the same snapshot, and the snapshot itself, are unaffected by a
// fork running workloads. Runs concurrently so -race also audits the
// shared image.
func TestForkIsolation(t *testing.T) {
	parent, err := mobilesim.New(snapCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Several forks run different workloads concurrently against the one
	// shared image.
	jobs := []struct {
		name  string
		scale int
	}{
		{"BFS", 4},
		{"MatrixTranspose", 0},
		{"Reduction", 0},
		{"BFS", 4},
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(name string, scale int) {
			defer wg.Done()
			s, err := mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(snap))
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			res, err := s.Run(context.Background(), name, mobilesim.WithScale(scale))
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if res.VerifyErr != nil {
				t.Errorf("%s: %v", name, res.VerifyErr)
			}
		}(j.name, j.scale)
	}
	wg.Wait()

	// After all that traffic, a fresh fork must still behave exactly like
	// the first fork of a pristine snapshot.
	a := runStats(t, func() (*mobilesim.Session, error) {
		return mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(snap))
	}, "BFS", 4)
	b := runStats(t, func() (*mobilesim.Session, error) {
		return mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(snap))
	}, "BFS", 4)
	if a != b {
		t.Fatalf("forks of a used snapshot diverge:\n%+v\n%+v", a, b)
	}
}

// TestSnapshotSerializationRoundTrip pins the wire format: encoding is
// deterministic, decode(encode(s)) restores a fully working session, and
// re-encoding the decoded snapshot is byte-identical.
func TestSnapshotSerializationRoundTrip(t *testing.T) {
	parent, err := mobilesim.New(snapCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	var buf1, buf2 bytes.Buffer
	if err := snap.Encode(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := snap.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}

	decoded, err := mobilesim.ReadSnapshot(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := decoded.Encode(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf3.Bytes()) {
		t.Fatal("decode/encode round trip changed the bytes")
	}

	cold := runStats(t, func() (*mobilesim.Session, error) {
		return mobilesim.New(snapCfg)
	}, "Reduction", 0)
	restored := runStats(t, func() (*mobilesim.Session, error) {
		return mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(decoded))
	}, "Reduction", 0)
	if cold != restored {
		t.Fatalf("decoded snapshot diverges:\ncold:     %+v\nrestored: %+v", cold, restored)
	}

	_, err = mobilesim.ReadSnapshot(bytes.NewReader([]byte("not a snapshot")))
	if err == nil {
		t.Fatal("garbage accepted as snapshot")
	}
	if !strings.HasPrefix(err.Error(), "mobilesim: snapshot: ") {
		t.Errorf("decode error %q does not say where it came from", err)
	}
}

// TestSnapshotWithMovedRAMBaseIsRefused patches the RAM image's base
// address in an encoded boot snapshot — what a POST /api/v1/snapshot body
// can carry. The stream still decodes, but it must not become a session:
// with main memory 4 KiB away from where the devices, the firmware and the
// allocator expect it, the first run never returned.
func TestSnapshotWithMovedRAMBaseIsRefused(t *testing.T) {
	s, err := mobilesim.New(snapCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// The image section opens with its base and its size, both u64.
	enc, section := buf.Bytes(), make([]byte, 16)
	binary.LittleEndian.PutUint64(section, platform.RAMBase)
	binary.LittleEndian.PutUint64(section[8:], snapCfg.RAMSize)
	at := bytes.Index(enc, section)
	if at < 0 {
		t.Fatal("no RAM image section in the encoded snapshot")
	}
	const moved = platform.RAMBase + 0x1000
	binary.LittleEndian.PutUint64(enc[at:], moved)

	bad, err := mobilesim.ReadSnapshot(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	forked, err := mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(bad))
	if err == nil {
		forked.Close()
		t.Fatal("a snapshot whose RAM image is not based at RAMBase became a session")
	}
	for _, want := range []string{fmt.Sprintf("%#x", uint64(moved)), fmt.Sprintf("%#x", uint64(platform.RAMBase))} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name base %s", err, want)
		}
	}
}

// TestTwoBootsEncodeIdentically pins that a snapshot's content address is a
// function of the configuration alone: two boots encode to the same bytes
// — no host time, no host scheduling in the image — so a cluster ships an
// image it has already installed zero times.
func TestTwoBootsEncodeIdentically(t *testing.T) {
	boot := func() []byte {
		s, err := mobilesim.New(mobilesim.Config{HostThreads: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := boot(), boot()
	if !bytes.Equal(a, b) {
		if len(a) != len(b) {
			t.Fatalf("two boots encode to %d and %d bytes", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("two boots' %d-byte encodings first differ at offset %d (%#x vs %#x)", len(a), i, a[i], b[i])
			}
		}
	}
	if ra, rb := cluster.Ref(a), cluster.Ref(b); ra != rb {
		t.Errorf("content addresses differ: %s vs %s", ra, rb)
	}
}

// TestSnapshotWaitsForRun pins that a capture happens only between runs:
// a snapshot requested while a run is executing waits for it, so the image
// includes all of that run's effects.
func TestSnapshotWaitsForRun(t *testing.T) {
	s, err := mobilesim.New(snapCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// BitonicSort is 36 launches, each a point a capture could land
	// between.
	started := make(chan struct{})
	spec := probe(t, "BitonicSort", started)
	type outcome struct {
		res *mobilesim.RunResult
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		res, err := s.RunSpec(context.Background(), spec, mobilesim.WithScale(spec.SmallScale))
		ran <- outcome{res, err}
	}()
	<-started
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	run := <-ran
	if run.err != nil {
		t.Fatal(run.err)
	}
	f, err := mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.Stats().System.ComputeJobs; got != bitonicJobs || !run.res.Verified {
		t.Fatalf("snapshot requested during a run holds %d compute jobs, want the run's %d (verified %v)",
			got, bitonicJobs, run.res.Verified)
	}
}

// TestCloseDuringQueuedSnapshot closes the session while a run is
// executing and a Snapshot is waiting behind it: the snapshot must fail
// with ErrClosed and Close must not tear the platform down until the
// run has let go of the session (audited under -race).
func TestCloseDuringQueuedSnapshot(t *testing.T) {
	s, err := mobilesim.New(snapCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The run parks until its context is cancelled: a controllable "long
	// run".
	started := make(chan struct{})
	blocking := hooked(t, "BinarySearch", func(ctx context.Context, _ func() (any, error)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	runErr := make(chan error, 1)
	go func() {
		_, err := s.RunSpec(context.Background(), blocking)
		runErr <- err
	}()
	<-started

	snapErr := make(chan error, 1)
	go func() {
		_, err := s.Snapshot()
		snapErr <- err
	}()
	s.Close()
	// The capture cannot have run: the session was held from before it was
	// requested until Close had cancelled everything waiting.
	if err := <-snapErr; !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("snapshot behind a run on a closing session returned %v, want ErrClosed", err)
	}
	if err := <-runErr; err == nil {
		t.Fatal("blocked run completed without error")
	}
}

// TestFromSnapshotConfigRules: a fork runs under the snapshot's own
// Config, and New refuses any other cfg beside FromSnapshot — a different
// shape, a restatement of the snapshot's, or a host-side knob alike.
func TestFromSnapshotConfigRules(t *testing.T) {
	parent, err := mobilesim.New(snapCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []mobilesim.Config{
		{RAMSize: 512 << 20},
		{ShaderCores: 2},
		{CompilerVersion: "5.6"},
		snapCfg,
		{RAMSize: 256 << 20},
		{HostThreads: 3},
	} {
		if s, err := mobilesim.New(cfg, mobilesim.FromSnapshot(snap)); err == nil {
			s.Close()
			t.Errorf("New(%+v, FromSnapshot) accepted", cfg)
		} else if !strings.Contains(err.Error(), "Config{}") {
			t.Errorf("New(%+v, FromSnapshot): %v, want an error naming Config{}", cfg, err)
		}
	}
	s, err := mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Config(); got != snapCfg {
		t.Errorf("fork's Config = %+v, want the snapshot's %+v", got, snapCfg)
	}
}

// TestSessionPool exercises the warm pool: hand-out, refill, on-demand
// forking and close semantics.
func TestSessionPool(t *testing.T) {
	parent, err := mobilesim.New(snapCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := mobilesim.NewSessionPool(snap, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Draw more sessions than the pool size: Get must never block.
	var sessions []*mobilesim.Session
	for i := 0; i < 5; i++ {
		s, err := pool.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	res, err := sessions[0].Run(context.Background(), "URNG")
	if err != nil || res.VerifyErr != nil {
		t.Fatalf("pooled session run: %v / %v", err, res.VerifyErr)
	}
	for _, s := range sessions {
		s.Close()
	}
	if pool.Forked() < 5 {
		t.Fatalf("forked %d sessions, want >= 5", pool.Forked())
	}
	// The refiller brings the pool back to its size, never past it.
	for deadline := time.Now().Add(30 * time.Second); pool.Warm() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pool holds %d warm sessions, want it refilled to 2", pool.Warm())
		}
	}
	if m := pool.Metrics(); m.Warm != 2 || m.Hits+m.InlineForks != 5 || m.Forked != pool.Forked() {
		t.Fatalf("metrics %+v: want 2 warm, 5 hand-outs, %d forked", m, pool.Forked())
	}

	pool.Close()
	pool.Close() // idempotent
	if _, err := pool.Get(context.Background()); err == nil {
		t.Fatal("Get succeeded on a closed pool")
	}
}

// TestSessionPoolCounters pins the hit / inline-fork accounting: every
// successful Get is exactly one of the two, and draining faster than the
// refiller takes the inline-fork path.
func TestSessionPoolCounters(t *testing.T) {
	parent, err := mobilesim.New(snapCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := mobilesim.NewSessionPool(snap, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Draw in a tight loop until the warm channel has been caught empty
	// at least once; the refiller needs a full fork per hand-out, so a
	// burst must eventually outrun it.
	var gets uint64
	deadline := time.Now().Add(30 * time.Second)
	for pool.InlineForks() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after %d draws the pool never forked inline (hits=%d)", gets, pool.Hits())
		}
		s, err := pool.Get(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		gets++
		s.Close()
	}
	if pool.Hits()+pool.InlineForks() != gets {
		t.Fatalf("hits %d + inline forks %d != %d hand-outs",
			pool.Hits(), pool.InlineForks(), gets)
	}
}

// TestSessionSetupStaysCheap pins, without a clock, the premise the serving
// layers are sized on: setting a session up and tearing it down — booted or
// forked — is a few dozen small allocations (27 and 26 as measured;
// BenchmarkColdBoot and BenchmarkSnapshotFork have the times). A fixed
// pool and a Batch that boots every job are the right size only while that
// holds: re-measure both benchmarks before raising a bound.
func TestSessionSetupStaysCheap(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	parent, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		opts  []mobilesim.NewOption
		bound float64
	}{
		{"cold boot", nil, 42},
		{"snapshot fork", []mobilesim.NewOption{mobilesim.FromSnapshot(snap)}, 38},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			s, err := mobilesim.New(mobilesim.Config{}, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
		if allocs > c.bound {
			t.Errorf("%s: New + Close allocates %v objects, want <= %v", c.name, allocs, c.bound)
		}
	}
}
