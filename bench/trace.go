package main

import (
	"sort"
	"sync"
	"time"
)

// span is one harness-side interval around a public call into the
// simulator. Spans are recorded from outside the program (spans inside it
// are ROADMAP item 4): every span but a round names its parent, and the
// spans of one operation share Op.
type span struct {
	Pass   int    `json:"pass"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a round
	Op     int    `json:"op"`     // 0 for a round
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass's process started
	End    int64  `json:"end_ns"`
	// What the program itself reported for the call the span wraps (a
	// RunResult or a hostd response): time in full-stack simulation, host
	// time running driver guest code, time queued on the session.
	SimNS    int64 `json:"sim_ns,omitempty"`
	DriverNS int64 `json:"driver_ns,omitempty"`
	QueueNS  int64 `json:"queue_ns,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the pass ends. While off, begin
// returns 0 and every other method ignores id 0, so one code path serves
// the traced and the untraced rounds. The lock is for serve, where the
// HTTP client records request spans on the coordinator's goroutines.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	on    bool
	ops   int
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// newOp allocates the identifier the spans of one operation share.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

func (t *tracer) begin(name string, parent, op int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start})
	return len(t.spans)
}

// end closes a span and returns it as recorded.
func (t *tracer) end(id int) span {
	if id == 0 {
		return span{}
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
	return t.spans[id-1]
}

// annotate attaches the program's own timings to a finished span.
func (t *tracer) annotate(id int, sim, driver, queue time.Duration) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[id-1]
	s.SimNS, s.DriverNS, s.QueueNS = int64(sim), int64(driver), int64(queue)
	t.mu.Unlock()
}

// interval records a child whose bounds the harness learned after the
// fact (the wall and queue-wait times inside a hostd response).
func (t *tracer) interval(name string, parent, op int, start int64, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: start + int64(d)})
	return len(t.spans)
}

// selfTimes returns, for each span (same order), its duration minus the
// part of it that its children cover. Children are clipped to the parent
// and overlapping children are counted once. Spans must belong to one
// pass.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}
