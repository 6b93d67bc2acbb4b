package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"krad/internal/journal"
	"krad/internal/sched"
)

// Span kinds. A span's self time is its duration minus its children's.
const (
	spanSubmit  = iota // POST /v1/jobs/batch handler
	spanStatus         // GET /v1/jobs/{id} handler
	spanCancel         // DELETE /v1/jobs/{id} handler
	spanScrape         // GET /metrics + GET /healthz
	spanStep           // Service.StepAll
	spanAllot          // Scheduler.AllotInto
	spanLeap           // Scheduler.LeapTotals
	spanWrite          // journal file Write
	spanSync           // journal file Sync
	spanRestart        // server.New over the written journal
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"handler.submit", "handler.status", "handler.cancel", "handler.scrape",
	"service.step_all", "sched.allot", "sched.leap_totals",
	"journal.write", "journal.sync", "server.restart",
}

type span struct {
	kind   uint8
	parent int32 // index of the enclosing span, −1 at the top
	req    int32 // request id shared by a top-level span and its children
	start  int64 // ns since the tracer's origin
	end    int64
}

// tracer collects spans and per-layer counts in memory for one traced
// repetition. Everything runs on the driver's goroutine, so a plain stack
// tracks the enclosing span and nothing is locked.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int32
	req    int32

	// Totals per span kind, and per (top-level kind, kind) for nested
	// spans — journal writes under a submit, allots under a restart — so
	// layer arithmetic does not rescan spans.
	count  [numSpanKinds]int64
	total  [numSpanKinds]time.Duration
	under  [numSpanKinds][numSpanKinds]time.Duration
	underN [numSpanKinds][numSpanKinds]int64

	views      int64           // job views passed to AllotInto
	writeBytes int64           // bytes passed to journal file Write
	syncs      []time.Duration // every journal file Sync
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span of the given kind at instant now.
func (tr *tracer) begin(kind uint8, now time.Time) {
	parent := int32(-1)
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	} else {
		tr.req++
	}
	tr.stack = append(tr.stack, int32(len(tr.spans)))
	tr.spans = append(tr.spans, span{kind: kind, parent: parent, req: tr.req, start: int64(now.Sub(tr.origin))})
}

// end closes the innermost open span at instant now.
func (tr *tracer) end(now time.Time) {
	i := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	s := &tr.spans[i]
	s.end = int64(now.Sub(tr.origin))
	tr.count[s.kind]++
	tr.total[s.kind] += time.Duration(s.end - s.start)
	if n := len(tr.stack); n > 0 {
		top := tr.spans[tr.stack[0]].kind
		tr.under[top][s.kind] += time.Duration(s.end - s.start)
		tr.underN[top][s.kind]++
	}
}

// timed runs f inside a span.
func (tr *tracer) timed(kind uint8, f func()) {
	tr.begin(kind, time.Now())
	f()
	tr.end(time.Now())
}

// spanFile is the on-disk form: a name table and one compact row per span
// [name index, start ns, end ns, parent row or −1, request id].
type spanFile struct {
	Workload string     `json:"workload"`
	Columns  []string   `json:"columns"`
	Names    []string   `json:"names"`
	Spans    [][5]int64 `json:"spans"`
}

func (tr *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	out := spanFile{
		Workload: workload,
		Columns:  []string{"name", "start_ns", "end_ns", "parent", "request"},
		Names:    spanNames[:],
		Spans:    make([][5]int64, len(tr.spans)),
	}
	for i, s := range tr.spans {
		out.Spans[i] = [5]int64{int64(s.kind), s.start, s.end, int64(s.parent), int64(s.req)}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	return path, os.WriteFile(path, data, 0o644)
}

// timedScheduler times the shipped scheduler from outside. It forwards
// every optional internal/sched capability the wrapped scheduler has —
// the engine binds them by type assertion, so a decorator that dropped
// one would silently change the run (no leaps, allocating allots, no
// snapshots).
type timedScheduler struct {
	inner shippedScheduler
	tr    *tracer
}

// shippedScheduler is the capability set of sched.WithFloors(core.NewKRAD(k)).
type shippedScheduler interface {
	sched.Scheduler
	sched.IntoAllotter
	sched.Stable
	sched.Completer
	sched.Snapshotter
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Allot(t int64, jobs []sched.JobView, caps []int) [][]int {
	var out [][]int
	s.tr.views += int64(len(jobs))
	s.tr.timed(spanAllot, func() { out = s.inner.Allot(t, jobs, caps) })
	return out
}

func (s *timedScheduler) AllotInto(t int64, jobs []sched.JobView, caps []int, dst [][]int) {
	s.tr.views += int64(len(jobs))
	s.tr.begin(spanAllot, time.Now())
	s.inner.AllotInto(t, jobs, caps, dst)
	s.tr.end(time.Now())
}

func (s *timedScheduler) StableHorizon() int64 { return s.inner.StableHorizon() }

func (s *timedScheduler) LeapTotals(t int64, jobs []sched.JobView, caps []int, n int64, dst [][]int) {
	s.tr.begin(spanLeap, time.Now())
	s.inner.LeapTotals(t, jobs, caps, n, dst)
	s.tr.end(time.Now())
}

func (s *timedScheduler) JobsDone(ids []int) { s.inner.JobsDone(ids) }

func (s *timedScheduler) SnapshotState() ([]byte, error) {
	return s.inner.SnapshotState()
}

func (s *timedScheduler) RestoreState(data []byte) error {
	return s.inner.RestoreState(data)
}

// fileClock sits between the journal and its file in every journaled
// pass, installed through JournalConfig.OpenAppend, and keeps the time
// spent inside fsync. On this class of machine one fsync of the same few
// kilobytes takes 1 to 60 ms, it is 2–6% of a repetition's wall time and
// up to 23% of an unlucky one, and under SyncInterval it lands in whichever
// call crosses the 100 ms mark — so every timing the benchmark reports has
// the fsync wait taken out, and the journal.sync* rows report it on its
// own. With a tracer it also records a span per Write and Sync.
type fileClock struct {
	tr    *tracer // nil outside the traced passes
	total time.Duration
	taken time.Duration // part of total already taken out of an operation
	// off passes calls straight through. Service.Close closes its shards
	// on one goroutine each, so the driver sets it before closing: the
	// clock and the tracer belong to the driver's goroutine alone.
	off bool
}

// take returns the fsync time accrued since the previous take.
func (c *fileClock) take() time.Duration {
	d := c.total - c.taken
	c.taken = c.total
	return d
}

func (c *fileClock) openAppend(path string) (journal.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &timedFile{f: f, c: c}, nil
}

type timedFile struct {
	f *os.File
	c *fileClock
}

func (t *timedFile) Write(p []byte) (int, error) {
	tr := t.c.tr
	if tr == nil || t.c.off {
		return t.f.Write(p)
	}
	tr.begin(spanWrite, time.Now())
	n, err := t.f.Write(p)
	tr.end(time.Now())
	tr.writeBytes += int64(n)
	return n, err
}

func (t *timedFile) Sync() error {
	if t.c.off {
		return t.f.Sync()
	}
	start := time.Now()
	if t.c.tr != nil {
		t.c.tr.begin(spanSync, start)
	}
	err := t.f.Sync()
	end := time.Now()
	if t.c.tr != nil {
		t.c.tr.end(end)
		t.c.tr.syncs = append(t.c.tr.syncs, end.Sub(start))
	}
	t.c.total += end.Sub(start)
	return err
}

func (t *timedFile) Close() error { return t.f.Close() }
