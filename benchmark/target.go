package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"krad/internal/server"
	"krad/internal/sim"
)

// target is what a request script drives. The end-to-end run drives the
// daemon's HTTP handler; the traced run's component passes drive the same
// script into the layers below it, so a layer's cost is a difference
// between two passes over identical inputs.
type target interface {
	// submit admits one request's jobs and returns their namespaced IDs
	// (valid until the next call).
	submit(r *request) (ids []int, ok bool)
	status(id int) bool
	cancel(id int) bool
	scrape() bool
	// step advances every shard by up to n virtual steps.
	step(n int64) (int64, error)
}

// respWriter is the minimal http.ResponseWriter: it keeps the status and
// the body and nothing else.
type respWriter struct {
	hdr  http.Header
	code int
	buf  []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf = w.buf[:0]
}

// httpTarget calls an http.Handler directly — no sockets, no client — from
// one goroutine, reusing one request per route so the harness itself
// allocates next to nothing per call.
type httpTarget struct {
	h       http.Handler
	noop    *noopHandler    // h, when it is the no-op handler
	svc     *server.Service // nil for the no-op handler
	tenants [][]string      // header values per tenant, preallocated

	w     respWriter
	body  bytes.Reader
	post  *http.Request
	byID  *http.Request // GET and DELETE /v1/jobs/{id}
	plain *http.Request // GET /metrics, /healthz
	path  []byte
	ids   []int
}

func newHTTPTarget(h http.Handler, svc *server.Service, tenants []string) *httpTarget {
	t := &httpTarget{h: h, svc: svc, w: respWriter{hdr: make(http.Header)}}
	t.noop, _ = h.(*noopHandler)
	for _, name := range tenants {
		t.tenants = append(t.tenants, []string{name})
	}
	mk := func(method, path string) *http.Request {
		return &http.Request{
			Method: method, URL: &url.URL{Path: path}, Host: "bench",
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: make(http.Header),
		}
	}
	t.post = mk(http.MethodPost, "/v1/jobs/batch")
	t.post.Body = io.NopCloser(&t.body)
	t.byID = mk(http.MethodGet, "/v1/jobs/0")
	t.plain = mk(http.MethodGet, "/metrics")
	return t
}

func (t *httpTarget) serve(r *http.Request) bool {
	t.w.reset()
	t.h.ServeHTTP(&t.w, r)
	return t.w.code/100 == 2
}

func (t *httpTarget) submit(r *request) ([]int, bool) {
	t.body.Reset(r.body)
	t.post.ContentLength = int64(len(r.body))
	if r.tenant >= 0 {
		t.post.Header[server.TenantHeader] = t.tenants[r.tenant]
		t.post.Header[server.PlacementKeyHeader] = t.tenants[r.tenant]
	}
	if t.noop != nil {
		t.noop.n = r.n
	}
	if !t.serve(t.post) {
		return nil, false
	}
	t.ids = parseIDs(t.ids[:0], t.w.buf)
	return t.ids, len(t.ids) == r.n
}

func (t *httpTarget) jobRequest(method string, id int) bool {
	t.path = strconv.AppendInt(append(t.path[:0], "/v1/jobs/"...), int64(id), 10)
	t.byID.Method = method
	t.byID.URL.Path = string(t.path)
	return t.serve(t.byID)
}

func (t *httpTarget) status(id int) bool { return t.jobRequest(http.MethodGet, id) }
func (t *httpTarget) cancel(id int) bool { return t.jobRequest(http.MethodDelete, id) }

func (t *httpTarget) scrape() bool {
	t.plain.URL.Path = "/metrics"
	ok := t.serve(t.plain)
	t.plain.URL.Path = "/healthz"
	return t.serve(t.plain) && ok
}

func (t *httpTarget) step(n int64) (int64, error) {
	if t.svc == nil {
		return 0, nil
	}
	return t.svc.StepAll(n)
}

// parseIDs appends the integers of a batch response's "ids" array,
// {"ids":[1,2,3],"shard":0}, to dst.
func parseIDs(dst []int, body []byte) []int {
	i := bytes.Index(body, []byte(`"ids":[`))
	if i < 0 {
		return dst
	}
	v, in := 0, false
	for _, c := range body[i+len(`"ids":[`):] {
		switch {
		case c >= '0' && c <= '9':
			v, in = v*10+int(c-'0'), true
		default:
			if in {
				dst = append(dst, v)
			}
			v, in = 0, false
			if c == ']' {
				return dst
			}
		}
	}
	return dst
}

// noopHandler answers every route the scripts use with a canned body and
// does nothing else: driving a script against it times the harness alone.
type noopHandler struct {
	n    int // IDs the next POST response carries
	next int
	buf  []byte
}

func (h *noopHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.WriteHeader(http.StatusOK)
		return
	}
	_, _ = io.Copy(io.Discard, r.Body)
	h.buf = append(h.buf[:0], `{"ids":[`...)
	for i := 0; i < h.n; i++ {
		if i > 0 {
			h.buf = append(h.buf, ',')
		}
		h.buf = strconv.AppendInt(h.buf, int64(h.next), 10)
		h.next++
	}
	h.buf = append(h.buf, `],"shard":0}`...)
	w.WriteHeader(http.StatusCreated)
	_, _ = w.Write(h.buf)
}

// serviceTarget enters below the HTTP layer: pre-decoded specs go straight
// to Service.SubmitBatchTenant, reads and cancels to Service.Job and
// Service.Cancel.
type serviceTarget struct {
	svc     *server.Service
	tenants []string
}

func (t *serviceTarget) submit(r *request) ([]int, bool) {
	tenant := ""
	if r.tenant >= 0 {
		tenant = t.tenants[r.tenant]
	}
	ids, err := t.svc.SubmitBatchTenant(tenant, tenant, r.specs)
	return ids, err == nil
}

func (t *serviceTarget) status(id int) bool { _, ok := t.svc.Job(id); return ok }
func (t *serviceTarget) cancel(id int) bool { return t.svc.Cancel(id) == nil }
func (t *serviceTarget) scrape() bool {
	_ = t.svc.Stats()
	return t.svc.WriteMetrics(io.Discard) == nil
}
func (t *serviceTarget) step(n int64) (int64, error) { return t.svc.StepAll(n) }

// engineTarget is the bare simulation engine: one sim.Engine per shard,
// the server's own placement policy, AdmitBatch and StepN and nothing of
// the server around them. It mirrors exactly the engine calls the server
// makes (release normalization, retire-on-completion), so its clock must
// end where the service's did.
type engineTarget struct {
	engines []*sim.Engine
	place   server.Placement
	retire  bool
	tenants []string
	loads   []int
	own     []sim.JobSpec
	ids     []int
}

func newEngineTarget(w *workloadDef, tr *tracer, in *input) (*engineTarget, error) {
	place, err := server.NewPlacement(w.placement)
	if err != nil {
		return nil, err
	}
	t := &engineTarget{
		place: place, retire: w.retireDone, tenants: in.tenants, loads: make([]int, w.shards),
	}
	cfg := w.config("", &fileClock{tr: tr})
	for i := 0; i < w.shards; i++ {
		c := cfg.Sim
		c.Seed += int64(i) << 32
		c.Scheduler = cfg.NewScheduler()
		eng, err := sim.NewEngine(c)
		if err != nil {
			return nil, err
		}
		t.engines = append(t.engines, eng)
	}
	return t, nil
}

func (t *engineTarget) submit(r *request) ([]int, bool) {
	shard := 0
	if len(t.engines) > 1 {
		key := ""
		if r.tenant >= 0 {
			key = t.tenants[r.tenant]
		}
		shard = t.place.Pick(key, t.loads)
	}
	eng := t.engines[shard]
	t.own = append(t.own[:0], r.specs...)
	for j := range t.own {
		t.own[j].Release = eng.Now()
	}
	local, err := eng.AdmitBatch(t.own)
	if err != nil {
		return nil, false
	}
	t.ids = t.ids[:0]
	for _, id := range local {
		t.ids = append(t.ids, shard<<32|id)
	}
	return t.ids, true
}

func (t *engineTarget) status(id int) bool { return true }

func (t *engineTarget) cancel(id int) bool {
	eng := t.engines[server.ShardOf(id)]
	if err := eng.Cancel(server.LocalID(id)); err != nil {
		return false
	}
	if t.retire {
		_ = eng.Retire(server.LocalID(id))
	}
	return true
}

func (t *engineTarget) scrape() bool { return true }

func (t *engineTarget) step(n int64) (int64, error) {
	var total int64
	for i, eng := range t.engines {
		if eng.Idle() {
			continue
		}
		info, err := eng.StepN(n)
		if err != nil {
			return total, fmt.Errorf("engine %d: %w", i, err)
		}
		total += info.Steps
		if t.retire {
			for _, id := range info.Completed {
				_ = eng.Retire(id)
			}
		}
	}
	return total, nil
}

// now is the furthest engine clock, what Stats().Now reports for a fleet.
func (t *engineTarget) now() int64 {
	var max int64
	for _, eng := range t.engines {
		if eng.Now() > max {
			max = eng.Now()
		}
	}
	return max
}
