package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"krad/internal/replicate"
	"krad/internal/sim"
	"krad/internal/wire"
	"krad/internal/workload"
)

// PlacementKeyHeader is the request header carrying the client's shard
// affinity key. Under the "hash" placement policy, submissions with equal
// keys land on the same shard; other policies ignore it.
const PlacementKeyHeader = "X-Krad-Placement-Key"

// TenantHeader is the request header naming the submitting tenant's
// queue-tree leaf (e.g. "acme/ml"). With fairness enabled, the value
// resolves through the queue tree and the submission is gated by the
// tenant's fair share; over-quota submissions get 429 with Retry-After.
// Absent or empty means the default leaf. With fairness off the header
// is ignored.
const TenantHeader = "X-Krad-Tenant"

// retryAfterSeconds derives the base 503 Retry-After value from the step
// pace: one virtual step of queue drain, ceiled to whole seconds, never
// below the 1-second floor the header's resolution imposes.
func retryAfterSeconds(stepEvery time.Duration) int64 {
	secs := int64(math.Ceil(stepEvery.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// retryAfterValue returns the next Retry-After header value: the
// step-pace base plus a deterministic 0–3 s round-robin jitter, so a
// synchronized burst of shed clients re-arrives spread over four seconds
// instead of as a second thundering herd.
func (s *Service) retryAfterValue() string {
	return s.retryVals[s.retrySeq.Add(1)&3]
}

// appendJobStatus appends the body GET and DELETE /v1/jobs/{id} answer
// with, byte for byte what encoding/json wrote for the status struct the
// tests keep as the oracle (statusJSON): family, completion, response and
// cancelled_at omitted when zero, a nil work vector as null, and the
// trailing newline json.Encoder adds.
func appendJobStatus(dst []byte, st sim.JobStatus) []byte {
	dst = wire.AppendInt(append(dst, `{"id":`...), int64(st.ID))
	dst = wire.AppendString(append(dst, `,"state":`...), st.Phase.String())
	if st.Family != sim.FamilyUnknown {
		dst = wire.AppendString(append(dst, `,"family":`...), st.Family.String())
	}
	dst = wire.AppendInt(append(dst, `,"release":`...), st.Release)
	dst = wire.AppendIntField(dst, `,"completion":`, st.Completion)
	dst = wire.AppendIntField(dst, `,"response":`, st.Response())
	dst = wire.AppendIntField(dst, `,"cancelled_at":`, st.CancelledAt)
	dst = append(dst, `,"work":`...)
	if st.Work == nil {
		dst = append(dst, "null"...)
	} else {
		dst = wire.AppendInts(dst, st.Work)
	}
	dst = wire.AppendInt(append(dst, `,"span":`...), int64(st.Span))
	return append(dst, "}\n"...)
}

// statusScratch is the pooled state of a status or cancel answer: the
// job's work vector, copied out of the engine's status table, and the body
// written from it.
type statusScratch struct {
	work []int
	out  []byte
}

var statusPool = sync.Pool{New: func() any { return new(statusScratch) }}

// reply writes st's status body with code 200, keeping the grown buffers
// for the next answer.
func (sc *statusScratch) reply(w http.ResponseWriter, st sim.JobStatus) {
	sc.work = st.Work[:0]
	sc.out = appendJobStatus(sc.out[:0], st)
	writeBody(w, http.StatusOK, sc.out)
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs       submit a dag-encoded job      → 201 {id, release, shard}
//	POST   /v1/jobs/batch submit a burst all-or-nothing → 201 {ids, shard}
//	GET    /v1/jobs/{id}  job lifecycle status          → 200 status
//	DELETE /v1/jobs/{id}  cancel a pending/active job   → 200 status
//	GET    /v1/events     SSE stream of step events (all shards)
//	GET    /metrics       Prometheus text exposition
//	GET    /healthz       liveness + service stats (always 200 while the
//	                      process serves: draining and degraded are alive)
//	GET    /readyz        readiness: 200 when accepting work, 503 while
//	                      draining or journal-degraded
//
// Submissions honor the X-Krad-Placement-Key header (see
// PlacementKeyHeader) and, with fairness enabled, the X-Krad-Tenant
// header (see TenantHeader; over-quota tenants get 429 + Retry-After).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// jsonContentType is the Content-Type of every JSON answer, one slice
// shared by all of them: Header().Set would allocate a fresh one per
// response. Nothing in net/http writes into a header's value slice.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeBody answers with code and a JSON body written by hand, which is
// what writeJSON would have written for the value it spells.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Submit body bounds. Declared requests larger than these are rejected
// with 413 off the Content-Length header alone — before a byte of body is
// buffered — and chunked bodies are cut off at the same bound mid-read.
const (
	maxSubmitBody = 8 << 20
	maxBatchBody  = 64 << 20
)

// submitScratch is the pooled per-request state of the submit path: the
// raw-body buffer, the request structs the decoder fills, the spec slice
// handed to admission and the response body. Steady-state submissions
// touch only recycled memory here; what still allocates per request is the
// decoded payload itself (graph/mold pointers, work vectors) plus a small
// fixed constant in the net/http machinery — pinned by
// TestSubmitAllocsPinned.
//
// The decoder, like json.Unmarshal before it, merges into existing memory
// rather than resetting it, so release zeroes req and every batch slot
// across the slice's full capacity before the scratch re-enters the pool;
// zeroing there also drops payload pointers (so pooled scratch doesn't pin
// decoded graphs past the request) while keeping the flat buffers.
type submitScratch struct {
	buf   []byte
	req   workload.JobText
	batch workload.BatchText
	specs []sim.JobSpec
	out   []byte
}

var submitPool = sync.Pool{New: func() any { return new(submitScratch) }}

func (sc *submitScratch) release() {
	sc.req = workload.JobText{}
	jobs := sc.batch.Jobs[:cap(sc.batch.Jobs)]
	for i := range jobs {
		jobs[i] = workload.JobText{}
	}
	sc.batch.Jobs = jobs[:0]
	for i := range sc.specs {
		sc.specs[i] = sim.JobSpec{}
	}
	sc.specs = sc.specs[:0]
	submitPool.Put(sc)
}

// readBody buffers the request body into the scratch buffer, enforcing
// limit. It reports (nil, true) after writing the error response itself
// on oversized or unreadable bodies.
func (sc *submitScratch) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.ContentLength > limit {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body %d bytes exceeds the %d-byte bound", r.ContentLength, limit)
		return nil, true
	}
	if n := r.ContentLength; n > 0 && int64(cap(sc.buf)) < n {
		sc.buf = make([]byte, 0, n)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	buf := sc.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			sc.buf = buf
			return buf, false
		}
		if err != nil {
			sc.buf = buf
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"request body exceeds the %d-byte bound", limit)
			} else {
				writeError(w, http.StatusBadRequest, "reading request body: %v", err)
			}
			return nil, true
		}
	}
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sc := submitPool.Get().(*submitScratch)
	defer sc.release()
	body, done := sc.readBody(w, r, maxSubmitBody)
	if done {
		return
	}
	if err := wire.Decode(body, sc.req.ReadJSON); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job JSON: %v", err)
		return
	}
	spec, err := sc.req.Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := s.SubmitTenant(r.Header.Get(PlacementKeyHeader), r.Header.Get(TenantHeader), spec)
	if !s.writeSubmitError(w, err) {
		return
	}
	st, _ := s.Job(id)
	out := wire.AppendInt(append(sc.out[:0], `{"id":`...), int64(id))
	out = wire.AppendInt(append(out, `,"release":`...), st.Release)
	out = wire.AppendInt(append(out, `,"shard":`...), int64(ShardOf(id)))
	sc.out = append(out, "}\n"...)
	writeBody(w, http.StatusCreated, sc.out)
}

func (s *Service) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	sc := submitPool.Get().(*submitScratch)
	defer sc.release()
	body, done := sc.readBody(w, r, maxBatchBody)
	if done {
		return
	}
	if err := wire.Decode(body, sc.batch.ReadJSON); err != nil {
		writeError(w, http.StatusBadRequest, "invalid batch JSON: %v", err)
		return
	}
	if len(sc.batch.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	specs := sc.specs[:0]
	for i := range sc.batch.Jobs {
		spec, err := sc.batch.Jobs[i].Spec()
		if err != nil {
			writeError(w, http.StatusBadRequest, "batch job %d: %v", i, err)
			return
		}
		specs = append(specs, spec)
	}
	sc.specs = specs
	ids, err := s.SubmitBatchTenant(r.Header.Get(PlacementKeyHeader), r.Header.Get(TenantHeader), specs)
	if !s.writeSubmitError(w, err) {
		return
	}
	out := wire.AppendInts(append(sc.out[:0], `{"ids":`...), ids)
	out = wire.AppendInt(append(out, `,"shard":`...), int64(ShardOf(ids[0])))
	sc.out = append(out, "}\n"...)
	writeBody(w, http.StatusCreated, sc.out)
}

// writeSubmitError maps admission errors onto HTTP responses, reporting
// whether the submission succeeded. Queue-full responses carry a
// Retry-After derived from the step pace, so pacing-aware clients back
// off for at least one virtual step of drain.
func (s *Service) writeSubmitError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, ErrOverQuota):
		// 429, not 503: the service has capacity, this tenant exhausted its
		// fair share of it. Retry-After signals when decay/drain may free
		// quota, and distinguishes per-tenant shedding from fleet-wide
		// backpressure for pacing-aware clients.
		w.Header().Set("Retry-After", s.retryAfterValue())
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return false
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDegraded):
		w.Header().Set("Retry-After", s.retryAfterValue())
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return false
	case errors.Is(err, replicate.ErrFenced):
		// 409, not 503: retrying this daemon can never succeed — a
		// follower holds a higher epoch and this primary is permanently
		// deposed. Clients must re-resolve to the promoted follower.
		writeError(w, http.StatusConflict, "%v", err)
		return false
	case errors.Is(err, replicate.ErrLeaseExpired), errors.Is(err, ErrFollower):
		// Transient (lease heals when acks resume) or wrong-node
		// (follower): 503 tells load balancers to route elsewhere.
		w.Header().Set("Retry-After", s.retryAfterValue())
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return false
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return false
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return false
	}
	return true
}

// jobID parses the {id} path segment.
func jobID(r *http.Request) (int, error) {
	return strconv.Atoi(r.PathValue("id"))
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return
	}
	sc := statusPool.Get().(*statusScratch)
	defer statusPool.Put(sc)
	st, _, _, ok := s.lookup(id, sc.work)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %d", id)
		return
	}
	sc.reply(w, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return
	}
	sc := statusPool.Get().(*statusScratch)
	defer statusPool.Put(sc)
	st, found, err := s.cancelJob(id, sc.work)
	switch {
	case !found:
		writeError(w, http.StatusNotFound, "no job %d", id)
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrFollower), errors.Is(err, replicate.ErrLeaseExpired):
		w.Header().Set("Retry-After", s.retryAfterValue())
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		writeError(w, http.StatusConflict, "%v", err)
	default:
		sc.reply(w, st)
	}
}

// handleEvents streams step events as Server-Sent Events until the client
// disconnects or the service shuts down. Each event is
//
//	event: step
//	data: {"step":..,"executed":[..],...}
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := s.Subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: step\ndata: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handlePromote flips a standby follower into the serving primary: the
// receiver Follow attached records an epoch past every one this node has
// seen, fences the old primary's stream, and starts this daemon's step
// loops. Idempotent; 409 on a daemon with no receiver, 500 with the error
// when the epoch cannot be recorded (the daemon stays a follower).
func (s *Service) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rcv := s.receiver
	s.mu.Unlock()
	if rcv == nil {
		writeError(w, http.StatusConflict, "not a replication follower: nothing to promote")
		return
	}
	epoch, err := rcv.Promote()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "epoch": epoch})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.WriteMetrics(w)
}

// handleHealthz is liveness: always 200 while the process can serve it.
// Draining and journal-degraded states are reported in the body but are
// not failures — the process is alive and finishing in-flight work.
// Orchestrators that restart on failed liveness must not restart a
// draining daemon; readiness (below) is what gates traffic.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	status := "ok"
	if err := s.Err(); err != nil {
		status = "degraded: " + err.Error()
	} else if st.Journal != nil && st.Journal.Degraded > 0 {
		status = "degraded: journal write failure"
	} else if st.Draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "stats": st})
}

// handleReadyz is readiness: 200 only when the service should receive
// traffic, 503 (with a reason) while draining or journal-degraded.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if ok, reason := s.Ready(); !ok {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unavailable", "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
