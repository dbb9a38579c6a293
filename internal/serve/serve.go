// Package serve is refcheckd's HTTP layer: a long-running analysis server
// over core.Analyze and one shared, warm analysiscache handle.
//
// The serving shape follows the paper's pitch — refcounting checkers should
// run continuously over every release, not as one-shot CLI invocations — so
// the daemon keeps the expensive state alive between requests: the tiered
// cache's in-memory L1 stays hot, the disk packs accumulate, and N
// concurrent requests for the same corpus collapse to one computation via
// the cache's single-flight layer.
//
// Endpoints:
//
//	POST /v1/analyze   sources (or the demo corpus) + options in, the exact
//	                   refcheck stdout bytes + per-run metrics out
//	GET  /stats        server counters plus the cache tier gauges
//	GET  /trace/{id}   Chrome trace-event export of a recent run
//	GET  /healthz      liveness ("ok", or 503 while draining)
//
// Admission control: requests that hit the cache (or join an in-flight
// computation) are served unconditionally; a request that needs a real
// pipeline computation must win a slot from a bounded queue (Config
// MaxConcurrent running + Queue waiting). When the queue is full the server
// answers 429 with a Retry-After estimate instead of building an unbounded
// backlog — reject fast, keep latency bounded for accepted work.
//
// Cancellation: the request context (which the net/http server cancels on
// client disconnect) is the run's context, optionally bounded by a
// per-request deadline. Either way a dead request cancels core.Analyze at
// its next phase or work-queue boundary, partial results are never cached,
// and a queued request that dies surrenders its queue position.
//
// Shutdown: Drain marks the server draining (healthz and analyze answer
// 503), the caller's http.Server.Shutdown stops accepting and waits out
// in-flight requests, then Close releases the server's reference on the
// shared cache — flushing the disk tier via the refcount/owner model in
// internal/analysiscache.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysiscache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/render"
)

// Defaults for Config fields left zero.
const (
	DefaultQueue      = 16
	DefaultMaxTimeout = 5 * time.Minute
	maxRequestBody    = 256 << 20
)

// traceRingSize is how many recent run traces /trace/{id} can serve.
const traceRingSize = 32

// Config parameterizes New.
type Config struct {
	// Workers is the default per-request parallelism (0 = GOMAXPROCS),
	// overridable per request.
	Workers int
	// MaxConcurrent bounds simultaneously *computing* requests; 0 means
	// GOMAXPROCS. Cache hits are never bounded.
	MaxConcurrent int
	// Queue bounds computations waiting for a slot; beyond it requests are
	// rejected with 429. Negative means 0 (no waiting); 0 means
	// DefaultQueue.
	Queue int
	// DefaultTimeout is applied to requests that set no timeout_ms; 0 means
	// no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps every request deadline; 0 means DefaultMaxTimeout.
	MaxTimeout time.Duration
	// Cache, when non-nil, is the shared tiered cache. The server retains
	// its own reference (released by Close), so a caller's Close cannot
	// tear the tiers down under in-flight requests.
	Cache *analysiscache.Cache
}

// Server is the refcheckd HTTP server state. Create with New; it is safe
// for concurrent use by the net/http machinery.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	gate  *gate
	cache *analysiscache.Cache
	start time.Time

	draining atomic.Bool
	ids      atomic.Int64
	wallEWMA atomic.Int64 // microseconds; feeds the Retry-After estimate

	// analyze is the pipeline seam; tests substitute a stub that honors the
	// same admission/cancellation contract as core.Analyze.
	analyze func(ctx context.Context, req core.Request) (*core.Run, error)

	mu     sync.Mutex
	traces map[string]*obs.Trace
	order  []string // trace ids, oldest first
}

// New builds a Server from cfg, retaining cfg.Cache.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue == 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	if cfg.MaxTimeout == 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	s := &Server{
		cfg:     cfg,
		reg:     obs.NewRegistry(),
		gate:    newGate(cfg.MaxConcurrent, cfg.Queue),
		cache:   cfg.Cache,
		start:   time.Now(),
		analyze: core.Analyze,
		traces:  map[string]*obs.Trace{},
	}
	if s.cache != nil {
		s.cache.Retain()
	}
	return s
}

// Registry exposes the server-lifetime metric registry (every request's
// counters are merged into it; /stats snapshots it).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// Drain flips the server into draining mode: /healthz turns 503 (so load
// balancers stop routing here) and new analyze requests are refused. Already
// accepted requests are unaffected — the caller's http.Server.Shutdown waits
// them out.
func (s *Server) Drain() { s.draining.Store(true) }

// Close releases the server's reference on the shared cache, flushing the
// disk tier. Call after the HTTP listener has fully shut down.
func (s *Server) Close() error {
	if s.cache != nil {
		return s.cache.Close()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// retryAfterSeconds estimates when a rejected client should come back: the
// queue ahead of it, priced at the recent average computation wall time.
func (s *Server) retryAfterSeconds() int {
	avg := time.Duration(s.wallEWMA.Load()) * time.Microsecond
	if avg <= 0 {
		return 1
	}
	wait := avg * time.Duration(1+s.gate.Queued())
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// observeWall folds one computation's wall time into the EWMA (alpha 1/4).
func (s *Server) observeWall(d time.Duration) {
	us := d.Microseconds()
	for {
		old := s.wallEWMA.Load()
		var next int64
		if old == 0 {
			next = us
		} else {
			next = old + (us-old)/4
		}
		if s.wallEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	t0 := time.Now()
	var req AnalyzeRequest
	bodyBuf := getBuf()
	body, readErr := readBody(w, r, *bodyBuf)
	err := decodeRequest(body, &req) // copies every string out of body
	putBuf(bodyBuf, body)
	if err != nil && readErr != nil {
		err = readErr // the value was cut short by the failed read
	}
	s.reg.Observe("serve.decode_ms", float64(time.Since(t0))/1e6)
	if err != nil {
		s.reg.Add("serve.badrequest", 1)
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sources, headers, err := req.sources()
	if err != nil {
		s.reg.Add("serve.badrequest", 1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	selected, err := core.ParsePatterns(req.Checkers)
	if err != nil {
		s.reg.Add("serve.badrequest", 1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx := r.Context()
	if d := req.timeout(s.cfg.DefaultTimeout, s.cfg.MaxTimeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	id := fmt.Sprintf("r%06d", s.ids.Add(1))
	tr := obs.New("refcheckd:" + id)
	s.reg.Add("serve.requests", 1)
	s.reg.SetGauge("serve.inflight", float64(s.gate.Running()))

	start := time.Now()
	run, err := s.analyze(ctx, core.Request{
		Sources: sources,
		Headers: headers,
		Options: core.Options{
			Workers:  workers,
			Confirm:  req.Confirm,
			Cache:    s.cache,
			Checkers: selected,
			Admit:    s.gate,
		},
		Trace: tr,
	})
	wall := time.Since(start)
	tr.Done()
	s.remember(id, tr)
	s.mergeCounters(tr)

	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded):
		s.reg.Add("serve.rejected", 1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "server overloaded; retry later")
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.Add("serve.deadline", 1)
		writeError(w, http.StatusGatewayTimeout, "analysis deadline exceeded")
		return
	case errors.Is(err, context.Canceled):
		// Client went away; the run was cancelled at the next pipeline
		// boundary and nothing partial was cached. There is nobody to
		// answer, but write a response anyway for proxies that linger.
		s.reg.Add("serve.cancelled", 1)
		writeError(w, statusClientClosedRequest, "request cancelled")
		return
	case errors.Is(err, core.ErrUnknownPattern):
		s.reg.Add("serve.badrequest", 1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	default:
		s.reg.Add("serve.errors", 1)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	s.observeWall(wall)
	s.reg.Add("serve.ok", 1)
	s.reg.Observe("serve.wall_ms", float64(wall)/1e6)
	// The response carries the CLI-identical stdout bytes of the run,
	// rendered into a buffer the response then escapes from directly.
	t1 := time.Now()
	outBuf, respBuf := getBuf(), getBuf()
	output, nreports := render.AppendOutput(*outBuf, run.Reports, run.Summary, req.Pattern, req.JSON)
	resp := appendResponse(*respBuf, id, output, nreports, float64(wall)/1e6, tr.Reg().Counters())
	h := w.Header()
	h.Set("X-Refcheckd-Run", id)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(resp)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; there is nobody to tell.
	_, _ = w.Write(resp)
	putBuf(outBuf, output)
	putBuf(respBuf, resp)
	s.reg.Observe("serve.respond_ms", float64(time.Since(t1))/1e6)
}

// statusClientClosedRequest is nginx's non-standard 499, the conventional
// code for "client closed the connection before the response".
const statusClientClosedRequest = 499

// mergeCounters folds one finished request's counters into the server
// registry, so /stats aggregates cache and pipeline behavior across the
// daemon's lifetime.
func (s *Server) mergeCounters(tr *obs.Trace) {
	for name, v := range tr.Reg().Counters() {
		s.reg.Add(name, v)
	}
}

// remember inserts a finished run's trace into the recent-run ring.
func (s *Server) remember(id string, tr *obs.Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces[id] = tr
	s.order = append(s.order, id)
	for len(s.order) > traceRingSize {
		delete(s.traces, s.order[0])
		s.order = s.order[1:]
	}
}

// StatsResponse is the GET /stats body: server-level request accounting,
// the queue state, the cache tier gauges, and the merged metric registry.
type StatsResponse struct {
	UptimeMS float64 `json:"uptime_ms"`
	Draining bool    `json:"draining"`
	Running  int     `json:"running"`
	Queued   int     `json:"queued"`

	// Cache is nil when the server runs uncached.
	Cache *CacheStats `json:"cache,omitempty"`

	obs.RegistryStats
}

// CacheStats mirrors analysiscache.Stats for the wire.
type CacheStats struct {
	L1Entries int64 `json:"l1_entries"`
	L1Bytes   int64 `json:"l1_bytes"`
	Pending   int64 `json:"pending"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeMS:      float64(time.Since(s.start)) / 1e6,
		Draining:      s.draining.Load(),
		Running:       s.gate.Running(),
		Queued:        s.gate.Queued(),
		RegistryStats: s.reg.Snapshot(),
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &CacheStats{L1Entries: st.L1Entries, L1Bytes: st.L1Bytes, Pending: st.Pending}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	tr := s.traces[id]
	s.mu.Unlock()
	if tr == nil {
		writeError(w, http.StatusNotFound, "no recent run %q (ring keeps the last %d)", id, traceRingSize)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTrace(w, tr); err != nil {
		s.reg.Add("serve.errors", 1)
	}
}
