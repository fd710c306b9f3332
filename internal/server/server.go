// Package server exposes a shard.Manager over an HTTP/JSON API — the
// front door of the ascsd daemon. The API is deliberately small and
// stream-shaped: clients POST batches of sparse samples and, at any
// point while the stream is still flowing, GET live top-k correlation
// retrievals, point estimates, and serving stats; snapshots and
// restores round out the crash-recovery story.
//
//	POST /v1/ingest    {"samples":[{"idx":[0,3],"val":[1.5,-0.2]}, ...]}
//	GET  /v1/topk?k=25[&magnitude=1][&consistency=fresh|fast]
//	GET  /v1/estimate?i=3&j=7[&consistency=fresh|fast]
//	GET  /v1/stats[?consistency=fresh|fast]
//	POST /v1/snapshot  {"dir":"name"}   (optional local name under the configured snapshot dir)
//	POST /v1/restore   {"dir":"name"}
//
// The consistency query parameter overrides the deployment's default
// query lane per request: "fresh" rides the per-shard ingest FIFO (the
// answer observes every batch ingested before it, but waits behind the
// whole queue under ingest pressure), "fast" rides the bounded
// priority lane (served ahead of queued ingest batches — bounded tail
// latency, bounded staleness). Snapshots always cut fresh.
//
// Restore swaps in a freshly restored manager atomically; requests in
// flight against the old manager complete (or observe ErrClosed →
// 503) before it is torn down.
//
// Ingest bodies are decoded without reflection: a scanner for the fixed
// sample schema parses the buffered body into pooled flat arenas, and
// anything outside its canonical subset is decoded again by
// encoding/json, so accept/reject behaviour and error text are
// encoding/json's (see ingest.go). The other bodies go through
// encoding/json directly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sketchapi"
)

// Options configures a Server.
type Options struct {
	// SnapshotDir is the default directory for POST /v1/snapshot and
	// /v1/restore requests that omit "dir".
	SnapshotDir string
	// MaxBatch caps the samples accepted per ingest request (default
	// 4096; oversized requests get 400).
	MaxBatch int
	// MaxBodyBytes caps the ingest request body (default 64 MiB;
	// oversized bodies get 413 before they can balloon memory).
	MaxBodyBytes int64
	// MaxTopK caps the k accepted by /v1/topk (default 10000: the
	// retrieval fan-out allocates proportionally to k·shards, so an
	// unauthenticated request must not pick it freely).
	MaxTopK int
	// TraceEvery samples 1-in-N requests for span tracing: the sampled
	// request's queue-wait / shard-apply / merge spans are collected and
	// emitted as one structured log line. 0 disables tracing entirely
	// (no per-request trace state is allocated either way for the
	// unsampled majority).
	TraceEvery int
	// TraceLogger receives the sampled span logs (default
	// slog.Default()).
	TraceLogger *slog.Logger

	// QueryTimeout bounds each query request (topk/estimate/stats) end
	// to end: past it the manager abandons the queued work race-free and
	// the request gets 503. 0 leaves queries bounded only by client
	// disconnect (the request context still cancels abandoned waits).
	QueryTimeout time.Duration
	// IngestTimeout bounds each ingest request's delivery into the
	// shard FIFOs; expiry abandons the undelivered remainder (counted)
	// and returns 503. 0 = client-disconnect bound only.
	IngestTimeout time.Duration
	// MaxTimeout caps the per-request `timeout` query parameter
	// override (default 30s) so a client cannot park requests for
	// arbitrary durations.
	MaxTimeout time.Duration
	// RestoreOverrides configures managers created by POST /v1/restore
	// (admission policy, fault injector) so a restored daemon keeps its
	// deployment knobs instead of silently reverting to the manifest's.
	RestoreOverrides shard.RestoreOverrides
}

// Server is the HTTP facade over a shard.Manager.
type Server struct {
	opts    Options
	mgr     atomic.Pointer[shard.Manager]
	mux     *http.ServeMux
	metrics *metrics
	sampler *obs.Sampler
	log     *slog.Logger
	// swapMu serializes restore swaps (and final Close) so two
	// concurrent restores cannot interleave their close/swap pairs.
	swapMu sync.Mutex

	// Robustness accounting, reconciled by the chaos harness against
	// the manager's own counters (shed requests == 429s served).
	shed429       atomic.Uint64
	deadline503   atomic.Uint64
	retryAfterSec atomic.Int64 // last Retry-After advertised, seconds

	// Tiered-serving accounting: queries that took the folded-tolerant
	// read path (?resolution=folded, or the governor degrading default
	// reads), and how many of those were answered from the top-k memo
	// without a shard fan-out.
	foldedQueries atomic.Uint64
	cacheHits     atomic.Uint64

	// arenaDone, when set (tests only, before serving), sees every
	// ingest arena as its request releases it.
	arenaDone func(*ingestArena)
}

// New wraps mgr. The caller keeps ownership of nothing: Close tears
// down the currently installed manager.
func New(mgr *shard.Manager, opts Options) *Server {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 4096
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	if opts.MaxTopK <= 0 {
		opts.MaxTopK = 10_000
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 30 * time.Second
	}
	s := &Server{opts: opts, metrics: newMetrics()}
	if opts.TraceEvery > 0 {
		s.sampler = obs.NewSampler(opts.TraceEvery)
		s.log = opts.TraceLogger
		if s.log == nil {
			s.log = slog.Default()
		}
	}
	s.mgr.Store(mgr)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ingest", s.instrument("ingest", s.handleIngest))
	mux.HandleFunc("GET /v1/topk", s.instrument("topk", s.handleTopK))
	mux.HandleFunc("GET /v1/estimate", s.instrument("estimate", s.handleEstimate))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("POST /v1/snapshot", s.instrument("snapshot", s.handleSnapshot))
	mux.HandleFunc("POST /v1/restore", s.instrument("restore", s.handleRestore))
	mux.Handle("GET /metrics", s.MetricsHandler())
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager returns the currently installed manager.
func (s *Server) Manager() *shard.Manager { return s.mgr.Load() }

// Close tears down the installed manager (draining its workers).
func (s *Server) Close() error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	return s.mgr.Load().Close()
}

// httpError wraps an error with the status it should surface as.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

// statusOf maps manager errors onto HTTP statuses via the sketchapi
// error taxonomy: overload class → 429 (with Retry-After, set by
// instrument), deadline class → 503, everything lifecycle-unavailable
// → 503, integrity failures → 500 (the restore failed closed; the old
// state keeps serving).
func statusOf(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, sketchapi.ErrOverload):
		return http.StatusTooManyRequests
	case errors.Is(err, sketchapi.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, shard.ErrWarmingUp), errors.Is(err, shard.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, shard.ErrHorizon):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

// isDeadline reports whether err is a deadline-class failure (for the
// shed-vs-deadline split in the counters; both surface as 503).
func isDeadline(err error) bool {
	return errors.Is(err, sketchapi.ErrDeadline) || errors.Is(err, context.DeadlineExceeded)
}

// requestCtx derives a handler's context: the request context (so a
// client disconnect cancels queued work even without a configured
// timeout) bounded by def, overridable per request with
// ?timeout=DURATION up to Options.MaxTimeout.
func (s *Server) requestCtx(r *http.Request, def time.Duration) (context.Context, context.CancelFunc, error) {
	d := def
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		v, err := time.ParseDuration(raw)
		if err != nil || v <= 0 {
			return nil, nil, badRequest("invalid timeout %q", raw)
		}
		d = v
	}
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	if d <= 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// qtKey carries the sampled request's shard span collector through the
// handler context; handlers thread it into the manager's traced query
// variants (a nil collector is a no-op there).
type qtKey struct{}

// queryTraceFrom returns the request's span collector, or nil when the
// request is not sampled.
func queryTraceFrom(ctx context.Context) *shard.QueryTrace {
	qt, _ := ctx.Value(qtKey{}).(*shard.QueryTrace)
	return qt
}

// instrument adapts a JSON handler, recording latency and errors and
// rendering the uniform error envelope. Handlers receive w only to
// thread it into body-size limiting; instrument owns all writes.
//
// Request identity and tracing: every response echoes the caller's
// X-Request-ID (generating one when absent), so a request can be
// correlated across client and server logs. When Options.TraceEvery is
// set, 1-in-N requests additionally collect span timings — total route
// time, worst per-shard queue wait, worst on-worker apply, cross-shard
// merge — and emit them as one structured log line keyed by the
// request id.
func (s *Server) instrument(name string, fn func(w http.ResponseWriter, r *http.Request) (any, error)) http.HandlerFunc {
	em := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		var qt *shard.QueryTrace
		if s.sampler.Sample() {
			qt = &shard.QueryTrace{}
			r = r.WithContext(context.WithValue(r.Context(), qtKey{}, qt))
		}
		resp, err := fn(w, r)
		total := time.Since(start)
		em.observe(total, err != nil)
		w.Header().Set("Content-Type", "application/json")
		status := http.StatusOK
		if err != nil {
			status = statusOf(err)
			switch {
			case status == http.StatusTooManyRequests:
				// Advertise how long the shed producer should back off,
				// derived from queue depth × observed drain rate, clamped
				// to [1s, 60s] and whole seconds per RFC 9110 §10.2.3.
				ra := int64(math.Ceil(s.mgr.Load().RetryAfter().Seconds()))
				ra = min(max(ra, 1), 60)
				s.retryAfterSec.Store(ra)
				s.shed429.Add(1)
				w.Header().Set("Retry-After", strconv.FormatInt(ra, 10))
			case status == http.StatusServiceUnavailable && isDeadline(err):
				s.deadline503.Add(1)
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		} else {
			json.NewEncoder(w).Encode(resp)
		}
		if qt != nil {
			// One span record per stage, in request order — the trace's
			// span anatomy documented in DESIGN.md.
			tr := obs.NewTrace(id)
			tr.Span("route", total)
			tr.Span("queue_wait", qt.QueueWait)
			tr.Span("shard_apply", qt.Apply)
			tr.Span("merge", qt.Merge)
			attrs := []slog.Attr{
				slog.String("request_id", tr.ID),
				slog.String("route", name),
				slog.Int("status", status),
			}
			for _, sp := range tr.Spans() {
				attrs = append(attrs, slog.Duration(sp.Name, sp.D))
			}
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "trace", attrs...)
		}
	}
}

// SampleJSON is the wire form of one sparse sample.
type SampleJSON struct {
	Idx []int     `json:"idx"`
	Val []float64 `json:"val"`
}

// IngestRequest is the body of POST /v1/ingest.
type IngestRequest struct {
	Samples []SampleJSON `json:"samples"`
}

// IngestResponse reports the step range the batch occupies.
type IngestResponse struct {
	Accepted int  `json:"accepted"`
	First    int  `json:"first"`
	Last     int  `json:"last"`
	Warming  bool `json:"warming"`
}

// decodeBody JSON-decodes at most limit bytes of the request body into
// v: 413 past the cap, 400 on malformed JSON. The snapshot and restore
// bodies go through it, and ingest falls back to the same decode, so
// none can balloon memory; the ResponseWriter lets net/http close the
// connection on overrun instead of draining the doomed upload.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	body := http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return decodeError(err)
	}
	return nil
}

// handleIngest decodes the body into a pooled arena (see ingest.go) and
// feeds the samples to the manager. The arena goes back to the pool
// only after IngestCtx returns, the point past which nothing holds a
// sample.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) (any, error) {
	a := arenas.Get().(*ingestArena)
	defer s.releaseArena(a)
	samples, err := a.decode(a.readBody(w, r, s.opts.MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, badRequest("ingest body has no samples")
	}
	if len(samples) > s.opts.MaxBatch {
		return nil, badRequest("batch of %d samples exceeds limit %d", len(samples), s.opts.MaxBatch)
	}
	mgr := s.mgr.Load()
	ctx, cancel, err := s.requestCtx(r, s.opts.IngestTimeout)
	if err != nil {
		return nil, err
	}
	defer cancel()
	first, last, err := mgr.IngestCtx(ctx, samples)
	if err != nil {
		if errors.Is(err, shard.ErrInvalidSample) {
			return nil, badRequest("%v", err)
		}
		// Sentinels map via statusOf; anything else (e.g. a warm-up
		// schedule derivation failure) is a server-side 500, not the
		// client's fault.
		return nil, err
	}
	return IngestResponse{Accepted: len(samples), First: first, Last: last, Warming: mgr.Warming()}, nil
}

// releaseArena hands a finished request's arena back to the pool,
// letting a test hook see it first.
func (s *Server) releaseArena(a *ingestArena) {
	if s.arenaDone != nil {
		s.arenaDone(a)
	}
	a.release()
}

// PairJSON is the wire form of one retrieved pair.
type PairJSON struct {
	A        int     `json:"a"`
	B        int     `json:"b"`
	Key      uint64  `json:"key"`
	Estimate float64 `json:"estimate"`
}

// TopKResponse is the body of GET /v1/topk.
type TopKResponse struct {
	Step  int        `json:"step"`
	Pairs []PairJSON `json:"pairs"`
	// Resolution reports what actually served the answer: "full", or
	// "folded" when the response came from the memoized top-k or from
	// shards currently folded by the idle policy.
	Resolution string `json:"resolution,omitempty"`
	// Cached marks answers served from the manager's top-k memo
	// without a shard fan-out (folded-tolerant reads only).
	Cached bool `json:"cached,omitempty"`
}

// queryLane parses the optional consistency override ("" = the
// deployment default lane).
func queryLane(r *http.Request) (shard.Consistency, error) {
	c, err := shard.ParseConsistency(r.URL.Query().Get("consistency"))
	if err != nil {
		return "", badRequest("%v", err)
	}
	return c, nil
}

// queryResolution parses the optional ?resolution=full|folded knob
// ("" = full, except the overload governor may degrade it — see
// foldedTolerant).
func queryResolution(r *http.Request) (string, error) {
	switch v := r.URL.Query().Get("resolution"); v {
	case "", "full", "folded":
		return v, nil
	default:
		return "", badRequest("unknown resolution %q (want %q or %q)", v, "full", "folded")
	}
}

// foldedTolerant resolves the resolution knob against the overload
// governor: an explicit "folded" opts into memoized/folded answers,
// an explicit "full" always bypasses them, and the unspecified
// default follows the governor — under overload, default reads
// degrade onto the folded tier instead of adding fan-out load.
func foldedTolerant(res string, mgr *shard.Manager) bool {
	return res == "folded" || (res == "" && mgr.Degraded())
}

// swapRetry decides whether a query that failed with the closed-manager
// error should be retried: a restore can swap the manager out mid-query,
// and the error then belongs to the outgoing instance, not the
// deployment — the swapped-in survivor can serve it. Queries are
// read-only, so the retry is safe; the attempt bound keeps a swap storm
// from pinning requests.
func (s *Server) swapRetry(mgr *shard.Manager, err error, attempt int) (*shard.Manager, bool) {
	if err == nil || !errors.Is(err, shard.ErrClosed) || attempt >= 3 {
		return nil, false
	}
	if cur := s.mgr.Load(); cur != mgr {
		return cur, true
	}
	return nil, false
}

func (s *Server) handleTopK(_ http.ResponseWriter, r *http.Request) (any, error) {
	k := 25
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			return nil, badRequest("invalid k %q", raw)
		}
		if v > s.opts.MaxTopK {
			return nil, badRequest("k=%d exceeds limit %d", v, s.opts.MaxTopK)
		}
		k = v
	}
	lane, err := queryLane(r)
	if err != nil {
		return nil, err
	}
	res, err := queryResolution(r)
	if err != nil {
		return nil, err
	}
	mgr := s.mgr.Load()
	mag := r.URL.Query().Get("magnitude")
	magnitude := mag == "1" || mag == "true"
	ctx, cancel, err := s.requestCtx(r, s.opts.QueryTimeout)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if foldedTolerant(res, mgr) {
		s.foldedQueries.Add(1)
	}
	var pairs []shard.PairEstimate
	var cached bool
	for attempt := 0; ; attempt++ {
		if foldedTolerant(res, mgr) {
			pairs, cached, err = mgr.TopKCachedT(ctx, k, lane, magnitude, queryTraceFrom(r.Context()))
			if cached {
				s.cacheHits.Add(1)
			}
		} else {
			pairs, err = mgr.TopKT(ctx, k, lane, magnitude, queryTraceFrom(r.Context()))
		}
		if next, ok := s.swapRetry(mgr, err, attempt); ok {
			mgr = next
			continue
		}
		break
	}
	if err != nil {
		return nil, err
	}
	resolution := "full"
	if cached || mgr.MaxShardFoldLevel() > 0 {
		resolution = "folded"
	}
	resp := TopKResponse{Step: mgr.Step(), Pairs: make([]PairJSON, len(pairs)), Resolution: resolution, Cached: cached}
	for i, p := range pairs {
		resp.Pairs[i] = PairJSON{A: p.A, B: p.B, Key: p.Key, Estimate: p.Estimate}
	}
	return resp, nil
}

// EstimateResponse is the body of GET /v1/estimate.
type EstimateResponse struct {
	I        int     `json:"i"`
	J        int     `json:"j"`
	Step     int     `json:"step"`
	Estimate float64 `json:"estimate"`
	// Resolution reports the serving tier: "folded" while any shard
	// serves at a reduced (idle-folded) table width, else "full". A
	// folded estimate is still unbiased — it reads the same cells a
	// coarser sketch would have — just with more collision noise.
	Resolution string `json:"resolution,omitempty"`
}

func (s *Server) handleEstimate(_ http.ResponseWriter, r *http.Request) (any, error) {
	q := r.URL.Query()
	i, errI := strconv.Atoi(q.Get("i"))
	j, errJ := strconv.Atoi(q.Get("j"))
	if errI != nil || errJ != nil {
		return nil, badRequest("estimate needs integer query params i and j")
	}
	lane, err := queryLane(r)
	if err != nil {
		return nil, err
	}
	res, err := queryResolution(r)
	if err != nil {
		return nil, err
	}
	mgr := s.mgr.Load()
	if foldedTolerant(res, mgr) {
		s.foldedQueries.Add(1)
	}
	ctx, cancel, err := s.requestCtx(r, s.opts.QueryTimeout)
	if err != nil {
		return nil, err
	}
	defer cancel()
	var est float64
	for attempt := 0; ; attempt++ {
		est, err = mgr.EstimateT(ctx, i, j, lane, queryTraceFrom(r.Context()))
		if next, ok := s.swapRetry(mgr, err, attempt); ok {
			mgr = next
			continue
		}
		break
	}
	if err != nil {
		if errors.Is(err, shard.ErrWarmingUp) || errors.Is(err, shard.ErrClosed) || isDeadline(err) {
			return nil, err
		}
		return nil, badRequest("%v", err)
	}
	resolution := "full"
	if mgr.MaxShardFoldLevel() > 0 {
		resolution = "folded"
	}
	return EstimateResponse{I: i, J: j, Step: mgr.Step(), Estimate: est, Resolution: resolution}, nil
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Manager  shard.Stats              `json:"manager"`
	Requests map[string]EndpointStats `json:"requests"`
}

func (s *Server) handleStats(_ http.ResponseWriter, r *http.Request) (any, error) {
	lane, err := queryLane(r)
	if err != nil {
		return nil, err
	}
	ctx, cancel, err := s.requestCtx(r, s.opts.QueryTimeout)
	if err != nil {
		return nil, err
	}
	defer cancel()
	st, err := s.mgr.Load().StatsT(ctx, lane, queryTraceFrom(r.Context()))
	if err != nil {
		return nil, err
	}
	return StatsResponse{Manager: st, Requests: s.metrics.snapshot()}, nil
}

// SnapshotRequest selects the snapshot/restore directory: empty means
// the server's configured default; otherwise a local (relative,
// non-escaping) name resolved under it. Clients never name absolute
// filesystem paths — an unauthenticated endpoint that wrote and
// garbage-collected arbitrary directories would be a remote
// file-create/delete primitive.
type SnapshotRequest struct {
	Dir string `json:"dir"`
}

// SnapshotResponse is the body of POST /v1/snapshot and /v1/restore.
type SnapshotResponse struct {
	Dir  string `json:"dir"`
	Step int    `json:"step"`
}

func (s *Server) snapshotDir(w http.ResponseWriter, r *http.Request) (string, error) {
	var req SnapshotRequest
	if r.ContentLength != 0 {
		// A directory name fits in well under a MiB; anything bigger is
		// not a snapshot request.
		if err := decodeBody(w, r, 1<<20, &req); err != nil {
			return "", err
		}
	}
	if s.opts.SnapshotDir == "" {
		return "", badRequest("snapshots are disabled: no snapshot dir configured")
	}
	if req.Dir == "" {
		return s.opts.SnapshotDir, nil
	}
	if !filepath.IsLocal(req.Dir) {
		return "", badRequest("dir %q must be a local name under the configured snapshot dir", req.Dir)
	}
	return filepath.Join(s.opts.SnapshotDir, req.Dir), nil
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) (any, error) {
	dir, err := s.snapshotDir(w, r)
	if err != nil {
		return nil, err
	}
	mgr := s.mgr.Load()
	if err := mgr.Snapshot(dir); err != nil {
		return nil, err
	}
	return SnapshotResponse{Dir: dir, Step: mgr.Step()}, nil
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) (any, error) {
	dir, err := s.snapshotDir(w, r)
	if err != nil {
		return nil, err
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	o := s.opts.RestoreOverrides
	if o.WALDir != "" {
		// The live manager's group-commit goroutine owns the WAL
		// directory until the swap completes, and two logs in one
		// directory would collide on the segment index. WAL recovery is
		// a boot-time path (ascsd -restore); the runtime swap serves the
		// snapshot as-is and the swapped-in manager runs undurably.
		slog.Warn("restore via API does not re-arm the WAL; restart the daemon for durable ingest", "wal_dir", o.WALDir)
		o.WALDir, o.WALSync, o.WALSegmentBytes = "", "", 0
	}
	restored, err := shard.RestoreWith(dir, o)
	if err != nil {
		// Fail closed: the old manager was never swapped out and keeps
		// serving; corrupt snapshots surface as 500 with the checksum
		// detail in the envelope.
		return nil, fmt.Errorf("restoring %s: %w", dir, err)
	}
	old := s.mgr.Swap(restored)
	if err := old.Close(); err != nil {
		return nil, err
	}
	return SnapshotResponse{Dir: dir, Step: restored.Step()}, nil
}
