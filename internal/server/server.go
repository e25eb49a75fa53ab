// Package server is the long-lived serving surface of the two-layer
// index: an HTTP/JSON API exposing the paper's query types (window, disk,
// kNN, and queries-based/tiles-based batches) over one shared in-memory
// index, evaluated concurrently across requests.
//
// The server runs in one of two modes. In static mode the index is built
// (or snapshot-loaded) once; it is immutable, which is what makes
// lock-free concurrent reads safe. In live mode
// (Config.ShardedLive, or Config.Durable with a write-ahead log) the
// server fronts an updatable twolayer.ShardedLive: every query pins one
// immutable copy-on-write snapshot of every shard — one atomic load, no
// locks on the read path — and mutation endpoints (POST /v1/insert,
// /v1/delete, /v1/bulk) feed the engine's single-writer apply loop. Queries keep
// no state on the index (kNN included), so in both modes requests read
// the shared index or snapshot directly; only traced requests take a
// private view (Index.Traced), so their counters are per-request. Every
// query adds its counters to the engine's always-on total
// (QueryStats), published as metric families beside the per-endpoint
// latency/error metrics: GET /metrics serves them as Prometheus text and
// GET /v1/stats as JSON, both from one registry (Metrics).
// Either mode can be served by one index or by a sharded scatter-gather
// engine, and both are served as the engine: an unsharded index is its
// one-shard case (twolayer.OneShard; a live or durable engine of one
// shard is the same case), so New maps the configured topology once and
// every handler, trace and metric reads the same pinned
// *twolayer.Sharded snapshot.
//
// See docs/SERVER.md for the full API reference and operator guide.
package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// Defaults for Config fields left zero.
const (
	DefaultRequestTimeout = 5 * time.Second
	DefaultMaxBodyBytes   = 8 << 20 // 8 MiB; batch requests dominate
	DefaultResultLimit    = 1000
	MaxResultLimit        = 100000
	MaxBatchQueries       = 100000
	MaxK                  = 10000
	shutdownGrace         = 10 * time.Second
)

// Config configures a Server. Exactly one of the four engine fields —
// Index, Sharded, ShardedLive and Durable — must be set. An Index is
// served as its one-shard engine, so every server has the same traces
// and twolayer_shard_* metrics.
type Config struct {
	// Index is the shared index all requests query (static mode).
	Index *twolayer.Index

	// Sharded is a static scatter-gather engine: every query endpoint
	// routes through its shards.
	Sharded *twolayer.Sharded

	// ShardedLive is the updatable engine (live mode), one apply loop for
	// every shard: queries pin per-request snapshots and the mutation endpoints
	// POST /v1/insert, /v1/delete, and /v1/bulk are mounted. The server
	// does not close it; the owner should Close it after shutdown.
	ShardedLive *twolayer.ShardedLive

	// Durable is an updatable engine backed by the durability engine
	// (one write-ahead log and checkpoints for every shard). It implies live
	// mode — all live endpoints are mounted — and additionally mounts
	// POST /v1/checkpoint and registers the twolayer_wal_*,
	// twolayer_checkpoint* and twolayer_recovery_* metric families.
	// The server does not close it; the owner should Close it after
	// shutdown (a clean close fsyncs the log tail).
	Durable *twolayer.DurableLive

	// Logger receives structured request logs. Defaults to slog.Default().
	Logger *slog.Logger

	// RequestTimeout bounds the evaluation of one request. Cancellation is
	// cooperative at tile granularity for window queries and between
	// stages elsewhere; see docs/SERVER.md for exact semantics.
	// Defaults to DefaultRequestTimeout.
	RequestTimeout time.Duration

	// MaxBodyBytes caps request body size (413 beyond it). Defaults to
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// MaxInflight caps concurrently evaluating requests per endpoint
	// class — read (window/disk/knn), mutate (insert/delete/bulk/
	// checkpoint), and batch each get their own semaphore of this size.
	// Requests beyond it join a bounded FIFO wait queue or are shed with
	// 429 + Retry-After (see docs/SERVER.md#overload-behavior). 0 means
	// the default of max(16, 4×GOMAXPROCS); negative disables admission
	// control entirely.
	MaxInflight int

	// QueueDepth bounds each class's admission wait queue. Requests
	// arriving with the queue full are shed immediately. 0 means the
	// default of 8× the effective MaxInflight; negative means no queue
	// (shed as soon as all slots are busy).
	QueueDepth int

	// CollectStats has no effect: the engine counts every query anyway,
	// and the twolayer_query_* families read that total.
	//
	// Deprecated: query counters are always collected.
	CollectStats bool

	// EnableTracing, when true, evaluates every single query on a traced
	// view and attaches the per-stage trace to the response (the "trace"
	// field). Clients can also request a trace per call — `"trace": true`
	// in the body or an `X-Trace: 1` request header — without enabling it
	// globally. A trace carries the request's own core counters.
	EnableTracing bool

	// SlowQueryThreshold, when positive, traces every single query and
	// logs (level WARN) any whose evaluation takes at least this long,
	// with the full trace attached. Independent of EnableTracing: slow
	// queries are traced internally even when no client asked for one.
	SlowQueryThreshold time.Duration

	// BuildDuration, if known, is the wall time of the initial index
	// build or snapshot load; it is exported as the
	// twolayer_index_build_seconds gauge.
	BuildDuration time.Duration

	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return c
}

// Server serves spatial queries over one shared two-layer index.
type Server struct {
	cfg Config
	// pin returns the snapshot a request or a scrape reads: the static
	// engine, or the live engine's latest published snapshot (immutable;
	// later mutations go into later snapshots).
	pin     func() *twolayer.Sharded
	live    *twolayer.ShardedLive // nil when static
	ckpt    *twolayer.DurableLive // nil unless durable
	adm     *admission            // nil when admission control is disabled
	metrics *Metrics
	mux     *http.ServeMux
}

// New builds a Server from cfg. It panics unless exactly one of the four
// engine fields is set (a programming error, not a runtime condition).
// This is the only place the served topology is inspected: everything
// downstream reads through s.pin, s.live and s.ckpt.
func New(cfg Config) *Server {
	set := 0
	for _, on := range []bool{
		cfg.Index != nil, cfg.Sharded != nil, cfg.ShardedLive != nil, cfg.Durable != nil,
	} {
		if on {
			set++
		}
	}
	if set != 1 {
		panic("server: exactly one of Config.Index, Config.Sharded, " +
			"Config.ShardedLive and Config.Durable is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
	}
	// An index is its one-shard engine, and durable mode is live mode
	// plus checkpoints.
	static := cfg.Sharded
	switch {
	case cfg.Index != nil:
		static = twolayer.OneShard(cfg.Index)
	case cfg.ShardedLive != nil:
		s.live = cfg.ShardedLive
	case cfg.Durable != nil:
		s.live, s.ckpt = cfg.Durable.Live(), cfg.Durable
	}
	s.pin = func() *twolayer.Sharded { return static }
	if s.live != nil {
		s.pin = s.live.Snapshot
	}
	if cfg.MaxInflight >= 0 {
		s.adm = newAdmission(cfg.MaxInflight, cfg.QueueDepth)
	}
	routes := s.routes()
	s.metrics = newMetrics(s, routes)
	s.metrics.buildDur.Set(cfg.BuildDuration.Seconds())
	for _, rt := range routes {
		s.mux.Handle(rt.pattern, s.instrument(rt.endpoint(), rt.handler))
	}
	// /metrics is a scrape surface, not an API: served raw, never counted.
	s.mux.Handle("GET /metrics", s.metrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// route is one instrumented endpoint: a ServeMux pattern ("METHOD /path")
// and the handler behind the instrument middleware.
type route struct {
	pattern string
	handler http.Handler
}

// endpoint is the route's name in logs, pprof labels and the endpoint
// label of the twolayer_http_* metrics: its path without the leading
// slash ("v1/window", "healthz").
func (rt route) endpoint() string {
	return rt.pattern[strings.Index(rt.pattern, "/")+1:]
}

// routes is the server's one route table: New derives both the mux
// registrations and the pre-registered metric series from it, and every
// path in it is documented in docs/SERVER.md. The API lives under /v1/;
// /healthz is additionally served unversioned for infrastructure probes.
func (s *Server) routes() []route {
	query := func(h http.HandlerFunc) http.Handler {
		return s.limitBody(s.withTimeout(h))
	}
	routes := []route{
		{"POST /v1/window", query(s.handleV1Window)},
		{"POST /v1/disk", query(s.handleV1Disk)},
		{"POST /v1/knn", query(s.handleKNN)},
		{"POST /v1/batch", query(s.handleBatch)},
		{"GET /v1/stats", http.HandlerFunc(s.handleStats)},
		{"GET /v1/healthz", http.HandlerFunc(s.handleHealthz)},
		{"GET /healthz", http.HandlerFunc(s.handleHealthz)},
	}
	if s.live != nil {
		// Mutations skip withTimeout: a submission blocks until its batch
		// is published, and canceling mid-apply cannot undo the accepted
		// mutation — the ack must be reported to the client.
		routes = append(routes,
			route{"POST /v1/insert", s.limitBody(http.HandlerFunc(s.handleInsert))},
			route{"POST /v1/delete", s.limitBody(http.HandlerFunc(s.handleDelete))},
			route{"POST /v1/bulk", s.limitBody(http.HandlerFunc(s.handleBulk))})
	}
	if s.ckpt != nil {
		// No withTimeout: a checkpoint runs to completion once started.
		routes = append(routes,
			route{"POST /v1/checkpoint", http.HandlerFunc(s.handleCheckpoint)})
	}
	return routes
}

// Handler returns the root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// ListenAndServe serves on addr until ctx is canceled, then shuts down
// gracefully: in-flight requests get shutdownGrace to finish. It returns
// nil on clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.cfg.Logger.Info("shutting down", "grace", shutdownGrace)
	shCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return err
	}
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}
