package server

import (
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/obsv"
)

// Metrics is the server's engine-wide metrics surface, served on
// GET /metrics in the Prometheus text exposition format. It wraps one
// obsv.Registry holding every instrument group the server publishes:
//
//   - twolayer_http_*: per-endpoint request counts, errors, timeouts,
//     and latency histograms, recorded by the instrument middleware.
//   - twolayer_query_*: the core filtering/refinement work counters
//     (tiles visited, per-class entries scanned, comparisons, duplicates
//     avoided, ...) aggregated across instrumented requests. Populated
//     only when Config.CollectStats is on.
//   - twolayer_index_* / twolayer_partition_*: point-in-time shape of
//     the served index — object counts, per-class entry totals, tile
//     occupancy skew, replication — sampled at scrape time through a
//     short-lived cache (the partition walk is O(occupied tiles)).
//   - twolayer_live_*: apply-loop state of a live-mode server (epoch,
//     backlog, publish totals and latency).
//   - twolayer_wal_* / twolayer_checkpoint*: durability-engine state of
//     a durable-mode server (log shape, fsync and checkpoint counters
//     and cumulative latencies).
//   - twolayer_process_*: process-level gauges.
//
// Engine groups are registered as scrape-time callbacks reading the
// engine's own counters, so nothing here adds work to hot paths; only
// the http group is written per request (a few atomic adds).
//
// Every metric name registered here must be documented in
// docs/OBSERVABILITY.md — `make docs-check` enforces it.
type Metrics struct {
	reg *obsv.Registry

	requests *obsv.CounterVec
	errors   *obsv.CounterVec
	timeouts *obsv.CounterVec
	latency  *obsv.HistogramVec
	traced   *obsv.Counter
	slow     *obsv.Counter
	buildDur *obsv.Gauge

	// admQueueWait is the only write-side admission instrument; the rest
	// of the twolayer_admission_* group reads the gates' own counters at
	// scrape time.
	admQueueWait *obsv.HistogramVec
}

// partitionCache memoizes the O(occupied tiles) partition walk between
// scrapes so a tight scrape loop (or a registry with many partition
// series) does not rewalk the tile directory per series read.
type partitionCache struct {
	fetch func() twolayer.PartitionStats

	mu    sync.Mutex
	last  time.Time
	cache twolayer.PartitionStats
}

// partitionRefresh is the maximum staleness of partition gauges.
const partitionRefresh = 5 * time.Second

func (p *partitionCache) get() twolayer.PartitionStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.last.IsZero() || time.Since(p.last) >= partitionRefresh {
		p.cache = p.fetch()
		p.last = time.Now()
	}
	return p.cache
}

// classLabels maps core class indices (A..D) to label values.
var classLabels = [4]string{"A", "B", "C", "D"}

// newMetrics builds the registry for s, pre-registering the http series
// of every routed endpoint so all series exist (at zero) from the first
// scrape.
func newMetrics(s *Server, routes []route) *Metrics {
	r := obsv.NewRegistry()
	m := &Metrics{reg: r}

	// ---- http group -------------------------------------------------------
	m.requests = r.CounterVec("twolayer_http_requests_total",
		"Requests routed to each endpoint.", "endpoint")
	m.errors = r.CounterVec("twolayer_http_request_errors_total",
		"Responses with status >= 400, per endpoint.", "endpoint")
	m.timeouts = r.CounterVec("twolayer_http_request_timeouts_total",
		"Responses with status 503 (evaluation deadline exceeded), per endpoint.", "endpoint")
	m.latency = r.HistogramVec("twolayer_http_request_duration_seconds",
		"End-to-end request latency, per endpoint.", nil, "endpoint")
	for _, rt := range routes {
		n := rt.endpoint()
		m.requests.With(n)
		m.errors.With(n)
		m.timeouts.With(n)
		m.latency.With(n)
	}
	m.traced = r.Counter("twolayer_traced_queries_total",
		"Queries evaluated with per-request tracing attached.")
	m.slow = r.Counter("twolayer_slow_queries_total",
		"Queries at or above the slow-query threshold (logged with their trace).")

	// ---- admission group --------------------------------------------------
	// Registered only when admission control is on (Config.MaxInflight
	// >= 0, the default). See docs/SERVER.md#overload-behavior.
	if s.adm != nil {
		m.admQueueWait = r.HistogramVec("twolayer_admission_queue_wait_seconds",
			"Time admitted requests spent in the admission wait queue (0 for fast-path admissions), per class.",
			nil, "class")
		inflight := r.GaugeVecFunc("twolayer_admission_inflight",
			"Requests currently holding an in-flight slot, per class.", "class")
		queued := r.GaugeVecFunc("twolayer_admission_queued",
			"Requests currently waiting in the admission queue, per class.", "class")
		admitted := r.CounterVecFunc("twolayer_admission_admitted_total",
			"Requests admitted past the gate, per class.", "class")
		shed := r.CounterVecFunc("twolayer_admission_shed_total",
			"Requests shed by admission control, per class and reason (queue_full, deadline, expired).",
			"class", "reason")
		for c := admissionClass(0); c < numClasses; c++ {
			g := s.adm.gates[c]
			m.admQueueWait.With(g.name)
			inflight.Add(func() float64 { return float64(g.inflight.Load()) }, g.name)
			queued.Add(func() float64 { return float64(g.queued.Load()) }, g.name)
			admitted.Add(func() float64 { return float64(g.admitted.Load()) }, g.name)
			for ri, rn := range shedReasonNames {
				ri := ri
				shed.Add(func() float64 { return float64(g.shed[ri].Load()) }, g.name, rn)
			}
		}
		if s.mut != nil {
			live := s.mut
			r.GaugeFunc("twolayer_admission_backlog",
				"Mutations accepted but not yet published (summed across shards); the quantity MaxBacklog bounds.",
				func() float64 { return float64(live.Stats().Pending) })
			r.GaugeFunc("twolayer_admission_backlog_limit",
				"Configured per-shard mutation backlog bound (twolayer.LiveOptions.MaxBacklog); 0 = unbounded.",
				func() float64 { return float64(live.Stats().BacklogLimit) })
			r.CounterFunc("twolayer_admission_backlog_rejected_total",
				"Mutation submissions rejected with 503 because the apply backlog was full.",
				func() float64 { return float64(live.Stats().Rejected) })
		}
	}

	// ---- index & partition group -----------------------------------------
	m.buildDur = r.Gauge("twolayer_index_build_seconds",
		"Wall time of the initial index build or snapshot load, 0 if unknown.")
	r.GaugeFunc("twolayer_index_objects",
		"Distinct objects in the served index (current snapshot in live mode).",
		func() float64 { return float64(s.eng.pin().Len()) })
	r.GaugeFunc("twolayer_index_epoch",
		"Copy-on-write epoch of the served index; 0 for a static build.",
		func() float64 { return float64(s.eng.pin().Epoch()) })
	r.GaugeFunc("twolayer_index_memory_bytes",
		"Approximate data size of the served index: entries, tile directory and read tables.",
		func() float64 { return float64(s.eng.pin().MemoryFootprint()) })

	parts := &partitionCache{fetch: func() twolayer.PartitionStats {
		return s.eng.pin().PartitionStats()
	}}
	r.GaugeFunc("twolayer_partition_grid_tiles",
		"Total tiles of the primary grid (NX*NY).",
		func() float64 { return float64(parts.get().GridTiles) })
	r.GaugeFunc("twolayer_partition_occupied_tiles",
		"Tiles holding at least one entry.",
		func() float64 { return float64(parts.get().OccupiedTiles) })
	r.GaugeFunc("twolayer_partition_replicas",
		"Stored entries including grid replication.",
		func() float64 { return float64(parts.get().Replicas) })
	classEntries := r.GaugeVecFunc("twolayer_partition_class_entries",
		"Stored entries per secondary class (A holds each object exactly once).", "class")
	for c := 0; c < 4; c++ {
		c := c
		classEntries.Add(func() float64 { return float64(parts.get().ClassCounts[c]) }, classLabels[c])
	}
	r.GaugeFunc("twolayer_partition_max_tile_entries",
		"Entry count of the fullest tile.",
		func() float64 { return float64(parts.get().MaxTileEntries) })
	r.GaugeFunc("twolayer_partition_mean_tile_entries",
		"Mean entries per occupied tile.",
		func() float64 { return parts.get().MeanTileEntries })
	r.GaugeFunc("twolayer_partition_skew_ratio",
		"Max/mean tile occupancy; 1.0 is a perfectly even spread.",
		func() float64 { return parts.get().SkewRatio })
	r.GaugeFunc("twolayer_partition_replication_factor",
		"Stored entries (with replicas) per object.",
		func() float64 { return parts.get().ReplicationFactor })
	r.GaugeFunc("twolayer_partition_boundary_ratio",
		"Fraction of stored entries that are boundary replicas (classes B, C, D).",
		func() float64 { return parts.get().BoundaryRatio })

	// ---- query counters group (CollectStats aggregation) ------------------
	agg := s.agg
	r.CounterFunc("twolayer_queries_observed_total",
		"Instrumented queries merged into the aggregate counters.",
		func() float64 { return float64(agg.Queries()) })
	queryCounter := func(name, help string, get func(*twolayer.Stats) int64) {
		r.CounterFunc(name, help, func() float64 {
			snap := agg.Snapshot()
			return float64(get(&snap))
		})
	}
	queryCounter("twolayer_query_tiles_visited_total",
		"Grid tiles examined across instrumented queries.",
		func(st *twolayer.Stats) int64 { return st.TilesVisited })
	queryCounter("twolayer_query_partitions_scanned_total",
		"Secondary partitions (tile classes) read.",
		func(st *twolayer.Stats) int64 { return st.PartitionsScanned })
	queryCounter("twolayer_query_entries_scanned_total",
		"Entries inspected in scanned partitions.",
		func(st *twolayer.Stats) int64 { return st.EntriesScanned })
	classScanned := r.CounterVecFunc("twolayer_query_class_entries_scanned_total",
		"Entries held by the partitions selected for scanning, per class.", "class")
	for c := 0; c < 4; c++ {
		c := c
		classScanned.Add(func() float64 {
			return float64(agg.Snapshot().ClassScanned[c])
		}, classLabels[c])
	}
	queryCounter("twolayer_query_comparisons_total",
		"Coordinate comparisons executed during filtering (the quantity Lemmas 3-4 minimize).",
		func(st *twolayer.Stats) int64 { return st.Comparisons })
	queryCounter("twolayer_query_results_total",
		"Entries reported by the filtering step.",
		func(st *twolayer.Stats) int64 { return st.Results })
	queryCounter("twolayer_query_duplicates_avoided_total",
		"Entries skipped wholesale by the duplicate-free class selection (Lemmas 1-2).",
		func(st *twolayer.Stats) int64 { return st.DuplicatesAvoided })
	queryCounter("twolayer_query_secondary_filter_tests_total",
		"Lemma 5 coverage tests performed before refinement.",
		func(st *twolayer.Stats) int64 { return st.SecondaryFilterTests })
	queryCounter("twolayer_query_secondary_filter_hits_total",
		"Candidates accepted by the secondary filter without an exact geometry test.",
		func(st *twolayer.Stats) int64 { return st.SecondaryFilterHits })
	queryCounter("twolayer_query_refinement_tests_total",
		"Exact geometry tests executed.",
		func(st *twolayer.Stats) int64 { return st.RefinementTests })
	queryCounter("twolayer_query_distance_computations_total",
		"Point-distance evaluations in disk and kNN queries.",
		func(st *twolayer.Stats) int64 { return st.DistanceComputations })

	// ---- adaptive kernel group --------------------------------------------
	// Unlike the CollectStats aggregation above, these read the engine's
	// always-on PathStats counters (shared across every view and
	// copy-on-write snapshot of the served engine), so they are populated
	// regardless of Config.CollectStats.
	pathCounter := func(name, help string, get func(twolayer.PathStats) int64) {
		r.CounterFunc(name, help, func() float64 {
			return float64(get(s.eng.pin().QueryPathStats()))
		})
	}
	pathCounter("twolayer_query_fastpath_counts_total",
		"Count-only queries answered by the O(tiles) count pushdown instead of a streamed scan.",
		func(ps twolayer.PathStats) int64 { return ps.FastCounts })
	pathCounter("twolayer_query_fastpath_tiles_total",
		"Tiles answered wholesale because their comparison plan was empty (interior tiles).",
		func(ps twolayer.PathStats) int64 { return ps.FastTiles })
	pathCounter("twolayer_query_fastpath_bulk_entries_total",
		"Entries counted or emitted in bulk with zero per-entry comparisons.",
		func(ps twolayer.PathStats) int64 { return ps.BulkEntries })

	// ---- live group -------------------------------------------------------
	if s.mut != nil {
		live := s.mut
		r.GaugeFunc("twolayer_live_epoch",
			"Epoch of the current published snapshot.",
			func() float64 { return float64(live.Stats().Epoch) })
		r.GaugeFunc("twolayer_live_pending_mutations",
			"Mutations accepted but not yet published.",
			func() float64 { return float64(live.Stats().Pending) })
		r.CounterFunc("twolayer_live_applied_mutations_total",
			"Mutations applied since start.",
			func() float64 { return float64(live.Stats().Applied) })
		r.CounterFunc("twolayer_live_publishes_total",
			"Copy-on-write snapshots published.",
			func() float64 { return float64(live.Stats().Publishes) })
		r.GaugeFunc("twolayer_live_last_batch_mutations",
			"Mutations in the most recent publish.",
			func() float64 { return float64(live.Stats().LastBatch) })
		r.GaugeFunc("twolayer_live_last_publish_seconds",
			"Wall time of the most recent publish.",
			func() float64 { return live.Stats().LastPublish.Seconds() })
		r.CounterFunc("twolayer_live_publish_seconds_total",
			"Cumulative wall time spent publishing snapshots.",
			func() float64 { return live.Stats().PublishTotal.Seconds() })
		r.CounterFunc("twolayer_live_journal_seconds_total",
			"Part of the publish time spent in the write-ahead journal hook (append and, by policy, fsync).",
			func() float64 { return live.Stats().JournalTotal.Seconds() })
		r.CounterFunc("twolayer_live_cow_bytes_total",
			"Bytes of tile pages, directory pages and class slices copied on first touch by copy-on-write publishes.",
			func() float64 { return float64(live.Stats().COWBytes) })
	}

	// ---- wal / checkpoint group -------------------------------------------
	if s.ckpt != nil {
		durable := s.ckpt
		r.GaugeFunc("twolayer_wal_segments",
			"On-disk log segment files, including the active one.",
			func() float64 { return float64(durable.Stats().Segments) })
		r.GaugeFunc("twolayer_wal_log_bytes",
			"Total bytes across log segments.",
			func() float64 { return float64(durable.Stats().LogBytes) })
		r.CounterFunc("twolayer_wal_appended_records_total",
			"Batch frames appended to the log.",
			func() float64 { return float64(durable.Stats().AppendedRecords) })
		r.CounterFunc("twolayer_wal_appended_bytes_total",
			"Bytes appended to the log.",
			func() float64 { return float64(durable.Stats().AppendedBytes) })
		r.CounterFunc("twolayer_wal_fsyncs_total",
			"fsync calls on the active segment.",
			func() float64 { return float64(durable.Stats().Fsyncs) })
		r.CounterFunc("twolayer_wal_rotations_total",
			"Segment rotations (seal + new active segment).",
			func() float64 { return float64(durable.Stats().Rotations) })
		r.CounterFunc("twolayer_wal_pruned_segments_total",
			"Sealed segments removed because a checkpoint covers them.",
			func() float64 { return float64(durable.Stats().PrunedSegments) })
		r.CounterFunc("twolayer_wal_append_seconds_total",
			"Cumulative wall time inside successful journal appends.",
			func() float64 { return durable.Stats().AppendTotal.Seconds() })
		r.CounterFunc("twolayer_wal_fsync_seconds_total",
			"Cumulative wall time inside fsync calls.",
			func() float64 { return durable.Stats().FsyncTotal.Seconds() })
		r.GaugeFunc("twolayer_wal_failed",
			"1 once the log hit an unrecoverable write/fsync error (mutations rejected), else 0.",
			func() float64 {
				if durable.Stats().Failed != "" {
					return 1
				}
				return 0
			})
		r.CounterFunc("twolayer_checkpoints_total",
			"Checkpoints written since start.",
			func() float64 { return float64(durable.Stats().Checkpoints) })
		r.GaugeFunc("twolayer_checkpoint_epoch",
			"Epoch of the newest checkpoint, 0 if none.",
			func() float64 { return float64(durable.Stats().CheckpointEpoch) })
		r.GaugeFunc("twolayer_checkpoint_age_seconds",
			"Seconds since the newest checkpoint, 0 if none.",
			func() float64 { return durable.Stats().CheckpointAge.Seconds() })
		r.CounterFunc("twolayer_checkpoint_seconds_total",
			"Cumulative wall time writing checkpoint files.",
			func() float64 { return durable.Stats().CheckpointTotal.Seconds() })
		r.GaugeFunc("twolayer_mutations_since_checkpoint",
			"Mutations journaled since the newest checkpoint (replay cost of a crash now).",
			func() float64 { return float64(durable.Stats().SinceCheckpoint) })
	}

	// ---- shard group ------------------------------------------------------
	if s.shardStats != nil {
		nShards := len(s.shardStats().PerShard)
		r.Gauge("twolayer_shard_count",
			"Spatial shards of the scatter-gather engine.").Set(float64(nShards))
		r.CounterFunc("twolayer_shard_single_queries_total",
			"Queries answered by one shard (fast path, no fan-out).",
			func() float64 { return float64(s.shardStats().SingleShard) })
		r.CounterFunc("twolayer_shard_fanout_queries_total",
			"Queries fanned out to two or more shards and merged.",
			func() float64 { return float64(s.shardStats().Fanout) })
		queries := r.CounterVecFunc("twolayer_shard_queries_total",
			"Queries routed to each shard (fan-out counts every shard scanned).", "shard")
		busy := r.CounterVecFunc("twolayer_shard_busy_seconds_total",
			"Cumulative wall time each shard spent scanning.", "shard")
		results := r.CounterVecFunc("twolayer_shard_results_total",
			"Results each shard contributed after cross-shard deduplication.", "shard")
		objects := r.GaugeVecFunc("twolayer_shard_objects",
			"Entries stored in each shard (including boundary replicas).", "shard")
		epoch := r.GaugeVecFunc("twolayer_shard_epoch",
			"Published copy-on-write epoch of each shard.", "shard")
		for i := 0; i < nShards; i++ {
			i := i
			label := strconv.Itoa(i)
			queries.Add(func() float64 {
				return float64(s.shardStats().PerShard[i].Queries)
			}, label)
			busy.Add(func() float64 {
				return float64(s.shardStats().PerShard[i].BusyNS) / 1e9
			}, label)
			results.Add(func() float64 {
				return float64(s.shardStats().PerShard[i].Results)
			}, label)
			objects.Add(func() float64 {
				return float64(s.shardStats().PerShard[i].Objects)
			}, label)
			epoch.Add(func() float64 {
				return float64(s.shardStats().PerShard[i].Epoch)
			}, label)
		}
	}

	// ---- process group ----------------------------------------------------
	start := time.Now()
	r.GaugeFunc("twolayer_process_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(start).Seconds() })
	r.GaugeFunc("twolayer_process_goroutines",
		"Current goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("twolayer_process_heap_alloc_bytes",
		"Bytes of allocated heap objects.",
		runtimeMetric("/memory/classes/heap/objects:bytes"))
	r.CounterFunc("twolayer_process_gc_total",
		"Completed GC cycles.",
		runtimeMetric("/gc/cycles/total:gc-cycles"))

	return m
}

// runtimeMetric returns a reader of one uint64 runtime/metrics sample.
// Unlike runtime.ReadMemStats it does not stop the world, so a scrape
// adds no pause to the latencies the other families report.
func runtimeMetric(name string) func() float64 {
	return func() float64 {
		sample := []metrics.Sample{{Name: name}}
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(sample[0].Value.Uint64())
	}
}

// observe records one finished request into the http group.
func (m *Metrics) observe(endpoint string, status int, elapsed time.Duration) {
	m.requests.With(endpoint).Inc()
	if status >= 400 {
		m.errors.With(endpoint).Inc()
	}
	if status == http.StatusServiceUnavailable {
		m.timeouts.With(endpoint).Inc()
	}
	m.latency.With(endpoint).Observe(elapsed.Seconds())
}

// Registry exposes the underlying obsv registry (for Names and tests).
func (m *Metrics) Registry() *obsv.Registry { return m.reg }

// ServeHTTP renders the registry in the Prometheus text format.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.reg.ServeHTTP(w, r)
}
