package server

import (
	"fmt"
	"math"
	"net/http"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// ctxPollInterval is how many results a streaming query produces between
// deadline polls. Cancellation is therefore cooperative: a query is
// interrupted within ~ctxPollInterval results (tile-granular for window
// queries) of its deadline expiring.
const ctxPollInterval = 256

// ---- wire types -----------------------------------------------------------

// rectJSON is a rectangle in request/response bodies.
type rectJSON struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

func (r rectJSON) toRect() twolayer.Rect {
	return twolayer.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

// validate reports why the rectangle is unusable as data or query, or "".
func (r rectJSON) validate() string {
	for _, v := range [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "rect coordinates must be finite"
		}
	}
	if r.MinX > r.MaxX || r.MinY > r.MaxY {
		return "rect must satisfy min_x <= max_x and min_y <= max_y"
	}
	return ""
}

// pointJSON is a query center point.
type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func (p pointJSON) validate() string {
	if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
		return "center coordinates must be finite"
	}
	return ""
}

type knnRequest struct {
	Center pointJSON `json:"center"`
	K      int       `json:"k"`
	Exact  bool      `json:"exact"`
	Trace  bool      `json:"trace"`
}

type batchRequest struct {
	// Mode selects the paper's batch evaluation strategy: "queries"
	// (each query on its own, the default: measured ahead of "tiles" at
	// every batch shape below ~10000 windows, EXPERIMENTS.md Figure 11)
	// or "tiles" (tile by tile, cache-conscious).
	Mode string `json:"mode"`
	// Threads is the worker count; 0 (or more than GOMAXPROCS) means GOMAXPROCS.
	Threads int `json:"threads"`
	// Exactly one of Windows/Disks must be non-empty.
	Windows []rectJSON `json:"windows"`
	Disks   []struct {
		Center pointJSON `json:"center"`
		Radius float64   `json:"radius"`
	} `json:"disks"`
}

type neighborJSON struct {
	ID       twolayer.ID `json:"id"`
	Distance float64     `json:"distance"`
}

type knnResponse struct {
	Neighbors []neighborJSON `json:"neighbors"`
	ElapsedUS int64          `json:"elapsed_us"`
	Trace     *traceJSON     `json:"trace,omitempty"`
}

// classCountsJSON reports a per-class quantity keyed by class letter.
type classCountsJSON struct {
	A int64 `json:"A"`
	B int64 `json:"B"`
	C int64 `json:"C"`
	D int64 `json:"D"`
}

func classCounts64(v [4]int64) classCountsJSON {
	return classCountsJSON{A: v[0], B: v[1], C: v[2], D: v[3]}
}

// shardSpanJSON is one shard's slice of a scatter-gather query in a
// trace: which shard scanned, its wall time, and the results it
// contributed after cross-shard deduplication.
type shardSpanJSON struct {
	Shard     int   `json:"shard"`
	ElapsedUS int64 `json:"elapsed_us"`
	Results   int   `json:"results"`
}

// traceJSON is the per-query trace attached to responses (the "trace"
// field) when tracing was requested: wall-clock stage timings plus the
// full core counter set of this one evaluation. On a sharded server the
// core counters are zero and Shards carries the per-shard fan-out spans
// instead. The schema is documented in docs/OBSERVABILITY.md.
type traceJSON struct {
	Kind      string `json:"kind"`
	ElapsedUS int64  `json:"elapsed_us"`
	// QueueWaitUS is the time this request spent queued for admission
	// before evaluation started (0 on the uncontended fast path).
	QueueWaitUS          int64           `json:"queue_wait_us,omitempty"`
	Shards               []shardSpanJSON `json:"shards,omitempty"`
	FilterUS             int64           `json:"filter_us"`
	RefineUS             int64           `json:"refine_us"`
	TilesVisited         int64           `json:"tiles_visited"`
	PartitionsScanned    int64           `json:"partitions_scanned"`
	EntriesScanned       int64           `json:"entries_scanned"`
	ClassEntriesScanned  classCountsJSON `json:"class_entries_scanned"`
	Comparisons          int64           `json:"comparisons"`
	DuplicatesAvoided    int64           `json:"duplicates_avoided"`
	SecondaryFilterTests int64           `json:"secondary_filter_tests"`
	SecondaryFilterHits  int64           `json:"secondary_filter_hits"`
	RefinementTests      int64           `json:"refinement_tests"`
	DistanceComputations int64           `json:"distance_computations"`
	Results              int64           `json:"results"`
}

func newTraceJSON(tr *twolayer.Trace) *traceJSON {
	return &traceJSON{
		Kind:                 tr.Kind,
		ElapsedUS:            tr.ElapsedNS / 1000,
		FilterUS:             tr.FilterNS() / 1000,
		RefineUS:             tr.RefineNS / 1000,
		TilesVisited:         tr.TilesVisited,
		PartitionsScanned:    tr.PartitionsScanned,
		EntriesScanned:       tr.EntriesScanned,
		ClassEntriesScanned:  classCounts64(tr.ClassScanned),
		Comparisons:          tr.Comparisons,
		DuplicatesAvoided:    tr.DuplicatesAvoided,
		SecondaryFilterTests: tr.SecondaryFilterTests,
		SecondaryFilterHits:  tr.SecondaryFilterHits,
		RefinementTests:      tr.RefinementTests,
		DistanceComputations: tr.DistanceComputations,
		Results:              tr.Results,
	}
}

// batchResponse is the /v1/batch answer; appendBatch writes it.
type batchResponse struct {
	Counts    []int  `json:"counts"`
	Total     int    `json:"total"`
	Mode      string `json:"mode"`
	Threads   int    `json:"threads"`
	ElapsedUS int64  `json:"elapsed_us"`
}

// ---- shared helpers -------------------------------------------------------

// headerTrace reports whether the request asked for a trace through the
// X-Trace header (any value but "0" and "false" enables it).
func headerTrace(r *http.Request) bool {
	v := r.Header.Get("X-Trace")
	return v != "" && v != "0" && v != "false"
}

// beginQuery opens the searcher one request (a single query or a batch)
// evaluates on, honoring CollectStats, tracing (Config.EnableTracing, the
// request's "trace" field, or an X-Trace header), and the slow-query
// threshold. It returns the searcher and the queryEnd whose finish to
// call exactly once after a successful evaluation.
func (s *Server) beginQuery(w http.ResponseWriter, r *http.Request, kind string, reqTrace bool) (searcher, queryEnd) {
	want := s.cfg.EnableTracing || reqTrace || headerTrace(r)
	// The slow-query log needs timings too, so it traces internally even
	// when no client asked.
	view, done := s.eng.open(kind, want || s.cfg.SlowQueryThreshold > 0)
	return view, queryEnd{s: s, w: w, kind: kind, want: want, done: done}
}

// queryEnd is the end of one evaluation beginQuery opened, a value so
// that ending a query allocates nothing of its own.
type queryEnd struct {
	s    *Server
	w    http.ResponseWriter
	kind string
	want bool // the client or config asked for a trace
	done func() queryTrace
}

// finish merges counters into the /v1/stats aggregate, logs the query if
// it crossed SlowQueryThreshold, and — when the client or config asked
// for a trace — sets a compact X-Trace response header and returns the
// trace to embed in the response (nil otherwise).
func (q queryEnd) finish() *traceJSON {
	if q.done == nil {
		return nil
	}
	tr := q.done()
	if tr == nil {
		return nil
	}
	if thr := q.s.cfg.SlowQueryThreshold; thr > 0 && tr.Elapsed() >= thr {
		q.s.metrics.slow.Inc()
		q.s.cfg.Logger.Warn("slow query",
			append([]any{"kind", q.kind, "threshold", thr}, tr.slowAttrs()...)...)
	}
	if !q.want {
		return nil
	}
	q.s.metrics.traced.Inc()
	header, body := tr.render()
	q.w.Header().Set("X-Trace", header)
	return body
}

// clampLimit resolves a request's result limit. ok=false means the value
// was invalid.
func clampLimit(limit int) (int, bool) {
	switch {
	case limit < 0:
		return 0, false
	case limit == 0:
		return DefaultResultLimit, true
	case limit > MaxResultLimit:
		return MaxResultLimit, true
	default:
		return limit, true
	}
}

// requireExactable guards exact=true queries: they need the original
// geometries, which snapshot-loaded indices and live snapshots (whose
// objects can be inserted after the build) do not carry.
func (s *Server) requireExactable(w http.ResponseWriter) bool {
	if s.mut != nil || !s.eng.pin().HasExactGeometries() {
		writeError(w, http.StatusBadRequest,
			"exact queries unavailable: snapshot-loaded and live indices do not carry exact geometries")
		return false
	}
	return true
}

// ---- handlers -------------------------------------------------------------

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req knnRequest
	if !decodeJSON(w, r.Body, &req) {
		return
	}
	if msg := req.Center.validate(); msg != "" {
		writeError(w, http.StatusBadRequest, msg)
		return
	}
	if req.K < 1 || req.K > MaxK {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("k must be in [1, %d]", MaxK))
		return
	}
	if req.Exact && !s.requireExactable(w) {
		return
	}

	// kNN work scales with k and density, not a window estimate; admit
	// with no cost hint (priced at the class EWMA).
	release, queueWait, admitted := s.admit(r.Context(), w, classRead, nil)
	if !admitted {
		return
	}
	defer release()
	view, end := s.beginQuery(w, r, "knn", req.Trace)
	if r.Context().Err() != nil {
		writeTimeout(w)
		return
	}
	q := twolayer.Point{X: req.Center.X, Y: req.Center.Y}
	start := time.Now()
	var neighbors []twolayer.Neighbor
	if req.Exact {
		neighbors = view.KNNExact(q, req.K)
	} else {
		neighbors = view.KNN(q, req.K)
	}
	resp := knnResponse{
		Neighbors: make([]neighborJSON, len(neighbors)),
		ElapsedUS: time.Since(start).Microseconds(),
	}
	for i, n := range neighbors {
		resp.Neighbors[i] = neighborJSON{ID: n.ID, Distance: n.Dist}
	}
	resp.Trace = end.finish()
	if resp.Trace != nil {
		resp.Trace.QueueWaitUS = queueWait.Microseconds()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeRequest(w, r, &req, scanBatch) {
		return
	}
	var strategy twolayer.BatchStrategy
	switch req.Mode {
	case "", "queries":
		req.Mode, strategy = "queries", twolayer.QueriesBased
	case "tiles":
		strategy = twolayer.TilesBased
	default:
		writeError(w, http.StatusBadRequest, `mode must be "tiles" or "queries"`)
		return
	}
	if req.Threads < 0 {
		writeError(w, http.StatusBadRequest, "threads must be >= 0")
		return
	}
	threads := req.Threads
	if n := twolayer.DefaultThreads(); threads == 0 || threads > n {
		threads = n
	}
	if (len(req.Windows) > 0) == (len(req.Disks) > 0) {
		writeError(w, http.StatusBadRequest,
			`exactly one of "windows" or "disks" must be non-empty`)
		return
	}
	n := len(req.Windows) + len(req.Disks)
	if n > MaxBatchQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds the maximum of %d", n, MaxBatchQueries))
		return
	}

	// Validate and convert every element before admission, so a malformed
	// batch is rejected without taking a slot (its ~0 service time would
	// otherwise drag the gate's deadline-shedding predictor low).
	rects := make([]twolayer.Rect, len(req.Windows))
	for i, rj := range req.Windows {
		if msg := rj.validate(); msg != "" {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("windows[%d]: %s", i, msg))
			return
		}
		rects[i] = rj.toRect()
	}
	disks := make([]twolayer.Disk, len(req.Disks))
	for i, dj := range req.Disks {
		if msg := dj.Center.validate(); msg != "" {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("disks[%d]: %s", i, msg))
			return
		}
		if math.IsNaN(dj.Radius) || math.IsInf(dj.Radius, 0) || dj.Radius < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("disks[%d]: radius must be finite and >= 0", i))
			return
		}
		disks[i] = twolayer.Disk{
			Center: twolayer.Point{X: dj.Center.X, Y: dj.Center.Y},
			Radius: dj.Radius,
		}
	}

	// A batch's cost scales with its query count, so the count is the
	// cost hint within the batch class.
	release, _, admitted := s.admit(r.Context(), w, classBatch, func() float64 {
		return float64(n)
	})
	if !admitted {
		return
	}
	defer release()

	// A batch evaluates on a view like any single query; its workers'
	// tallies merge into the view's counters once at the end.
	view, end := s.beginQuery(w, r, "batch", false)
	if r.Context().Err() != nil {
		writeTimeout(w)
		return
	}
	resp := batchResponse{Mode: req.Mode, Threads: threads}
	start := time.Now()
	if len(rects) > 0 {
		resp.Counts = view.BatchWindowCounts(rects, strategy, threads)
	} else {
		resp.Counts = view.BatchDiskCounts(disks, strategy, threads)
	}
	for _, c := range resp.Counts {
		resp.Total += c
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	end.finish()
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendBatch((*buf)[:0], &resp)
	writeBody(w, http.StatusOK, *buf)
}

// ---- stats & health -------------------------------------------------------

type indexInfoJSON struct {
	Objects           int     `json:"objects"`
	GridNX            int     `json:"grid_nx"`
	GridNY            int     `json:"grid_ny"`
	ReplicationFactor float64 `json:"replication_factor"`
	MemoryBytes       int     `json:"memory_bytes"`
	ExactGeometries   bool    `json:"exact_geometries"`
}

type countersJSON struct {
	TilesVisited         int64           `json:"tiles_visited"`
	PartitionsScanned    int64           `json:"partitions_scanned"`
	EntriesScanned       int64           `json:"entries_scanned"`
	ClassEntriesScanned  classCountsJSON `json:"class_entries_scanned"`
	Comparisons          int64           `json:"comparisons"`
	Results              int64           `json:"results"`
	DuplicatesAvoided    int64           `json:"duplicates_avoided"`
	SecondaryFilterTests int64           `json:"secondary_filter_tests"`
	SecondaryFilterHits  int64           `json:"secondary_filter_hits"`
	RefinementTests      int64           `json:"refinement_tests"`
	DistanceComputations int64           `json:"distance_computations"`
}

// partitionsJSON reports the shape of the served index's partitioning
// (Index.PartitionStats), recomputed per /v1/stats request.
type partitionsJSON struct {
	GridTiles         int             `json:"grid_tiles"`
	OccupiedTiles     int             `json:"occupied_tiles"`
	Objects           int             `json:"objects"`
	Replicas          int             `json:"replicas"`
	ClassEntries      classCountsJSON `json:"class_entries"`
	MaxTileEntries    int             `json:"max_tile_entries"`
	MeanTileEntries   float64         `json:"mean_tile_entries"`
	SkewRatio         float64         `json:"skew_ratio"`
	ReplicationFactor float64         `json:"replication_factor"`
	BoundaryRatio     float64         `json:"boundary_ratio"`
}

// liveStatsJSON reports the apply loop of a live-mode server: the
// published epoch, the mutation backlog, and publish totals/latency.
// Naming follows the /v1/stats conventions (docs/OBSERVABILITY.md):
// snake_case, cumulative counters end in _total, durations are float
// seconds with a _seconds suffix.
type liveStatsJSON struct {
	Epoch               uint64  `json:"epoch"`
	PendingMutations    int64   `json:"pending_mutations"`
	AppliedMutations    uint64  `json:"applied_mutations_total"`
	Publishes           uint64  `json:"publishes_total"`
	LastBatchMutations  int64   `json:"last_batch_mutations"`
	LastPublishSeconds  float64 `json:"last_publish_seconds"`
	PublishSecondsTotal float64 `json:"publish_seconds_total"`
}

// durabilityJSON reports the durability engine of a durable-mode
// server: log shape, fsync and checkpoint counters with cumulative
// latencies, and what startup recovery replayed. Same naming
// conventions as liveStatsJSON.
type durabilityJSON struct {
	FsyncPolicy            string  `json:"fsync_policy"`
	Segments               int     `json:"segments"`
	LogBytes               int64   `json:"log_bytes"`
	AppendedRecords        uint64  `json:"appended_records_total"`
	AppendedBytes          uint64  `json:"appended_bytes_total"`
	Fsyncs                 uint64  `json:"fsyncs_total"`
	Rotations              uint64  `json:"rotations_total"`
	PrunedSegments         uint64  `json:"pruned_segments_total"`
	AppendSecondsTotal     float64 `json:"append_seconds_total"`
	FsyncSecondsTotal      float64 `json:"fsync_seconds_total"`
	Checkpoints            uint64  `json:"checkpoints_total"`
	CheckpointEpoch        uint64  `json:"checkpoint_epoch"`
	CheckpointAgeSeconds   float64 `json:"checkpoint_age_seconds"`
	CheckpointSecondsTotal float64 `json:"checkpoint_seconds_total"`
	SinceCheckpoint        int64   `json:"mutations_since_checkpoint"`
	ReplayedRecords        int     `json:"replayed_records"`
	ReplayedMutations      int     `json:"replayed_mutations"`
	RecoveryTruncatedLog   bool    `json:"recovery_truncated_log"`
	// LogFailed is non-empty once the log hit an unrecoverable write or
	// fsync error; all mutations are being rejected until the node is
	// restarted on a healthy disk.
	LogFailed string `json:"log_failed,omitempty"`
}

// shardStatJSON is one shard's slice of the "shards" stats section.
type shardStatJSON struct {
	Shard       int     `json:"shard"`
	Objects     int     `json:"objects"`
	Epoch       uint64  `json:"epoch"`
	Queries     uint64  `json:"queries_total"`
	BusySeconds float64 `json:"busy_seconds_total"`
	Results     uint64  `json:"results_total"`
}

// shardsJSON reports the scatter-gather engine of a sharded server:
// fast-path vs fan-out query totals and per-shard load.
type shardsJSON struct {
	Count              int             `json:"count"`
	SingleShardQueries uint64          `json:"single_shard_queries_total"`
	FanoutQueries      uint64          `json:"fanout_queries_total"`
	PerShard           []shardStatJSON `json:"per_shard"`
}

// admissionClassJSON is one endpoint class's slice of the "admission"
// stats section: its configured limits, current occupancy, and outcome
// totals (same naming conventions as liveStatsJSON).
type admissionClassJSON struct {
	MaxInflight   int    `json:"max_inflight"`
	QueueDepth    int    `json:"queue_depth"`
	Inflight      int64  `json:"inflight"`
	Queued        int64  `json:"queued"`
	Admitted      uint64 `json:"admitted_total"`
	ShedQueueFull uint64 `json:"shed_queue_full_total"`
	ShedDeadline  uint64 `json:"shed_deadline_total"`
	ShedExpired   uint64 `json:"shed_expired_total"`
}

// admissionBacklogJSON reports the mutation-backpressure half of the
// overload valve (live modes only): the apply backlog against its bound
// and how many submissions the bound rejected.
type admissionBacklogJSON struct {
	PendingMutations int64  `json:"pending_mutations"`
	Limit            int    `json:"limit"`
	Rejected         uint64 `json:"rejected_total"`
}

// admissionJSON is the "admission" stats section, present when
// admission control is enabled (Config.MaxInflight >= 0).
type admissionJSON struct {
	Classes map[string]admissionClassJSON `json:"classes"`
	Backlog *admissionBacklogJSON         `json:"backlog,omitempty"`
}

type statsResponse struct {
	Index           indexInfoJSON   `json:"index"`
	Partitions      partitionsJSON  `json:"partitions"`
	Shards          *shardsJSON     `json:"shards,omitempty"`
	Live            *liveStatsJSON  `json:"live,omitempty"`
	Durability      *durabilityJSON `json:"durability,omitempty"`
	Admission       *admissionJSON  `json:"admission,omitempty"`
	StatsEnabled    bool            `json:"stats_enabled"`
	TracingEnabled  bool            `json:"tracing_enabled"`
	QueriesObserved int64           `json:"queries_observed"`
	Counters        countersJSON    `json:"counters"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	idx := s.eng.pin()
	nx, ny := idx.GridDims()
	var shards *shardsJSON
	if s.shardStats != nil {
		st := s.shardStats()
		shards = &shardsJSON{
			Count:              len(st.PerShard),
			SingleShardQueries: st.SingleShard,
			FanoutQueries:      st.Fanout,
			PerShard:           make([]shardStatJSON, len(st.PerShard)),
		}
		for i, ps := range st.PerShard {
			shards.PerShard[i] = shardStatJSON{
				Shard:       i,
				Objects:     ps.Objects,
				Epoch:       ps.Epoch,
				Queries:     ps.Queries,
				BusySeconds: float64(ps.BusyNS) / 1e9,
				Results:     ps.Results,
			}
		}
	}
	var live *liveStatsJSON
	if s.mut != nil {
		ls := s.mut.Stats()
		live = &liveStatsJSON{
			Epoch:               ls.Epoch,
			PendingMutations:    ls.Pending,
			AppliedMutations:    ls.Applied,
			Publishes:           ls.Publishes,
			LastBatchMutations:  ls.LastBatch,
			LastPublishSeconds:  ls.LastPublish.Seconds(),
			PublishSecondsTotal: ls.PublishTotal.Seconds(),
		}
	}
	var durability *durabilityJSON
	if s.ckpt != nil {
		ds := s.ckpt.Stats()
		durability = &durabilityJSON{
			FsyncPolicy:            ds.Policy.String(),
			Segments:               ds.Segments,
			LogBytes:               ds.LogBytes,
			AppendedRecords:        ds.AppendedRecords,
			AppendedBytes:          ds.AppendedBytes,
			Fsyncs:                 ds.Fsyncs,
			Rotations:              ds.Rotations,
			PrunedSegments:         ds.PrunedSegments,
			AppendSecondsTotal:     ds.AppendTotal.Seconds(),
			FsyncSecondsTotal:      ds.FsyncTotal.Seconds(),
			Checkpoints:            ds.Checkpoints,
			CheckpointEpoch:        ds.CheckpointEpoch,
			CheckpointAgeSeconds:   ds.CheckpointAge.Seconds(),
			CheckpointSecondsTotal: ds.CheckpointTotal.Seconds(),
			SinceCheckpoint:        ds.SinceCheckpoint,
			ReplayedRecords:        ds.Recovery.ReplayedRecords,
			ReplayedMutations:      ds.Recovery.ReplayedMutations,
			RecoveryTruncatedLog:   ds.Recovery.TruncatedTail,
			LogFailed:              ds.Failed,
		}
	}
	var admissionSec *admissionJSON
	if s.adm != nil {
		admissionSec = &admissionJSON{
			Classes: make(map[string]admissionClassJSON, numClasses),
		}
		for c := admissionClass(0); c < numClasses; c++ {
			g := s.adm.gates[c]
			admissionSec.Classes[g.name] = admissionClassJSON{
				MaxInflight:   g.maxInflight,
				QueueDepth:    g.queueDepth,
				Inflight:      g.inflight.Load(),
				Queued:        g.queued.Load(),
				Admitted:      g.admitted.Load(),
				ShedQueueFull: g.shed[shedQueueFull-1].Load(),
				ShedDeadline:  g.shed[shedDeadline-1].Load(),
				ShedExpired:   g.shed[shedExpired-1].Load(),
			}
		}
		if s.mut != nil {
			ls := s.mut.Stats()
			admissionSec.Backlog = &admissionBacklogJSON{
				PendingMutations: ls.Pending,
				Limit:            ls.BacklogLimit,
				Rejected:         ls.Rejected,
			}
		}
	}
	ps := idx.PartitionStats()
	var classEntries classCountsJSON
	classEntries.A = int64(ps.ClassCounts[0])
	classEntries.B = int64(ps.ClassCounts[1])
	classEntries.C = int64(ps.ClassCounts[2])
	classEntries.D = int64(ps.ClassCounts[3])
	snap := s.agg.Snapshot()
	writeJSON(w, http.StatusOK, statsResponse{
		Index: indexInfoJSON{
			Objects:           idx.Len(),
			GridNX:            nx,
			GridNY:            ny,
			ReplicationFactor: idx.ReplicationFactor(),
			MemoryBytes:       idx.MemoryFootprint(),
			ExactGeometries:   idx.HasExactGeometries(),
		},
		Partitions: partitionsJSON{
			GridTiles:         ps.GridTiles,
			OccupiedTiles:     ps.OccupiedTiles,
			Objects:           ps.Objects,
			Replicas:          ps.Replicas,
			ClassEntries:      classEntries,
			MaxTileEntries:    ps.MaxTileEntries,
			MeanTileEntries:   ps.MeanTileEntries,
			SkewRatio:         ps.SkewRatio,
			ReplicationFactor: ps.ReplicationFactor,
			BoundaryRatio:     ps.BoundaryRatio,
		},
		Shards:          shards,
		Live:            live,
		Durability:      durability,
		Admission:       admissionSec,
		StatsEnabled:    s.cfg.CollectStats,
		TracingEnabled:  s.cfg.EnableTracing,
		QueriesObserved: s.agg.Queries(),
		Counters: countersJSON{
			TilesVisited:         snap.TilesVisited,
			PartitionsScanned:    snap.PartitionsScanned,
			EntriesScanned:       snap.EntriesScanned,
			ClassEntriesScanned:  classCounts64(snap.ClassScanned),
			Comparisons:          snap.Comparisons,
			Results:              snap.Results,
			DuplicatesAvoided:    snap.DuplicatesAvoided,
			SecondaryFilterTests: snap.SecondaryFilterTests,
			SecondaryFilterHits:  snap.SecondaryFilterHits,
			RefinementTests:      snap.RefinementTests,
			DistanceComputations: snap.DistanceComputations,
		},
	})
}

// handleCheckpoint (POST /v1/checkpoint, durable mode) forces a checkpoint
// of the current snapshot and prunes the log segments it covers.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	release, _, admitted := s.admit(r.Context(), w, classMutate, nil)
	if !admitted {
		return
	}
	defer release()
	start := time.Now()
	epoch, err := s.ckpt.Checkpoint()
	if err != nil {
		s.cfg.Logger.Error("checkpoint failed", "err", err)
		writeError(w, http.StatusInternalServerError, "checkpoint failed: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      epoch,
		"elapsed_us": time.Since(start).Microseconds(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":  "ok",
		"objects": s.eng.pin().Len(),
	}
	if s.mut != nil {
		body["epoch"] = s.mut.Stats().Epoch
	}
	writeJSON(w, http.StatusOK, body)
}
