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

// shardSpanJSON is one shard's slice of a query in a trace: which shard
// scanned, its wall time and refinement time, its headline core
// counters, and the results it contributed after cross-shard
// deduplication.
type shardSpanJSON struct {
	Shard          int   `json:"shard"`
	ElapsedUS      int64 `json:"elapsed_us"`
	RefineUS       int64 `json:"refine_us"`
	TilesVisited   int64 `json:"tiles_visited"`
	EntriesScanned int64 `json:"entries_scanned"`
	Comparisons    int64 `json:"comparisons"`
	Results        int   `json:"results"`
}

// traceJSON is the per-query trace attached to responses (the "trace"
// field) when tracing was requested: wall-clock stage timings plus the
// full core counter set of this one evaluation, summed over the shards
// it ran on, and one span per such shard. The schema is documented in
// docs/OBSERVABILITY.md.
type traceJSON struct {
	Kind      string `json:"kind"`
	ElapsedUS int64  `json:"elapsed_us"`
	// QueueWaitUS is the time this request spent queued for admission
	// before evaluation started (0 on the uncontended fast path).
	QueueWaitUS int64 `json:"queue_wait_us,omitempty"`
	FilterUS    int64 `json:"filter_us"`
	RefineUS    int64 `json:"refine_us"`
	countersJSON
	Shards []shardSpanJSON `json:"shards"`
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

// beginQuery pins the current snapshot and opens the searcher one
// request (a single query or a batch) evaluates on: the snapshot itself,
// or a traced view of it when the request is traced (Config.
// EnableTracing, the request's "trace" field, or an X-Trace header) or
// the slow-query log needs its timings. A traced view runs the kernels
// the snapshot runs, so observing a query never changes what it costs.
// It returns the searcher and the queryEnd whose finish to call exactly
// once after a successful evaluation.
func (s *Server) beginQuery(w http.ResponseWriter, r *http.Request, kind string, reqTrace bool) (searcher, queryEnd) {
	want := s.cfg.EnableTracing || reqTrace || headerTrace(r)
	snap := s.pin()
	if !want && s.cfg.SlowQueryThreshold <= 0 {
		return snap, queryEnd{}
	}
	view := snap.Traced()
	return view, queryEnd{s: s, w: w, kind: kind, want: want, view: view, start: time.Now()}
}

// queryEnd is the end of one evaluation beginQuery opened, a value so
// that ending an untraced query allocates nothing of its own.
type queryEnd struct {
	s     *Server
	w     http.ResponseWriter
	kind  string
	want  bool                  // the client or config asked for a trace
	view  *twolayer.ShardedView // nil when untraced
	start time.Time
}

// finish ends a traced evaluation: it logs the query if it crossed
// SlowQueryThreshold, and — when the client or config asked for a trace
// — sets a compact X-Trace response header and returns the trace to
// embed in the response (nil otherwise).
func (q queryEnd) finish() *traceJSON {
	if q.view == nil {
		return nil
	}
	tr := newRequestTrace(q.kind, time.Since(q.start), q.view.Spans)
	if thr := q.s.cfg.SlowQueryThreshold; thr > 0 && tr.Elapsed() >= thr {
		q.s.metrics.slow.Inc()
		q.s.cfg.Logger.Warn("slow query",
			append([]any{"kind", q.kind, "threshold", thr}, tr.slowAttrs()...)...)
	}
	if !q.want {
		return nil
	}
	q.s.metrics.traced.Inc()
	q.w.Header().Set("X-Trace", tr.header())
	return tr.body()
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
	if !s.pin().HasExactGeometries() {
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

	release, queueWait, admitted := s.admit(r.Context(), w, classRead)
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
	timers := s.metrics.codec["v1/batch"]
	if !decodeRequest(w, r, &req, scanBatch, timers.decode) {
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
	// batch is rejected without taking a slot.
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

	release, _, admitted := s.admit(r.Context(), w, classBatch)
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
	encodeStart := time.Now()
	*buf = appendBatch((*buf)[:0], &resp)
	observeSince(timers.encode, encodeStart)
	writeBody(w, http.StatusOK, *buf)
}

// ---- stats & health -------------------------------------------------------

// countersJSON is the core counter set of one evaluation in a trace.
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

func newCountersJSON(st *twolayer.Stats) countersJSON {
	return countersJSON{
		TilesVisited:         st.TilesVisited,
		PartitionsScanned:    st.PartitionsScanned,
		EntriesScanned:       st.EntriesScanned,
		ClassEntriesScanned:  classCountsJSON{st.ClassScanned[0], st.ClassScanned[1], st.ClassScanned[2], st.ClassScanned[3]},
		Comparisons:          st.Comparisons,
		Results:              st.Results,
		DuplicatesAvoided:    st.DuplicatesAvoided,
		SecondaryFilterTests: st.SecondaryFilterTests,
		SecondaryFilterHits:  st.SecondaryFilterHits,
		RefinementTests:      st.RefinementTests,
		DistanceComputations: st.DistanceComputations,
	}
}

// handleStats serves the metrics registry as one JSON document: the
// samples of GET /metrics, family twolayer_<section>_<field> at
// {"<section>":{"<field>":…}} (obsv.Registry.MarshalJSON).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.reg)
}

// handleCheckpoint (POST /v1/checkpoint, durable mode) forces a checkpoint
// of the current snapshot and prunes the log segments it covers.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	release, _, admitted := s.admit(r.Context(), w, classMutate)
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
		"objects": s.pin().Len(),
	}
	if s.live != nil {
		body["epoch"] = s.live.Stats().Epoch
	}
	writeJSON(w, http.StatusOK, body)
}
