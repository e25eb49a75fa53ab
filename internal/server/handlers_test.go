package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// testIndex builds a small geometry-backed index: a 10x10 grid of tiny
// squares with corners at (i/10, j/10), so result counts are easy to
// predict. Object IDs are j*10+i.
func testIndex(t *testing.T) *twolayer.Index {
	t.Helper()
	var geoms []twolayer.Geometry
	for j := 0; j < 10; j++ {
		for i := 0; i < 10; i++ {
			x, y := float64(i)/10, float64(j)/10
			geoms = append(geoms, twolayer.NewPolygon(
				twolayer.Point{X: x, Y: y},
				twolayer.Point{X: x + 0.05, Y: y},
				twolayer.Point{X: x + 0.05, Y: y + 0.05},
				twolayer.Point{X: x, Y: y + 0.05},
			))
		}
	}
	return twolayer.BuildGeoms(geoms, twolayer.Options{GridSize: 16, Decompose: true})
}

func testServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Index:  testIndex(t),
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

// do posts body to path and decodes the JSON response into out.
func do(t *testing.T, h http.Handler, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad response JSON: %v\n%s", method, path, err, w.Body.String())
		}
	}
	return w
}

// statsDoc is a GET /v1/stats document: the metrics registry rendered
// as JSON, family twolayer_<section>_<field> at <section>.<field> and
// one level more per label value.
type statsDoc map[string]any

// getStats fetches /v1/stats.
func getStats(t *testing.T, h http.Handler) statsDoc {
	t.Helper()
	var st statsDoc
	if w := do(t, h, "GET", "/v1/stats", "", &st); w.Code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", w.Code)
	}
	return st
}

// lookup returns the value at a dotted path ("index.objects") and
// whether the document has it.
func (st statsDoc) lookup(path string) (any, bool) {
	var v any = map[string]any(st)
	for _, k := range strings.Split(path, ".") {
		obj, ok := v.(map[string]any)
		if !ok {
			return nil, false
		}
		if v, ok = obj[k]; !ok {
			return nil, false
		}
	}
	return v, true
}

// has reports whether the document has a value at path.
func (st statsDoc) has(path string) bool {
	_, ok := st.lookup(path)
	return ok
}

// num returns the number at path, failing the test if there is none.
func (st statsDoc) num(t *testing.T, path string) float64 {
	t.Helper()
	v, _ := st.lookup(path)
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("/v1/stats %s = %v, want a number", path, v)
	}
	return f
}

// scrapeMetrics fetches /metrics and parses the Prometheus text format
// into a map keyed by the full series identity (`name{labels}`), e.g.
// `twolayer_http_requests_total{endpoint="v1/window"}`.
func scrapeMetrics(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q, want text/plain exposition", ct)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in metrics line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

func TestWindowHappyPath(t *testing.T) {
	s := testServer(t, nil)
	var resp rangeResponse
	// Covers the 4 squares with corners in [0, 0.15]^2.
	w := do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":0.15,"max_y":0.15}}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.Count != 4 || len(resp.Results) != 4 {
		t.Errorf("count=%d len(results)=%d, want 4", resp.Count, len(resp.Results))
	}
	if resp.Truncated {
		t.Error("unexpected truncation")
	}
	for _, res := range resp.Results {
		if res.MBR == nil {
			t.Error("filtering result missing mbr")
		}
	}
}

func TestWindowExactAndCountOnly(t *testing.T) {
	s := testServer(t, nil)
	var resp rangeResponse
	do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":0.15,"max_y":0.15},"exact":true}`, &resp)
	if resp.Count != 4 {
		t.Errorf("exact count=%d, want 4", resp.Count)
	}
	for _, res := range resp.Results {
		if res.MBR != nil {
			t.Error("exact result should omit mbr")
		}
	}

	resp = rangeResponse{}
	do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`, &resp)
	if resp.Count != 100 {
		t.Errorf("count_only count=%d, want 100", resp.Count)
	}
	if resp.Results != nil {
		t.Error("count_only returned results")
	}
}

func TestWindowLimitTruncates(t *testing.T) {
	s := testServer(t, nil)
	var resp rangeResponse
	do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"limit":7}`, &resp)
	if len(resp.Results) != 7 || !resp.Truncated {
		t.Errorf("limit=7: got %d results truncated=%v", len(resp.Results), resp.Truncated)
	}
}

func TestWindowBadRequests(t *testing.T) {
	s := testServer(t, nil)
	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{"window":`},
		{"trailing garbage", `{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}} extra`},
		{"unknown field", `{"rectangle":{"min_x":0}}`},
		{"inverted rect", `{"window":{"min_x":1,"min_y":0,"max_x":0,"max_y":1}}`},
		{"NaN rect", `{"window":{"min_x":null,"min_y":0,"max_x":"NaN","max_y":1}}`},
		{"negative limit", `{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"limit":-1}`},
	}
	for _, c := range cases {
		w := do(t, s.Handler(), "POST", "/v1/window", c.body, nil)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, w.Code, w.Body.String())
		}
		var e errorJSON
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not structured", c.name, w.Body.String())
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := testServer(t, nil)
	if w := do(t, s.Handler(), "GET", "/v1/window", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/window: status %d, want 405", w.Code)
	}
	if w := do(t, s.Handler(), "POST", "/metrics", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", w.Code)
	}
}

func TestWindowTimeout(t *testing.T) {
	// A deadline that has certainly expired by the first poll: every
	// streaming query must answer 503, deterministically.
	s := testServer(t, func(c *Config) { c.RequestTimeout = time.Nanosecond })
	w := do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", w.Code, w.Body.String())
	}
	var e errorJSON
	json.Unmarshal(w.Body.Bytes(), &e)
	if e.Error != "deadline exceeded" {
		t.Errorf("error %q, want %q", e.Error, "deadline exceeded")
	}
	// The timeout must be visible in metrics.
	m := scrapeMetrics(t, s.Handler())
	if got := m[`twolayer_http_request_timeouts_total{endpoint="v1/window"}`]; got != 1 {
		t.Errorf("metrics timeouts = %v, want 1", got)
	}
}

func TestDiskQueries(t *testing.T) {
	s := testServer(t, nil)
	var resp rangeResponse
	do(t, s.Handler(), "POST", "/v1/disk",
		`{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.06}}`, &resp)
	if resp.Count == 0 {
		t.Error("disk query found nothing around (0.5,0.5)")
	}
	exact := rangeResponse{}
	do(t, s.Handler(), "POST", "/v1/disk",
		`{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.06},"exact":true}`, &exact)
	if exact.Count == 0 || exact.Count > resp.Count {
		t.Errorf("exact disk count %d vs filter count %d", exact.Count, resp.Count)
	}

	if w := do(t, s.Handler(), "POST", "/v1/disk",
		`{"disk":{"center":{"x":0.5,"y":0.5},"radius":-1}}`, nil); w.Code != http.StatusBadRequest {
		t.Errorf("negative radius: status %d, want 400", w.Code)
	}
}

func TestKNNQueries(t *testing.T) {
	s := testServer(t, nil)
	var resp knnResponse
	do(t, s.Handler(), "POST", "/v1/knn",
		`{"center":{"x":0.52,"y":0.52},"k":5}`, &resp)
	if len(resp.Neighbors) != 5 {
		t.Fatalf("got %d neighbors, want 5", len(resp.Neighbors))
	}
	for i := 1; i < len(resp.Neighbors); i++ {
		if resp.Neighbors[i].Distance < resp.Neighbors[i-1].Distance {
			t.Error("neighbors not sorted by distance")
		}
	}
	if w := do(t, s.Handler(), "POST", "/v1/knn",
		`{"center":{"x":0.5,"y":0.5},"k":0}`, nil); w.Code != http.StatusBadRequest {
		t.Errorf("k=0: status %d, want 400", w.Code)
	}
}

func TestBatchQueries(t *testing.T) {
	s := testServer(t, nil)
	var resp batchResponse
	do(t, s.Handler(), "POST", "/v1/batch",
		`{"mode":"tiles","windows":[
			{"min_x":0,"min_y":0,"max_x":0.15,"max_y":0.15},
			{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`, &resp)
	if len(resp.Counts) != 2 || resp.Counts[0] != 4 || resp.Counts[1] != 100 {
		t.Errorf("counts = %v, want [4 100]", resp.Counts)
	}
	if resp.Total != 104 {
		t.Errorf("total = %d, want 104", resp.Total)
	}
	if resp.Mode != "tiles" {
		t.Errorf(`mode echoed as %q, want "tiles"`, resp.Mode)
	}

	// An absent mode selects queries-based evaluation (the measured
	// winner, EXPERIMENTS.md Figure 11) and the response says so.
	var def batchResponse
	do(t, s.Handler(), "POST", "/v1/batch",
		`{"windows":[{"min_x":0,"min_y":0,"max_x":0.15,"max_y":0.15}]}`, &def)
	if def.Mode != "queries" || len(def.Counts) != 1 || def.Counts[0] != 4 {
		t.Errorf(`default batch = mode %q counts %v, want "queries" [4]`, def.Mode, def.Counts)
	}

	disk := batchResponse{}
	do(t, s.Handler(), "POST", "/v1/batch",
		`{"mode":"queries","threads":1,"disks":[{"center":{"x":0.5,"y":0.5},"radius":0.06}]}`, &disk)
	if len(disk.Counts) != 1 || disk.Counts[0] == 0 {
		t.Errorf("disk batch counts = %v", disk.Counts)
	}

	bad := []string{
		`{"windows":[],"disks":[]}`,
		`{"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}],"disks":[{"center":{"x":0,"y":0},"radius":1}]}`,
		`{"mode":"zigzag","windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`,
		`{"windows":[{"min_x":1,"min_y":0,"max_x":0,"max_y":1}]}`,
	}
	for _, b := range bad {
		if w := do(t, s.Handler(), "POST", "/v1/batch", b, nil); w.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", b, w.Code)
		}
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MaxBodyBytes = 64 })
	// Valid JSON whose object spans more than the body limit, so the
	// decoder must hit the MaxBytesReader cutoff to finish it.
	body := fmt.Sprintf(`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}%s}`,
		strings.Repeat(" ", 200))
	if w := do(t, s.Handler(), "POST", "/v1/window", body, nil); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d, want 413", w.Code)
	}
}

func TestStatsAggregation(t *testing.T) {
	s := testServer(t, nil)
	for i := 0; i < 3; i++ {
		do(t, s.Handler(), "POST", "/v1/window",
			`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, nil)
	}
	st := getStats(t, s.Handler())
	if got := st.num(t, "queries.observed_total"); got != 3 {
		t.Errorf("queries.observed_total = %g, want 3", got)
	}
	if got := st.num(t, "query.results_total"); got != 300 {
		t.Errorf("query.results_total = %g, want 300", got)
	}
	if st.num(t, "query.tiles_visited_total") == 0 {
		t.Error("query.tiles_visited_total = 0 after three queries")
	}
	if st.num(t, "index.objects") != 100 || st.num(t, "index.grid_nx") != 16 || st.num(t, "index.exact_geometries") != 1 {
		t.Errorf("index section = %v", st["index"])
	}
}

// TestShardedStatsCounted checks that a sharded server reports the core
// counters of the queries it serves: after windows, a count_only window
// and a batch, /v1/stats counts queries and results on a static and a
// live 2-shard server, and /metrics reads the same total.
func TestShardedStatsCounted(t *testing.T) {
	space := twolayer.Rect{MaxX: 1, MaxY: 1}
	opts := twolayer.Options{GridSize: 16, Space: space}
	var rects []twolayer.Rect
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			x, y := float64(i)/10, float64(j)/10
			rects = append(rects, twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.05, MaxY: y + 0.05})
		}
	}
	sl := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(nil, opts, twolayer.ShardedOptions{Shards: 2}), twolayer.LiveOptions{})
	defer sl.Close()
	muts := make([]twolayer.Mutation, len(rects))
	for i, r := range rects {
		muts[i] = twolayer.Mutation{ID: twolayer.ID(i), MBR: r}
	}
	if _, err := sl.Apply(muts); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"static": {Sharded: twolayer.BuildShardedRects(rects, opts, twolayer.ShardedOptions{Shards: 2})},
		"live":   {ShardedLive: sl},
	} {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		h := New(cfg).Handler()
		for _, body := range []string{
			`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`,
			`{"window":{"min_x":0.1,"min_y":0.1,"max_x":0.3,"max_y":0.3}}`,
			`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`,
		} {
			if w := do(t, h, "POST", "/v1/window", body, nil); w.Code != http.StatusOK {
				t.Fatalf("%s: window status %d", name, w.Code)
			}
		}
		if w := do(t, h, "POST", "/v1/batch",
			`{"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`, nil); w.Code != http.StatusOK {
			t.Fatalf("%s: batch status %d", name, w.Code)
		}
		st := getStats(t, h)
		observed, results := st.num(t, "queries.observed_total"), st.num(t, "query.results_total")
		if observed <= 0 || results <= 0 {
			t.Errorf("%s: queries.observed_total = %g, query.results_total = %g, want both > 0",
				name, observed, results)
		}
		m := scrapeMetrics(t, h)
		if got := m["twolayer_query_results_total"]; got != results {
			t.Errorf("%s: twolayer_query_results_total = %g, query.results_total = %g",
				name, got, results)
		}
		if got := m["twolayer_queries_observed_total"]; got != observed {
			t.Errorf("%s: twolayer_queries_observed_total = %g, queries.observed_total = %g",
				name, got, observed)
		}
	}
}

func TestExactRejectedOnSnapshotIndex(t *testing.T) {
	// Round-trip the index through Save/Load: geometries are gone, so
	// exact queries must be rejected with a clear 400.
	idx := testIndex(t)
	var snap bytes.Buffer
	if _, err := idx.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := twolayer.Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, func(c *Config) { c.Index = loaded })
	w := do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"exact":true}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("exact on snapshot index: status %d, want 400", w.Code)
	}
	if !strings.Contains(w.Body.String(), "snapshot") {
		t.Errorf("error %q does not mention snapshots", w.Body.String())
	}
	// Filtering queries still work on the loaded index.
	var resp rangeResponse
	do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`, &resp)
	if resp.Count != 100 {
		t.Errorf("loaded index count = %d, want 100", resp.Count)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := testServer(t, nil)
	var h map[string]any
	if w := do(t, s.Handler(), "GET", "/healthz", "", &h); w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	if h["status"] != "ok" {
		t.Errorf("healthz = %v", h)
	}

	do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, nil)
	do(t, s.Handler(), "POST", "/v1/window", `not json`, nil)
	m := scrapeMetrics(t, s.Handler())
	if req, errs := m[`twolayer_http_requests_total{endpoint="v1/window"}`],
		m[`twolayer_http_request_errors_total{endpoint="v1/window"}`]; req != 2 || errs != 1 {
		t.Errorf("v1/window metrics = %v requests / %v errors, want 2 / 1", req, errs)
	}
	// The histogram's +Inf bucket and count must both cover every request.
	if inf := m[`twolayer_http_request_duration_seconds_bucket{endpoint="v1/window",le="+Inf"}`]; inf != 2 {
		t.Errorf("+Inf bucket = %v, want 2", inf)
	}
	if cnt := m[`twolayer_http_request_duration_seconds_count{endpoint="v1/window"}`]; cnt != 2 {
		t.Errorf("histogram count = %v, want 2", cnt)
	}
	// Engine gauges are present alongside the http group.
	if m[`twolayer_index_objects`] != 100 {
		t.Errorf("twolayer_index_objects = %v, want 100", m[`twolayer_index_objects`])
	}
	if m[`twolayer_partition_occupied_tiles`] == 0 {
		t.Error("twolayer_partition_occupied_tiles missing or zero")
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	off := testServer(t, nil)
	if w := do(t, off.Handler(), "GET", "/debug/pprof/", "", nil); w.Code != http.StatusNotFound {
		t.Errorf("pprof disabled: status %d, want 404", w.Code)
	}
	on := testServer(t, func(c *Config) { c.EnablePprof = true })
	if w := do(t, on.Handler(), "GET", "/debug/pprof/", "", nil); w.Code != http.StatusOK {
		t.Errorf("pprof enabled: status %d, want 200", w.Code)
	}
}
