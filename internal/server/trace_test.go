package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// TestTraceInResponse: "trace": true attaches the per-stage trace to the
// JSON response and sets the compact X-Trace summary header.
func TestTraceInResponse(t *testing.T) {
	srv := testServer(t, nil)

	var resp rangeResponse
	w := do(t, srv.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"trace":true}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	tr := resp.Trace
	if tr == nil {
		t.Fatal("response has no trace despite \"trace\": true")
	}
	if tr.Kind != "window" {
		t.Fatalf("trace kind = %q, want window", tr.Kind)
	}
	if tr.Results != int64(resp.Count) {
		t.Fatalf("trace results %d != response count %d", tr.Results, resp.Count)
	}
	if tr.TilesVisited <= 0 || tr.EntriesScanned <= 0 {
		t.Fatalf("trace counted no filtering work: %+v", tr)
	}
	if tr.ElapsedUS < 0 || tr.FilterUS < 0 || tr.RefineUS < 0 {
		t.Fatalf("negative stage timing: %+v", tr)
	}
	if cc := tr.ClassEntriesScanned; cc.A+cc.B+cc.C+cc.D != tr.EntriesScanned {
		t.Fatalf("per-class scan counts %+v do not sum to entries_scanned %d",
			cc, tr.EntriesScanned)
	}
	hdr := w.Header().Get("X-Trace")
	if !strings.Contains(hdr, "kind=window") || !strings.Contains(hdr, "elapsed_us=") {
		t.Fatalf("X-Trace header = %q, want compact summary", hdr)
	}

	// Untraced request: no trace field, no header.
	var plain rangeResponse
	w = do(t, srv.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, &plain)
	if plain.Trace != nil || w.Header().Get("X-Trace") != "" {
		t.Fatal("untraced request carried a trace")
	}
	if strings.Contains(w.Body.String(), `"trace"`) {
		t.Fatal("trace key serialized on untraced response")
	}
}

// TestTracedCountRunsPushdown: tracing a count_only window does not
// change its kernel. With X-Trace: 1, a count_only window on an
// unsharded server still moves the pushdown counter by one, and its
// trace reports the count kernel's own work, whose results are the count.
func TestTracedCountRunsPushdown(t *testing.T) {
	const fastCounts = "twolayer_query_fastpath_counts_total"
	h := testServer(t, nil).Handler()
	before := scrapeMetrics(t, h)
	req := httptest.NewRequest("POST", "/v1/window", strings.NewReader(
		`{"window":{"min_x":0.1,"min_y":0.1,"max_x":0.9,"max_y":0.7},"count_only":true}`))
	req.Header.Set("X-Trace", "1")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp rangeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
		t.Fatalf("status %d, err %v: %s", w.Code, err, w.Body.String())
	}
	if got, want := scrapeMetrics(t, h)[fastCounts], before[fastCounts]+1; got != want {
		t.Errorf("%s = %g after a traced count_only window, want %g", fastCounts, got, want)
	}
	if resp.Trace == nil || resp.Count == 0 || resp.Trace.Results != int64(resp.Count) {
		t.Fatalf("count %d, trace %+v: want the trace's results to be the count", resp.Count, resp.Trace)
	}
}

// TestTraceHeaderRequest: an X-Trace request header is equivalent to
// "trace": true, for all three single-query kinds.
func TestTraceHeaderRequest(t *testing.T) {
	srv := testServer(t, nil)
	cases := []struct {
		path, body, kind string
	}{
		{"/v1/window", `{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, "window"},
		{"/v1/disk", `{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.4}}`, "disk"},
		{"/v1/knn", `{"center":{"x":0.5,"y":0.5},"k":5}`, "knn"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("POST", tc.path, strings.NewReader(tc.body))
		req.Header.Set("X-Trace", "1")
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, w.Code, w.Body.String())
		}
		if hdr := w.Header().Get("X-Trace"); !strings.Contains(hdr, "kind="+tc.kind) {
			t.Fatalf("%s: X-Trace = %q, want kind=%s", tc.path, hdr, tc.kind)
		}
		if !strings.Contains(w.Body.String(), `"trace"`) {
			t.Fatalf("%s: no trace in body", tc.path)
		}
	}

	// X-Trace: 0 and false are explicit opt-outs.
	for _, v := range []string{"0", "false"} {
		req := httptest.NewRequest("POST", "/v1/window",
			strings.NewReader(`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`))
		req.Header.Set("X-Trace", v)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		if w.Header().Get("X-Trace") != "" {
			t.Fatalf("X-Trace: %s still produced a trace", v)
		}
	}

	m := scrapeMetrics(t, srv.Handler())
	if got := m["twolayer_traced_queries_total"]; got != 3 {
		t.Fatalf("twolayer_traced_queries_total = %v, want 3", got)
	}
}

// TestEnableTracingConfig: with EnableTracing every query is traced
// without the client asking, and /stats reports tracing_enabled.
func TestEnableTracingConfig(t *testing.T) {
	srv := testServer(t, func(cfg *Config) { cfg.EnableTracing = true })

	var resp rangeResponse
	do(t, srv.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, &resp)
	if resp.Trace == nil {
		t.Fatal("EnableTracing did not attach a trace")
	}

	st := getStats(t, srv.Handler())
	if st.num(t, "tracing.enabled") != 1 {
		t.Fatal("/v1/stats tracing.enabled = 0 with EnableTracing on")
	}
	// Traced queries still feed the shared stats aggregate.
	if st.num(t, "queries.observed_total") != 1 || st.num(t, "query.tiles_visited_total") <= 0 {
		t.Fatalf("traced query missing from aggregate: query section %v", st["query"])
	}
}

// TestSlowQueryLog: a threshold of one nanosecond marks every query
// slow; the counter rises while responses stay trace-free unless asked.
func TestSlowQueryLog(t *testing.T) {
	srv := testServer(t, func(cfg *Config) { cfg.SlowQueryThreshold = time.Nanosecond })

	var resp rangeResponse
	w := do(t, srv.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, &resp)
	if resp.Trace != nil || w.Header().Get("X-Trace") != "" {
		t.Fatal("slow-query accounting must not leak traces into responses")
	}

	m := scrapeMetrics(t, srv.Handler())
	if got := m["twolayer_slow_queries_total"]; got != 1 {
		t.Fatalf("twolayer_slow_queries_total = %v, want 1", got)
	}
	if got := m["twolayer_traced_queries_total"]; got != 0 {
		t.Fatalf("twolayer_traced_queries_total = %v, want 0", got)
	}
	// The threshold path still feeds the stats aggregate.
	if got := getStats(t, srv.Handler()).num(t, "queries.observed_total"); got != 1 {
		t.Fatalf("queries.observed_total = %g, want 1", got)
	}
}

// counters reads the engine's core counter total from a /v1/stats
// document (the twolayer_query_*_total families) as countersJSON.
func (st statsDoc) counters(t *testing.T) countersJSON {
	t.Helper()
	n := func(field string) int64 { return int64(st.num(t, "query."+field+"_total")) }
	class := func(c string) int64 { return int64(st.num(t, "query.class_entries_scanned_total."+c)) }
	return countersJSON{
		TilesVisited:         n("tiles_visited"),
		PartitionsScanned:    n("partitions_scanned"),
		EntriesScanned:       n("entries_scanned"),
		ClassEntriesScanned:  classCountsJSON{class("A"), class("B"), class("C"), class("D")},
		Comparisons:          n("comparisons"),
		Results:              n("results"),
		DuplicatesAvoided:    n("duplicates_avoided"),
		SecondaryFilterTests: n("secondary_filter_tests"),
		SecondaryFilterHits:  n("secondary_filter_hits"),
		RefinementTests:      n("refinement_tests"),
		DistanceComputations: n("distance_computations"),
	}
}

// addCounters adds src to dst, field by field (class counts included).
func addCounters(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		if f := dst.Field(i); f.Kind() == reflect.Struct {
			addCounters(f, src.Field(i))
		} else {
			f.SetInt(f.Int() + src.Field(i).Int())
		}
	}
}

// slowLogCounters parses the one slow-query log line in logs (JSON) and
// returns its kind and the counters it carries, as countersJSON fields.
func slowLogCounters(t *testing.T, logs []byte) (string, countersJSON) {
	t.Helper()
	var line struct {
		Msg             string `json:"msg"`
		Kind            string `json:"kind"`
		TilesVisited    int64  `json:"tiles_visited"`
		EntriesScanned  int64  `json:"entries_scanned"`
		Comparisons     int64  `json:"comparisons"`
		RefinementTests int64  `json:"refinement_tests"`
		Results         int64  `json:"results"`
	}
	if err := json.Unmarshal(logs, &line); err != nil || line.Msg != "slow query" {
		t.Fatalf("want one slow-query log line, got %q (%v)", logs, err)
	}
	return line.Kind, countersJSON{
		TilesVisited:    line.TilesVisited,
		EntriesScanned:  line.EntriesScanned,
		Comparisons:     line.Comparisons,
		RefinementTests: line.RefinementTests,
		Results:         line.Results,
	}
}

// logged keeps the counters a slow-query log line carries.
func logged(c countersJSON) countersJSON {
	return countersJSON{TilesVisited: c.TilesVisited, EntriesScanned: c.EntriesScanned,
		Comparisons: c.Comparisons, RefinementTests: c.RefinementTests, Results: c.Results}
}

// TestTraceCountsRequestWork: on one, two and seven shards, a traced
// request's top-level counters are the work the request added to the
// engine's total (/v1/stats query section), for every query kind, and on one
// shard also the work Index.Traced records for the same query. A batch
// answers without a trace, so its slow-query log line is held to the
// same rule; every kind's log line carries the trace's counters.
func TestTraceCountsRequestWork(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	geoms := make([]twolayer.Geometry, 600)
	for i := range geoms {
		x, y := rnd.Float64(), rnd.Float64()
		w, h := 0.002+rnd.Float64()*0.1, 0.002+rnd.Float64()*0.05
		geoms[i] = twolayer.NewPolygon(twolayer.Point{X: x, Y: y}, twolayer.Point{X: x + w, Y: y},
			twolayer.Point{X: x + w, Y: y + h}, twolayer.Point{X: x, Y: y + h})
	}
	opts := twolayer.Options{GridSize: 28}
	idx := twolayer.BuildGeoms(geoms, opts)
	win := twolayer.Rect{MinX: 0.1, MinY: 0.2, MaxX: 0.8, MaxY: 0.7}
	disk := twolayer.Disk{Center: twolayer.Point{X: 0.5, Y: 0.5}, Radius: 0.3}
	batch := []twolayer.Rect{win, {MinX: 0.05, MinY: 0.05, MaxX: 0.2, MaxY: 0.9}}
	const winJSON = `"window":{"min_x":0.1,"min_y":0.2,"max_x":0.8,"max_y":0.7}`
	all := func(twolayer.ID, twolayer.Rect) bool { return true }
	kinds := []struct {
		name, path, body string
		direct           func(v *twolayer.Index) // the request's query on a view of idx
	}{
		{"window", "/v1/window", `{` + winJSON + `}`, func(v *twolayer.Index) {
			v.Search(twolayer.Query{Window: &win, Limit: DefaultResultLimit}, all)
		}},
		{"disk", "/v1/disk", `{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.3}}`, func(v *twolayer.Index) {
			v.Search(twolayer.Query{Disk: &disk, Limit: DefaultResultLimit}, all)
		}},
		{"count_only", "/v1/window", `{` + winJSON + `,"count_only":true}`, func(v *twolayer.Index) {
			v.SearchCount(twolayer.Query{Window: &win})
		}},
		{"exact window", "/v1/window", `{` + winJSON + `,"exact":true}`, func(v *twolayer.Index) {
			v.Search(twolayer.Query{Window: &win, Exact: true, Mode: twolayer.RefineAvoidPlus, Limit: DefaultResultLimit}, all)
		}},
		{"knn", "/v1/knn", `{"center":{"x":0.5,"y":0.5},"k":9}`, func(v *twolayer.Index) {
			v.KNN(disk.Center, 9)
		}},
		{"batch", "/v1/batch", `{"windows":[{"min_x":0.1,"min_y":0.2,"max_x":0.8,"max_y":0.7},` +
			`{"min_x":0.05,"min_y":0.05,"max_x":0.2,"max_y":0.9}]}`, func(v *twolayer.Index) {
			v.BatchWindowCounts(batch, twolayer.QueriesBased, twolayer.DefaultThreads())
		}},
	}
	for _, shards := range []int{1, 2, 7} {
		var logs bytes.Buffer
		cfg := Config{Logger: slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn})), SlowQueryThreshold: time.Nanosecond}
		if shards == 1 {
			cfg.Index = idx
		} else {
			cfg.Sharded = twolayer.BuildShardedGeoms(geoms, opts, twolayer.ShardedOptions{Shards: shards})
		}
		h := New(cfg).Handler()
		for _, k := range kinds {
			ctx := fmt.Sprintf("S=%d %s", shards, k.name)
			before := getStats(t, h).counters(t)
			logs.Reset()
			req := httptest.NewRequest("POST", k.path, strings.NewReader(k.body))
			req.Header.Set("X-Trace", "1")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			var resp struct {
				Trace *traceJSON `json:"trace"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || w.Code != http.StatusOK {
				t.Fatalf("%s: status %d, err %v: %s", ctx, w.Code, err, w.Body.String())
			}
			after := getStats(t, h).counters(t)
			kind, fromLog := slowLogCounters(t, logs.Bytes())
			if want := strings.TrimPrefix(k.path, "/v1/"); kind != want {
				t.Errorf("%s: slow log kind %q, want %q", ctx, kind, want)
			}

			got := fromLog
			if k.path != "/v1/batch" {
				if resp.Trace == nil || len(resp.Trace.Shards) == 0 {
					t.Fatalf("%s: trace %+v, want one with shard spans", ctx, resp.Trace)
				}
				got = resp.Trace.countersJSON
				if logged(got) != fromLog {
					t.Errorf("%s: slow log counters %+v, trace %+v", ctx, fromLog, logged(got))
				}
			}
			sum := before
			addCounters(reflect.ValueOf(&sum).Elem(), reflect.ValueOf(got))
			if k.path == "/v1/batch" {
				after = logged(after)
				sum = logged(sum)
			}
			if sum != after {
				t.Errorf("%s: stats counters moved from %+v to %+v, the trace says %+v", ctx, before, after, got)
			}
			if got.EntriesScanned == 0 {
				t.Errorf("%s: trace counted no entries", ctx)
			}
			if shards == 1 {
				view, tr := idx.Traced()
				k.direct(view)
				if want := newCountersJSON(&tr.Stats); k.path == "/v1/batch" && logged(want) != got ||
					k.path != "/v1/batch" && want != got {
					t.Errorf("%s: trace counters %+v, Index.Traced %+v", ctx, got, want)
				}
			}
		}
	}
}

// TestSlowBatchLogged: a batch is traced internally when the slow-query
// log is on, on one shard and on two, and a slow one is logged as
// kind=batch with the counters of its queries; its answer stays
// trace-free.
func TestSlowBatchLogged(t *testing.T) {
	opts := twolayer.Options{GridSize: 16}
	for _, cfg := range []Config{
		{Index: twolayer.BuildGeoms(testGeoms(), opts)},
		{Sharded: twolayer.BuildShardedGeoms(testGeoms(), opts, twolayer.ShardedOptions{Shards: 2})},
	} {
		var logs bytes.Buffer
		cfg.Logger = slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))
		cfg.SlowQueryThreshold = time.Nanosecond
		w := do(t, New(cfg).Handler(), "POST", "/v1/batch",
			`{"windows":[{"min_x":0.05,"min_y":0.05,"max_x":0.55,"max_y":0.95}]}`, nil)
		if w.Code != http.StatusOK || strings.Contains(w.Body.String(), `"trace"`) || w.Header().Get("X-Trace") != "" {
			t.Fatalf("batch: status %d, X-Trace %q: %s", w.Code, w.Header().Get("X-Trace"), w.Body.String())
		}
		kind, c := slowLogCounters(t, logs.Bytes())
		if kind != "batch" || c.EntriesScanned == 0 || c.Results == 0 {
			t.Errorf("slow batch logged kind=%s with %+v, want kind=batch and non-zero entries_scanned and results", kind, c)
		}
	}
}
