package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// TestV1WindowEstimate checks the "estimate": true envelope flag: the
// window endpoint returns the planner's cardinality estimate alongside
// the results, and the disk endpoint rejects the flag.
func TestV1WindowEstimate(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()

	var resp rangeResponse
	w := do(t, h, "POST", "/v1/window", `{`+fullWindow+`,"count_only":true,"estimate":true}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.Count != 100 {
		t.Fatalf("count = %d, want 100", resp.Count)
	}
	if resp.Estimate == nil {
		t.Fatal("estimate requested but missing from response")
	}
	// Uniform non-replicated data: the histogram estimate is near-exact.
	if *resp.Estimate < 90 || *resp.Estimate > 110 {
		t.Errorf("estimate = %g, want ~100", *resp.Estimate)
	}

	// Without the flag the field is absent.
	resp = rangeResponse{}
	do(t, h, "POST", "/v1/window", `{`+fullWindow+`,"count_only":true}`, &resp)
	if resp.Estimate != nil {
		t.Errorf("estimate present without being requested: %g", *resp.Estimate)
	}

	// The disk endpoint rejects it.
	w = do(t, h, "POST", "/v1/disk",
		`{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.2},"estimate":true}`, nil)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("disk estimate: status %d, want 400", w.Code)
	}
}

// TestAdaptiveKernelMetrics checks that the always-on path counters are
// exported on /metrics regardless of CollectStats, and that a count-only
// /v1 window or disk query reaches the count pushdown on the default
// (CollectStats) server as well as on an uninstrumented one: the pushdown
// counter advances by one per request, the count is the streamed query's,
// and the /v1/stats core counters count the request as observed exactly
// when the server collects them (the kernels count their own work).
func TestAdaptiveKernelMetrics(t *testing.T) {
	const fastCounts = "twolayer_query_fastpath_counts_total"
	for _, collect := range []bool{false, true} {
		s := testServer(t, func(c *Config) { c.CollectStats = collect })
		h := s.Handler()

		before := scrapeMetrics(t, h)
		for _, name := range []string{
			fastCounts,
			"twolayer_query_fastpath_tiles_total",
			"twolayer_query_fastpath_bulk_entries_total",
		} {
			if _, ok := before[name]; !ok {
				t.Errorf("collect=%v: metric %s not exported", collect, name)
			}
		}

		for _, q := range []struct{ path, shape string }{
			{"/v1/window", `"window":{"min_x":0.12,"min_y":0.12,"max_x":0.78,"max_y":0.58}`},
			{"/v1/disk", `"disk":{"center":{"x":0.5,"y":0.5},"radius":0.3}`},
		} {
			var streamed, counted rangeResponse
			do(t, h, "POST", q.path, `{`+q.shape+`}`, &streamed)
			before = scrapeMetrics(t, h)
			do(t, h, "POST", q.path, `{`+q.shape+`,"count_only":true}`, &counted)
			after := scrapeMetrics(t, h)
			if streamed.Count == 0 || counted.Count != streamed.Count {
				t.Errorf("collect=%v %s: count_only = %d, streamed = %d",
					collect, q.path, counted.Count, streamed.Count)
			}
			if got, want := after[fastCounts], before[fastCounts]+1; got != want {
				t.Errorf("collect=%v %s: %s = %g, want %g", collect, q.path, fastCounts, got, want)
			}
			const observed = "twolayer_queries_observed_total"
			want := before[observed]
			if collect {
				want++
			}
			if after[observed] != want {
				t.Errorf("collect=%v %s: count_only moved %s %g -> %g, want %g",
					collect, q.path, observed, before[observed], after[observed], want)
			}
		}
	}
}

// TestLargeWindowTrace drives the largest request the API admits — a
// traced whole-space window with the maximum limit over a cover of 4096
// tiles and more than 4096 results. It is evaluated by the one
// sequential scan: the trace carries the core counters (or one span per
// shard) and has no "parallel" or "chunks" key.
func TestLargeWindowTrace(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	rects := make([]twolayer.Rect, 5000)
	for i := range rects {
		x, y := rnd.Float64(), rnd.Float64()
		rects[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.01, MaxY: y + 0.01}
	}
	opts := twolayer.Options{GridSize: 64}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	body := `{` + fullWindow + `,"limit":100000,"trace":true}`

	trace := func(s *Server) map[string]json.RawMessage {
		t.Helper()
		var resp struct {
			Count int                        `json:"count"`
			Trace map[string]json.RawMessage `json:"trace"`
		}
		if w := do(t, s.Handler(), "POST", "/v1/window", body, &resp); w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		if resp.Count != len(rects) {
			t.Fatalf("count = %d, want %d", resp.Count, len(rects))
		}
		for _, key := range []string{"parallel", "chunks"} {
			if _, ok := resp.Trace[key]; ok {
				t.Errorf("trace still has a %q key", key)
			}
		}
		return resp.Trace
	}

	tr := trace(New(Config{Index: twolayer.BuildRects(rects, opts), Logger: logger}))
	var tiles int64
	if err := json.Unmarshal(tr["tiles_visited"], &tiles); err != nil || tiles == 0 {
		t.Errorf("tiles_visited = %s (err %v), want non-zero", tr["tiles_visited"], err)
	}

	tr = trace(New(Config{
		Sharded: twolayer.BuildShardedRects(rects, opts, twolayer.ShardedOptions{Shards: 2}),
		Logger:  logger,
	}))
	var spans []shardSpanJSON
	if err := json.Unmarshal(tr["shards"], &spans); err != nil || len(spans) != 2 {
		t.Errorf("shards = %s (err %v), want one span per shard", tr["shards"], err)
	}
}

// TestBatchThreadsFollowGOMAXPROCS: the batch worker count defaults to,
// and is clamped at, GOMAXPROCS — what the process may run at once —
// not the machine's core count.
func TestBatchThreadsFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := testServer(t, nil)
	for _, threads := range []string{"0", "64"} {
		var resp batchResponse
		do(t, s.Handler(), "POST", "/v1/batch", `{"threads":`+threads+`,"windows":[
			{"min_x":0,"min_y":0,"max_x":0.15,"max_y":0.15},
			{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`, &resp)
		if resp.Threads != 1 {
			t.Errorf(`"threads": %s answered threads = %d, want 1`, threads, resp.Threads)
		}
		if len(resp.Counts) != 2 || resp.Counts[0] != 4 || resp.Counts[1] != 100 {
			t.Errorf(`"threads": %s: counts = %v, want [4 100]`, threads, resp.Counts)
		}
	}
}

// TestProcessMetricsFromRuntimeMetrics: the heap and GC families are
// served (from runtime/metrics, not the stop-the-world ReadMemStats) and
// gc_total counts completed cycles.
func TestProcessMetricsFromRuntimeMetrics(t *testing.T) {
	h := testServer(t, nil).Handler()
	before := scrapeMetrics(t, h)
	for _, name := range []string{"twolayer_process_heap_alloc_bytes", "twolayer_process_gc_total"} {
		if _, ok := before[name]; !ok {
			t.Fatalf("metric %s not exported", name)
		}
	}
	if before["twolayer_process_heap_alloc_bytes"] <= 0 {
		t.Errorf("heap_alloc_bytes = %g, want > 0", before["twolayer_process_heap_alloc_bytes"])
	}
	runtime.GC()
	after := scrapeMetrics(t, h)
	if got, want := after["twolayer_process_gc_total"], before["twolayer_process_gc_total"]+1; got < want {
		t.Errorf("gc_total after a forced GC = %g, want >= %g", got, want)
	}
}
