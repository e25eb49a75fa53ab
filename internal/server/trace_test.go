package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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

	var st statsResponse
	do(t, srv.Handler(), "GET", "/v1/stats", "", &st)
	if !st.TracingEnabled {
		t.Fatal("/stats tracing_enabled = false with EnableTracing on")
	}
	// Traced queries still feed the shared stats aggregate.
	if st.QueriesObserved != 1 || st.Counters.TilesVisited <= 0 {
		t.Fatalf("traced query missing from aggregate: observed=%d counters=%+v",
			st.QueriesObserved, st.Counters)
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
	var st statsResponse
	do(t, srv.Handler(), "GET", "/v1/stats", "", &st)
	if st.QueriesObserved != 1 {
		t.Fatalf("queries_observed = %d, want 1", st.QueriesObserved)
	}
}
