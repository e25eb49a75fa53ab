package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServerLifecycle starts a real listener, serves one query over TCP,
// then cancels the context and checks the graceful shutdown completes.
func TestServerLifecycle(t *testing.T) {
	// Grab a free port first so ListenAndServe can bind deterministically.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	s := testServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, addr) }()

	// Wait for the listener to come up.
	url := "http://" + addr
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server did not come up on %s: %v", addr, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp.Body.Close()

	qresp, err := http.Post(url+"/v1/window", "application/json",
		strings.NewReader(`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"count_only":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	var rr rangeResponse
	if err := json.Unmarshal(body, &rr); err != nil || rr.Count != 100 {
		t.Fatalf("query over TCP: count=%d err=%v body=%s", rr.Count, err, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down within 5s")
	}

	// The port must actually be released.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

func TestNewPanicsWithoutIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with nil Index did not panic")
		}
	}()
	New(Config{})
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.RequestTimeout != DefaultRequestTimeout {
		t.Errorf("RequestTimeout default = %v", cfg.RequestTimeout)
	}
	if cfg.MaxBodyBytes != DefaultMaxBodyBytes {
		t.Errorf("MaxBodyBytes default = %v", cfg.MaxBodyBytes)
	}
	if cfg.Logger == nil {
		t.Error("Logger default is nil")
	}
}

// TestEveryMetricsEndpointRegistered guards the /metrics registry against
// drift, on the topology that mounts every route (durable): each entry of
// the route table has a pre-registered series that moves when the route
// is hit, and the registry holds no series the table does not.
func TestEveryMetricsEndpointRegistered(t *testing.T) {
	s, _ := durableServer(t, t.TempDir(), 1)
	routes := s.routes()
	series := func(rt route) string {
		return fmt.Sprintf(`twolayer_http_requests_total{endpoint=%q}`, rt.endpoint())
	}
	// Every routed endpoint's series exists (at zero) before any traffic.
	before := scrapeMetrics(t, s.Handler())
	for _, rt := range routes {
		if v, ok := before[series(rt)]; !ok || v != 0 {
			t.Errorf("%s: series %s = %v (present %v), want pre-registered at 0",
				rt.pattern, series(rt), v, ok)
		}
	}
	for _, rt := range routes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		body := ""
		if method == "POST" {
			body = `{}`
		}
		do(t, s.Handler(), method, path, body, nil)
		if m := scrapeMetrics(t, s.Handler()); m[series(rt)] != 1 {
			t.Errorf("%s not recorded in /metrics as %s", rt.pattern, series(rt))
		}
	}
	// And nothing extra: exactly one requests series per routed endpoint.
	n := 0
	for key := range before {
		if strings.HasPrefix(key, "twolayer_http_requests_total{") {
			n++
		}
	}
	if n != len(routes) {
		t.Errorf("metrics registry has %d endpoint series, route table has %d", n, len(routes))
	}
	if _, ok := before[`twolayer_deprecated_requests_total{endpoint="query/window"}`]; ok {
		t.Error("twolayer_deprecated_requests_total is still exported")
	}
}

// TestRouteTable pins the served surface: exactly the /v1 API plus the
// unversioned /healthz and /metrics, with the mutation and checkpoint
// routes mounted only in the modes that back them.
func TestRouteTable(t *testing.T) {
	patterns := func(s *Server) string {
		var out []string
		for _, rt := range s.routes() {
			out = append(out, rt.pattern)
		}
		return strings.Join(out, ", ")
	}
	const read = "POST /v1/window, POST /v1/disk, POST /v1/knn, POST /v1/batch, " +
		"GET /v1/stats, GET /v1/healthz, GET /healthz"
	const mutate = ", POST /v1/insert, POST /v1/delete, POST /v1/bulk"
	static := testServer(t, nil)
	if got := patterns(static); got != read {
		t.Errorf("static routes = %s", got)
	}
	live, _ := liveServer(t, nil)
	if got := patterns(live); got != read+mutate {
		t.Errorf("live routes = %s", got)
	}
	durable, _ := durableServer(t, t.TempDir(), 1)
	if got := patterns(durable); got != read+mutate+", POST /v1/checkpoint" {
		t.Errorf("durable routes = %s", got)
	}
	if w := do(t, static.Handler(), "GET", "/metrics", "", nil); w.Code != http.StatusOK {
		t.Errorf("GET /metrics: status %d", w.Code)
	}
}

// TestRemovedRoutesAnswer404: the nine unversioned routes deleted in
// favor of /v1 are gone in every mode, not redirected or aliased.
func TestRemovedRoutesAnswer404(t *testing.T) {
	s, _ := durableServer(t, t.TempDir(), 1)
	for _, rt := range []struct{ method, path string }{
		{"POST", "/query/window"}, {"POST", "/query/disk"},
		{"POST", "/query/knn"}, {"POST", "/query/batch"},
		{"POST", "/insert"}, {"POST", "/delete"}, {"POST", "/bulk"},
		{"POST", "/checkpoint"}, {"GET", "/stats"},
	} {
		if w := do(t, s.Handler(), rt.method, rt.path, `{}`, nil); w.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", rt.method, rt.path, w.Code)
		}
	}
}
