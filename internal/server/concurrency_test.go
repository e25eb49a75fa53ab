package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentQueries fires parallel window, disk, kNN, and batch
// queries (with stats collection on, which is the racier configuration:
// every request allocates an instrumented view and merges into the shared
// AtomicStats) against one shared index. Run with -race; correctness is
// also checked via the known result counts of the 10x10 test fixture.
func TestConcurrentQueries(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()

	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)

	post := func(path, body string) (*json.Decoder, int, error) {
		w := do(t, h, "POST", path, body, nil)
		return json.NewDecoder(w.Body), w.Code, nil
	}

	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch (wkr + i) % 4 {
				case 0: // full-space window: exactly 100 results
					dec, code, _ := post("/v1/window",
						`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`)
					var resp rangeResponse
					if err := dec.Decode(&resp); err != nil || code != http.StatusOK || resp.Count != 100 {
						errs <- fmt.Errorf("window: code=%d count=%d err=%v", code, resp.Count, err)
					}
				case 1: // disk around the center, through the count pushdown
					dec, code, _ := post("/v1/disk",
						`{"disk":{"center":{"x":0.5,"y":0.5},"radius":0.2},"count_only":true}`)
					var resp rangeResponse
					if err := dec.Decode(&resp); err != nil || code != http.StatusOK || resp.Count == 0 {
						errs <- fmt.Errorf("disk: code=%d count=%d err=%v", code, resp.Count, err)
					}
				case 2: // kNN reads the shared index from every worker
					dec, code, _ := post("/v1/knn",
						`{"center":{"x":0.31,"y":0.64},"k":9}`)
					var resp knnResponse
					if err := dec.Decode(&resp); err != nil || code != http.StatusOK || len(resp.Neighbors) != 9 {
						errs <- fmt.Errorf("knn: code=%d n=%d err=%v", code, len(resp.Neighbors), err)
					}
				case 3: // parallel tiles-based batch inside a concurrent request
					dec, code, _ := post("/v1/batch",
						`{"windows":[{"min_x":0,"min_y":0,"max_x":0.15,"max_y":0.15},
						             {"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`)
					var resp batchResponse
					if err := dec.Decode(&resp); err != nil || code != http.StatusOK ||
						len(resp.Counts) != 2 || resp.Counts[0] != 4 || resp.Counts[1] != 100 {
						errs <- fmt.Errorf("batch: code=%d counts=%v err=%v", code, resp.Counts, err)
					}
				}
			}
		}(wkr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The aggregate must have observed every request: single queries,
	// count-only ones and batches alike.
	var stats statsResponse
	do(t, h, "GET", "/v1/stats", "", &stats)
	wantObserved := int64(workers * perWorker)
	if stats.QueriesObserved != wantObserved {
		t.Errorf("queries_observed = %d, want %d", stats.QueriesObserved, wantObserved)
	}
	m := scrapeMetrics(t, h)
	for _, ep := range []string{"v1/window", "v1/disk", "v1/knn", "v1/batch"} {
		if got := m[fmt.Sprintf(`twolayer_http_requests_total{endpoint=%q}`, ep)]; got != float64(workers*perWorker/4) {
			t.Errorf("%s requests = %v, want %d", ep, got, workers*perWorker/4)
		}
		if got := m[fmt.Sprintf(`twolayer_http_request_errors_total{endpoint=%q}`, ep)]; got != 0 {
			t.Errorf("%s errors = %v, want 0", ep, got)
		}
	}
}
