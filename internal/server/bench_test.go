package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// The handler benchmarks run the two BENCHMARK.json read shapes in
// process, through Handler().ServeHTTP with every middleware:
// window_serve (one window of extent 0.01 with its results and MBRs)
// and batch_scan (1000 windows of extent 0.005, counts only). The data
// are benchN small rectangles packed into [0, benchSide]², dense
// enough that a window answers about 430 results, as window_serve's
// windows do on 1M ROADS, while the index builds in a fraction of a
// second. Run them with
//
//	go test -run '^$' -bench V1 -benchmem ./internal/server
const (
	benchN    = 80000
	benchSide = 0.15
)

// benchHandler serves the benchmark data as spatialserver does by
// default: core counters on, request logs below the level printed.
func benchHandler(b *testing.B) http.Handler {
	b.Helper()
	rnd := rand.New(rand.NewSource(1))
	rects := make([]twolayer.Rect, benchN)
	for i := range rects {
		x, y := rnd.Float64()*benchSide, rnd.Float64()*benchSide
		rects[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + rnd.Float64()*0.002, MaxY: y + rnd.Float64()*0.002}
	}
	return New(Config{
		Index:  twolayer.BuildRects(rects, twolayer.Options{}),
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}).Handler()
}

// appendWindow appends a random window of the given extent inside the
// data, written as the benchmark's load generator writes it.
func appendWindow(dst []byte, rnd *rand.Rand, extent float64) []byte {
	keys := [4]string{`{"min_x":`, `,"min_y":`, `,"max_x":`, `,"max_y":`}
	x, y := rnd.Float64()*(benchSide-extent), rnd.Float64()*(benchSide-extent)
	for i, v := range [4]float64{x, y, x + extent, y + extent} {
		dst = append(dst, keys[i]...)
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, '}')
}

// serve posts body to path and fails b unless the answer is a 200.
func serve(b *testing.B, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		b.Fatalf("%s: %d %s", path, w.Code, w.Body.String())
	}
	return w
}

func BenchmarkV1Window(b *testing.B) {
	h := benchHandler(b)
	rnd := rand.New(rand.NewSource(2))
	bodies := make([][]byte, 256)
	results := 0
	for i := range bodies {
		bodies[i] = append(appendWindow([]byte(`{"window":`), rnd, 0.01), '}')
		var resp rangeResponse
		if err := json.Unmarshal(serve(b, h, "/v1/window", bodies[i]).Body.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		results += resp.Count
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, "/v1/window", bodies[i%len(bodies)])
	}
	b.ReportMetric(float64(results)/float64(len(bodies)), "results/op")
}

func BenchmarkV1Batch(b *testing.B) {
	h := benchHandler(b)
	rnd := rand.New(rand.NewSource(3))
	bodies := make([][]byte, 4)
	for i := range bodies {
		body := []byte(`{"mode":"queries","windows":[`)
		for j := 0; j < 1000; j++ {
			if j > 0 {
				body = append(body, ',')
			}
			body = appendWindow(body, rnd, 0.005)
		}
		bodies[i] = append(body, "]}"...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, "/v1/batch", bodies[i%len(bodies)])
	}
}
