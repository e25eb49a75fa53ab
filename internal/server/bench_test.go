package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// The handler benchmarks run BENCHMARK.json's request shapes in
// process, through Handler().ServeHTTP with every middleware:
// window_serve (one window of extent 0.01 with its results and MBRs),
// batch_scan (1000 windows of extent 0.005, counts only) and the bulks
// of 32 moves that durable_ingest and mixed_rw post. The data
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

// benchRects are the benchmark data; object i has ID i.
var benchRects = sync.OnceValue(func() []twolayer.Rect {
	rnd := rand.New(rand.NewSource(1))
	rects := make([]twolayer.Rect, benchN)
	for i := range rects {
		x, y := rnd.Float64()*benchSide, rnd.Float64()*benchSide
		rects[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + rnd.Float64()*0.002, MaxY: y + rnd.Float64()*0.002}
	}
	return rects
})

// benchIndex holds the benchmark data, built once per test binary and
// shared by every static benchmark server (a static index is read-only).
var benchIndex = sync.OnceValue(func() *twolayer.Index {
	return twolayer.BuildRects(benchRects(), twolayer.Options{})
})

// benchHandler serves the benchmark data as spatialserver does by
// default (core counters on, request logs below the level printed),
// with cfg's admission and timeout settings.
func benchHandler(cfg Config) http.Handler {
	cfg.Index = benchIndex()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	return New(cfg).Handler()
}

// appendRect appends r as the benchmark's load generator writes it.
func appendRect(dst []byte, r twolayer.Rect) []byte {
	keys := [4]string{`{"min_x":`, `,"min_y":`, `,"max_x":`, `,"max_y":`}
	for i, v := range [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		dst = append(dst, keys[i]...)
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, '}')
}

// appendWindow appends a random window of the given extent inside the
// data, written as the benchmark's load generator writes it.
func appendWindow(dst []byte, rnd *rand.Rand, extent float64) []byte {
	x, y := rnd.Float64()*(benchSide-extent), rnd.Float64()*(benchSide-extent)
	return appendRect(dst, twolayer.Rect{MinX: x, MinY: y, MaxX: x + extent, MaxY: y + extent})
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
	h := benchHandler(Config{})
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
	h := benchHandler(Config{})
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

// BenchmarkV1Bulk posts bulks of 32 moves to a live index over the
// benchmark data, each move written as durable_ingest writes it: a
// delete of the object at its current MBR, then an insert of it offset
// by at most 0.001 per axis. The bulks come in pairs, the second moving
// the first's objects back, so the bodies can be written up front and
// replayed in a cycle that leaves every object where it started. The
// memory case posts to a one-shard ShardedLive, as mixed_rw's writes go;
// the durable case to a DurableLive in a fresh directory, journaled
// with SyncInterval and no automatic checkpoints, as durable_ingest's
// server runs.
func BenchmarkV1Bulk(b *testing.B) {
	seed := func() *twolayer.Sharded {
		return twolayer.OneShard(twolayer.BuildRects(slices.Clone(benchRects()), twolayer.Options{}))
	}
	b.Run("memory", func(b *testing.B) {
		live := twolayer.ShardedLiveFrom(seed(), twolayer.LiveOptions{})
		b.Cleanup(live.Close)
		runBulks(b, Config{ShardedLive: live})
	})
	b.Run("durable", func(b *testing.B) {
		dl, _, err := twolayer.OpenDurable(twolayer.Options{}, twolayer.LiveOptions{}, twolayer.DurableOptions{
			Dir:             b.TempDir(),
			Fsync:           twolayer.SyncInterval,
			CheckpointEvery: -1,
			Seed:            seed(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			if err := dl.Close(); err != nil {
				b.Error(err)
			}
		})
		runBulks(b, Config{Durable: dl})
	})
}

// runBulks times BenchmarkV1Bulk's bulks on the live engine of cfg.
func runBulks(b *testing.B, cfg Config) {
	const moves, pairs = 32, 64
	rects := benchRects()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))
	h := New(cfg).Handler()

	rnd := rand.New(rand.NewSource(5))
	ids := rnd.Perm(benchN)
	var bodies [][]byte
	for p := range pairs {
		there, back := []byte(`{"mutations":[`), []byte(`{"mutations":[`)
		for i, id := range ids[p*moves : (p+1)*moves] {
			from := rects[id]
			dx, dy := (rnd.Float64()*2-1)*0.001, (rnd.Float64()*2-1)*0.001
			to := twolayer.Rect{MinX: from.MinX + dx, MinY: from.MinY + dy, MaxX: from.MaxX + dx, MaxY: from.MaxY + dy}
			if i > 0 {
				there, back = append(there, ','), append(back, ',')
			}
			there = appendMove(there, twolayer.ID(id), from, to)
			back = appendMove(back, twolayer.ID(id), to, from)
		}
		bodies = append(bodies, append(there, "]}"...), append(back, "]}"...))
	}
	// One cycle up front: every delete must find its object.
	for _, body := range bodies {
		var resp bulkResponse
		if err := json.Unmarshal(serve(b, h, "/v1/bulk", body).Body.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		if len(resp.Found) != 2*moves || slices.Contains(resp.Found, false) {
			b.Fatalf("found %v", resp.Found)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, "/v1/bulk", bodies[i%len(bodies)])
	}
}

// appendMove appends the two mutations of a move of object id.
func appendMove(dst []byte, id twolayer.ID, from, to twolayer.Rect) []byte {
	dst = append(dst, `{"op":"delete","id":`...)
	dst = strconv.AppendUint(dst, uint64(id), 10)
	dst = appendRect(append(dst, `,"mbr":`...), from)
	dst = append(dst, `},{"op":"insert","id":`...)
	dst = strconv.AppendUint(dst, uint64(id), 10)
	dst = appendRect(append(dst, `,"mbr":`...), to)
	return append(dst, '}')
}

// BenchmarkOverload is the overload valve under load: overloadClients
// closed-loop clients, far more than the read class's 4 slots, post
// windows through the handler, 3 of every 4 of BenchmarkV1Window's size
// and 1 of 20× its area with a limit that lets it stream its whole
// answer. A client pauses 1 ms after a 429 or 503 and resubmits at once
// after a 200. Each configuration runs at the default request timeout
// and at 5 ms: 4 read slots with the default 8×4 queue, 4 slots with a
// queue of 4, and admission off. b.N counts requests of all outcomes.
// Reported:
//
//   - ok/s: goodput, 200 answers per second;
//   - ok_p50_us, ok_p95_us: latency of the 200 answers;
//   - <reason>_frac: the share of requests shed or failed per reason,
//     read from the answer: queue_full (429), deadline (429, the
//     admission wait predictor where one exists), expired (503, the
//     deadline ran out in the queue), timeout (503, the deadline ran
//     out while evaluating), other (any other answer).
//
// It needs only Config and Handler, so the same file measures any
// build of the package. Run it with
//
//	go test -run '^$' -bench Overload -benchtime 10000x ./internal/server
func BenchmarkOverload(b *testing.B) {
	rnd := rand.New(rand.NewSource(4))
	small := make([][]byte, 192)
	for i := range small {
		small[i] = append(appendWindow([]byte(`{"window":`), rnd, 0.01), '}')
	}
	large := make([][]byte, 64)
	for i := range large {
		body := appendWindow([]byte(`{"window":`), rnd, 0.01*math.Sqrt(20))
		large[i] = append(body, `,"limit":100000}`...)
	}
	for _, gate := range []struct {
		name         string
		slots, queue int
	}{{"slots=4", 4, 0}, {"slots=4,queue=4", 4, 4}, {"slots=off", -1, 0}} {
		for _, timeout := range []time.Duration{DefaultRequestTimeout, 5 * time.Millisecond} {
			b.Run(gate.name+"/timeout="+timeout.String(), func(b *testing.B) {
				h := benchHandler(Config{MaxInflight: gate.slots, QueueDepth: gate.queue, RequestTimeout: timeout})
				runOverload(b, h, small, large)
			})
		}
	}
}

// overloadClients is BenchmarkOverload's closed-loop client count.
const overloadClients = 64

// overloadFailures are the non-200 outcomes BenchmarkOverload counts,
// each recognized by a fragment of its error text; an answer matching
// none counts as "other".
var overloadFailures = []struct{ name, text string }{
	{"queue_full", "queue is full"},
	{"deadline", "predicted"},
	{"expired", "expired while queued"},
	{"timeout", "deadline exceeded"},
	{"other", ""},
}

func runOverload(b *testing.B, h http.Handler, small, large [][]byte) {
	var next atomic.Int64
	var ok atomic.Int64
	failed := make([]atomic.Int64, len(overloadFailures))
	lat := make([][]time.Duration, overloadClients)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < overloadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var w overloadWriter
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				body := small[i%int64(len(small))]
				if i%4 == 3 {
					body = large[i/4%int64(len(large))]
				}
				w.reset()
				t0 := time.Now()
				h.ServeHTTP(&w, httptest.NewRequest("POST", "/v1/window", bytes.NewReader(body)))
				if w.code == http.StatusOK {
					lat[c] = append(lat[c], time.Since(t0))
					ok.Add(1)
					continue
				}
				for j, f := range overloadFailures {
					if bytes.Contains(w.head, []byte(f.text)) {
						failed[j].Add(1)
						break
					}
				}
				time.Sleep(time.Millisecond)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	all := slices.Concat(lat...)
	slices.Sort(all)
	quantile := func(q float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[int(q*float64(len(all)-1))].Microseconds())
	}
	b.ReportMetric(float64(ok.Load())/elapsed.Seconds(), "ok/s")
	b.ReportMetric(quantile(0.50), "ok_p50_us")
	b.ReportMetric(quantile(0.95), "ok_p95_us")
	for j, f := range overloadFailures {
		b.ReportMetric(float64(failed[j].Load())/float64(b.N), f.name+"_frac")
	}
}

// overloadWriter is a ResponseWriter that keeps the status and the
// first bytes of the body (enough to classify an error answer) and
// discards the rest, so the clients measure the handler, not a buffer.
type overloadWriter struct {
	header http.Header
	code   int
	head   []byte
}

func (w *overloadWriter) reset() {
	w.header, w.code, w.head = http.Header{}, http.StatusOK, w.head[:0]
}

func (w *overloadWriter) Header() http.Header  { return w.header }
func (w *overloadWriter) WriteHeader(code int) { w.code = code }

func (w *overloadWriter) Write(p []byte) (int, error) {
	if n := 128 - len(w.head); n > 0 {
		w.head = append(w.head, p[:min(n, len(p))]...)
	}
	return len(p), nil
}
