package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// ---- classGate unit tests -------------------------------------------------

func TestGateFastPath(t *testing.T) {
	g := newClassGate("read", 2, 4)
	wait, reason := g.acquire(context.Background())
	if reason != shedNone {
		t.Fatalf("reason = %v, want admitted", reason)
	}
	if wait != 0 {
		t.Fatalf("fast path reported wait %v, want 0", wait)
	}
	if got := g.inflight.Load(); got != 1 {
		t.Fatalf("inflight = %d, want 1", got)
	}
	g.release()
	if got := g.inflight.Load(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
	if got := g.admitted.Load(); got != 1 {
		t.Fatalf("admitted = %d, want 1", got)
	}
}

func TestGateQueueFull(t *testing.T) {
	g := newClassGate("read", 1, 1)
	if _, reason := g.acquire(context.Background()); reason != shedNone {
		t.Fatalf("first acquire shed: %v", reason)
	}
	// Fill the single queue slot with a blocked waiter.
	admitted := make(chan struct{})
	go func() {
		if _, reason := g.acquire(context.Background()); reason != shedNone {
			t.Errorf("queued acquire shed: %v", reason)
		}
		close(admitted)
	}()
	waitForInt64(t, g.queued.Load, 1)

	// The queue is at depth: the next arrival sheds immediately.
	_, reason := g.acquire(context.Background())
	if reason != shedQueueFull {
		t.Fatalf("reason = %v, want queue_full", reason)
	}
	if got := g.shed[shedQueueFull-1].Load(); got != 1 {
		t.Fatalf("shed[queue_full] = %d, want 1", got)
	}

	// Releasing hands the slot to the waiter (FIFO: it is the only one).
	g.release()
	select {
	case <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("queued request was not admitted after release")
	}
	g.release()
}

func TestGateExpiredWhileQueued(t *testing.T) {
	g := newClassGate("read", 1, 8)
	if _, reason := g.acquire(context.Background()); reason != shedNone {
		t.Fatalf("first acquire shed: %v", reason)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	wait, reason := g.acquire(ctx)
	if reason != shedExpired {
		t.Fatalf("reason = %v, want expired", reason)
	}
	if wait <= 0 {
		t.Fatalf("expired request reported no queue wait (%v)", wait)
	}
	if got := g.queued.Load(); got != 0 {
		t.Fatalf("queued after expiry = %d, want 0", got)
	}
	g.release()
}

// TestGateCanceledWhileQueued: a queued request whose client goes away
// is shed as canceled, not as an expired deadline.
func TestGateCanceledWhileQueued(t *testing.T) {
	g := newClassGate("read", 1, 8)
	if _, reason := g.acquire(context.Background()); reason != shedNone {
		t.Fatalf("first acquire shed: %v", reason)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	done := make(chan shedReason)
	go func() {
		_, reason := g.acquire(ctx)
		done <- reason
	}()
	waitForInt64(t, g.queued.Load, 1)
	cancel()
	if reason := <-done; reason != shedCanceled {
		t.Fatalf("reason = %v, want canceled", reason)
	}
	if got := g.shed[shedCanceled-1].Load(); got != 1 {
		t.Fatalf("shed[canceled] = %d, want 1", got)
	}
	if got := g.shed[shedExpired-1].Load(); got != 0 {
		t.Fatalf("shed[expired] = %d after a cancel, want 0", got)
	}
	if got := g.queued.Load(); got != 0 {
		t.Fatalf("queued after cancel = %d, want 0", got)
	}
	g.release()
}

func waitForInt64(t *testing.T, load func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for counter to reach %d (at %d)", want, load())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// ---- server-level admission tests -----------------------------------------

func TestAdmissionDisabled(t *testing.T) {
	s := testServer(t, func(c *Config) { c.MaxInflight = -1 })
	if s.adm != nil {
		t.Fatal("MaxInflight < 0 should disable admission")
	}
	var resp rangeResponse
	w := do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if st := getStats(t, s.Handler()); st.has("admission") {
		t.Fatal("/v1/stats has an admission section with admission disabled")
	}
	m := scrapeMetrics(t, s.Handler())
	for series := range m {
		if strings.HasPrefix(series, "twolayer_admission_") {
			t.Fatalf("admission metric %q exported with admission disabled", series)
		}
	}
}

func TestAdmissionStatsAndMetrics(t *testing.T) {
	s := testServer(t, nil) // default-on admission
	var resp rangeResponse
	w := do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`, &resp)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	st := getStats(t, s.Handler())
	if !st.has("admission") {
		t.Fatal("/v1/stats is missing the admission section")
	}
	for _, name := range classNames {
		if !st.has("admission.admitted_total." + name) {
			t.Fatalf("admission section is missing class %q", name)
		}
		if got := st.num(t, "admission.max_inflight."+name); got <= 0 {
			t.Fatalf("class %q max_inflight = %g, want > 0", name, got)
		}
	}
	if got := st.num(t, "admission.admitted_total.read"); got < 1 {
		t.Fatalf("read admitted_total = %g, want >= 1", got)
	}
	m := scrapeMetrics(t, s.Handler())
	if v := m[`twolayer_admission_admitted_total{class="read"}`]; v < 1 {
		t.Fatalf("admitted_total{read} = %v, want >= 1", v)
	}
	if v := m[`twolayer_admission_queue_wait_seconds_count{class="read"}`]; v < 1 {
		t.Fatalf("queue_wait_seconds_count{read} = %v, want >= 1", v)
	}
	if v := m[`twolayer_admission_shed_total{class="read",reason="queue_full"}`]; v != 0 {
		t.Fatalf("shed_total{read,queue_full} = %v, want 0", v)
	}
}

func TestAdmissionTraceQueueWait(t *testing.T) {
	s := testServer(t, nil)
	var resp rangeResponse
	do(t, s.Handler(), "POST", "/v1/window",
		`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1},"trace":true}`, &resp)
	if resp.Trace == nil {
		t.Fatal("no trace in response")
	}
	// Uncontended fast path: zero queue wait (and the field is omitted).
	if resp.Trace.QueueWaitUS != 0 {
		t.Fatalf("queue_wait_us = %d on an idle server, want 0", resp.Trace.QueueWaitUS)
	}
}

// TestBatchValidatedBeforeAdmission: a batch with a malformed element is
// rejected naming the element, before it takes a batch slot.
func TestBatchValidatedBeforeAdmission(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	admitted := func() float64 {
		return getStats(t, h).num(t, "admission.admitted_total.batch")
	}
	for _, c := range []struct{ body, want string }{
		{`{"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1},{"min_x":1,"min_y":0,"max_x":0,"max_y":1}]}`, "windows[1]"},
		{`{"disks":[{"center":{"x":0,"y":0},"radius":1},{"center":{"x":0,"y":0},"radius":1},{"center":{"x":0,"y":0},"radius":-1}]}`, "disks[2]"},
	} {
		w := do(t, h, "POST", "/v1/batch", c.body, nil)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), c.want) {
			t.Errorf("status %d body %s, want 400 naming %s", w.Code, w.Body.String(), c.want)
		}
	}
	if got := admitted(); got != 0 {
		t.Errorf("batch admitted_total = %g after two rejected batches, want 0", got)
	}
	do(t, h, "POST", "/v1/batch", `{"windows":[{"min_x":0,"min_y":0,"max_x":1,"max_y":1}]}`, nil)
	if got := admitted(); got != 1 {
		t.Errorf("batch admitted_total = %g after one valid batch, want 1", got)
	}
}

// TestOverloadShedding is the overload regression: with the read class
// pinned at 4 in-flight slots and an 8-deep queue, 64 concurrent window
// queries must split into 8 admitted completions and 56 prompt 429s
// carrying Retry-After: 1 — no hangs, no goroutine leaks, and the shed /
// queue-wait metrics must move. The test holds all 4 slots itself so the
// split is deterministic.
func TestOverloadShedding(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := testServer(t, func(c *Config) {
		c.MaxInflight = 4
		c.QueueDepth = 8
	})
	h := s.Handler()
	g := s.adm.gate(classRead)

	// Occupy every read slot so all 64 requests contend.
	for i := 0; i < 4; i++ {
		if _, reason := g.acquire(context.Background()); reason != shedNone {
			t.Fatalf("slot %d acquire shed: %v", i, reason)
		}
	}

	const n = 64
	codes := make(chan *httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/window",
				strings.NewReader(`{"window":{"min_x":0,"min_y":0,"max_x":1,"max_y":1}}`))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			codes <- w
		}()
	}

	// Exactly 8 requests fit the queue; the other 56 shed promptly.
	waitForInt64(t, g.queued.Load, 8)
	waitForInt64(t, func() int64 { return int64(g.shed[shedQueueFull-1].Load()) }, n-8)

	// Hand the slots back; the 8 queued requests drain and complete.
	for i := 0; i < 4; i++ {
		g.release()
	}
	wg.Wait()
	close(codes)

	ok, shed := 0, 0
	for w := range codes {
		switch w.Code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if got := w.Header().Get("Retry-After"); got != "1" {
				t.Errorf("429 response has Retry-After %q, want 1", got)
			}
		default:
			t.Errorf("unexpected status %d: %s", w.Code, w.Body.String())
		}
	}
	if ok != 8 || shed != n-8 {
		t.Fatalf("got %d admitted / %d shed, want 8 / %d", ok, shed, n-8)
	}

	m := scrapeMetrics(t, h)
	if v := m[`twolayer_admission_shed_total{class="read",reason="queue_full"}`]; v != n-8 {
		t.Fatalf("shed_total{read,queue_full} = %v, want %d", v, n-8)
	}
	if v := m[`twolayer_admission_queue_wait_seconds_count{class="read"}`]; v != 8 {
		t.Fatalf("queue_wait_seconds_count{read} = %v, want 8 (one per admitted request)", v)
	}
	if v := m[`twolayer_admission_queue_wait_seconds_sum{class="read"}`]; v <= 0 {
		t.Fatalf("queue_wait_seconds_sum{read} = %v, want > 0 (every admission waited)", v)
	}
	if v := m[`twolayer_admission_inflight{class="read"}`]; v != 0 {
		t.Fatalf("inflight{read} = %v after drain, want 0", v)
	}
	if v := m[`twolayer_admission_queued{class="read"}`]; v != 0 {
		t.Fatalf("queued{read} = %v after drain, want 0", v)
	}

	// Every handler goroutine must have exited: shed requests return
	// without queuing work, admitted ones release their slot.
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until the goroutine count returns to within a
// small slack of the baseline (runtime bookkeeping goroutines come and
// go), failing after 5s.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not return to baseline: %d > %d+3\n%s",
				n, baseline, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBacklogRejection drives a live server's apply backlog with
// concurrent writers against a MaxBacklog of 1 and checks the
// 503 + Retry-After mapping plus the /stats backlog section. (The
// deterministic core-level rejection semantics are covered in
// internal/core; here the subject is the HTTP mapping.)
func TestBacklogRejection(t *testing.T) {
	l := emptyLive(16, twolayer.LiveOptions{MaxBacklog: 1})
	t.Cleanup(l.Close)
	s := New(Config{
		ShardedLive: l,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	h := s.Handler()

	// Concurrent inserters: each blocks until its batch publishes, so
	// while any publish is in flight, pending >= 1 and a concurrent
	// submission trips the bound.
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	var rejected, badBody, noRetryAfter, unexpected atomic.Int32
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := fmt.Sprintf(
					`{"id":%d,"mbr":{"min_x":0.1,"min_y":0.1,"max_x":0.2,"max_y":0.2}}`,
					1000+wk*perWorker+i)
				req := httptest.NewRequest("POST", "/v1/insert", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				switch w.Code {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					rejected.Add(1)
					if w.Header().Get("Retry-After") == "" {
						noRetryAfter.Add(1)
					}
					if !strings.Contains(w.Body.String(), "backlog") {
						badBody.Add(1)
					}
				default:
					unexpected.Add(1)
				}
			}
		}(wk)
	}
	wg.Wait()
	if unexpected.Load() != 0 {
		t.Fatalf("%d responses were neither 200 nor 503", unexpected.Load())
	}
	if noRetryAfter.Load() != 0 {
		t.Fatalf("%d backlog 503s were missing the Retry-After header", noRetryAfter.Load())
	}
	if badBody.Load() != 0 {
		t.Fatalf("%d backlog 503s did not mention the backlog", badBody.Load())
	}

	st := getStats(t, h)
	if !st.has("admission.backlog") {
		t.Fatal("/v1/stats is missing the admission backlog on a live server")
	}
	if got := st.num(t, "admission.backlog_limit"); got != 1 {
		t.Fatalf("backlog limit = %g, want 1", got)
	}
	if r := rejected.Load(); r > 0 {
		if st.num(t, "admission.backlog_rejected_total") == 0 {
			t.Fatalf("%d 503s were served but rejected_total is 0", r)
		}
	} else {
		// 320 concurrent blocking writers against a backlog of 1 should
		// trip the bound; if the apply loop somehow outran them all, the
		// mapping went untested — flag it rather than silently pass.
		t.Log("warning: backlog never filled; 503 mapping not exercised in this run")
	}
}
