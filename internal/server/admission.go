package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"
)

// Admission control: the server's overload valve. Every query and
// mutation endpoint passes through a per-class gate before it starts
// evaluating, so a traffic spike turns into prompt, cheap rejections
// (429 + Retry-After) instead of an unbounded pile of concurrent
// evaluations fighting over the same cores.
//
// Requests fall into three endpoint classes, each with its own
// in-flight semaphore and bounded FIFO wait queue:
//
//   - read:   /v1/window, /v1/disk, /v1/knn
//   - mutate: /v1/insert, /v1/delete, /v1/bulk, /v1/checkpoint
//   - batch:  /v1/batch (a single batch is worth thousands of reads, so
//     it must not share the read class's slots)
//
// A request that finds a free slot is admitted immediately (one failed
// channel receive — the uncontended fast path costs a few atomics).
// Otherwise it joins the class's wait queue, bounded by QueueDepth:
// beyond the bound the request is shed at once with 429. A queued
// request waits until a slot frees or its context ends: a request
// deadline that expires in the queue answers 503 (the timeout status),
// and so does a client that goes away, counted apart as "canceled".
// Every shed carries Retry-After: 1.
// /metrics, its JSON rendering /v1/stats, and /healthz bypass admission
// entirely: the observability surface must stay reachable on an
// overloaded node.
//
// Mutation backpressure is the second half of the valve: the apply
// backlog bound (twolayer.LiveOptions.MaxBacklog, per engine: one apply
// loop at any shard count) rejects submissions with ErrBacklogFull once the
// accepted-but-unpublished mutation count reaches the bound, which the
// mutation handlers map to 503 + Retry-After. The mutate gate bounds
// concurrent mutation *requests*; MaxBacklog bounds queued *mutations* —
// together they cap the memory an update flood can pin.

// admissionClass selects a gate.
type admissionClass int

const (
	classRead admissionClass = iota
	classMutate
	classBatch
	numClasses
)

// classNames are the class label values of the twolayer_admission_*
// metric group (and so the keys under admission.<field> in /v1/stats).
var classNames = [numClasses]string{"read", "mutate", "batch"}

// shedReason reports why acquire did not admit a request.
type shedReason int

const (
	shedNone      shedReason = iota
	shedQueueFull            // wait queue at QueueDepth
	shedExpired              // deadline expired while queued
	shedCanceled             // client went away while queued
)

// numShedReasons counts the real shed reasons (shedNone excluded).
const numShedReasons = 3

// shedReasonNames are the reason label values of
// twolayer_admission_shed_total.
var shedReasonNames = [numShedReasons]string{"queue_full", "expired", "canceled"}

func (r shedReason) String() string { return shedReasonNames[r-1] }

// retryAfterSeconds is the Retry-After header of every shed — a full
// queue, a deadline expired while queued, a full mutation backlog: long
// enough for the slots (or the apply loop) to turn over.
const retryAfterSeconds = "1"

// defaultQueueFactor sizes the default wait queue as a multiple of the
// in-flight limit, used when Config leaves QueueDepth 0.
const defaultQueueFactor = 8

// defaultMaxInflight is the per-class in-flight limit when Config
// leaves MaxInflight 0: enough concurrency to saturate the cores with
// headroom for skew, but finite.
func defaultMaxInflight() int {
	return max(16, 4*runtime.GOMAXPROCS(0))
}

// classGate is one endpoint class's admission state: a token-channel
// semaphore (capacity = in-flight limit; receiving a token admits),
// occupancy counters, and outcome counters, which the
// twolayer_admission_* families read.
// Goroutines blocked on the token channel are served in arrival order
// by the runtime, and a released token is handed to the oldest waiter
// before it can land in the buffer, so the wait queue is FIFO whenever
// there is a queue.
type classGate struct {
	name        string
	maxInflight int
	queueDepth  int

	slots    chan struct{}
	inflight atomic.Int64
	queued   atomic.Int64

	admitted atomic.Uint64
	shed     [numShedReasons]atomic.Uint64
}

func newClassGate(name string, maxInflight, queueDepth int) *classGate {
	g := &classGate{
		name:        name,
		maxInflight: maxInflight,
		queueDepth:  queueDepth,
		slots:       make(chan struct{}, maxInflight),
	}
	for i := 0; i < maxInflight; i++ {
		g.slots <- struct{}{}
	}
	return g
}

// admission is the per-server gate set; nil means admission control is
// disabled (Config.MaxInflight < 0).
type admission struct {
	gates [numClasses]*classGate
}

// newAdmission resolves the configured limits. maxInflight and
// queueDepth apply to each class independently; queueDepth < 0 means no
// queue (immediate shed at saturation).
func newAdmission(maxInflight, queueDepth int) *admission {
	if maxInflight == 0 {
		maxInflight = defaultMaxInflight()
	}
	if queueDepth == 0 {
		queueDepth = defaultQueueFactor * maxInflight
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	a := &admission{}
	for c := admissionClass(0); c < numClasses; c++ {
		a.gates[c] = newClassGate(classNames[c], maxInflight, queueDepth)
	}
	return a
}

func (a *admission) gate(c admissionClass) *classGate {
	if a == nil {
		return nil
	}
	return a.gates[c]
}

// acquire admits the request (reason shedNone) or reports why it was
// shed. wait is the time spent queued.
func (g *classGate) acquire(ctx context.Context) (wait time.Duration, reason shedReason) {
	select {
	case <-g.slots:
		g.inflight.Add(1)
		g.admitted.Add(1)
		return 0, shedNone
	default:
	}

	if g.queued.Add(1) > int64(g.queueDepth) {
		g.queued.Add(-1)
		g.shed[shedQueueFull-1].Add(1)
		return 0, shedQueueFull
	}
	start := time.Now()
	select {
	case <-g.slots:
		g.queued.Add(-1)
		g.inflight.Add(1)
		g.admitted.Add(1)
		return time.Since(start), shedNone
	case <-ctx.Done():
		g.queued.Add(-1)
		reason = shedExpired
		if errors.Is(ctx.Err(), context.Canceled) {
			reason = shedCanceled
		}
		g.shed[reason-1].Add(1)
		return time.Since(start), reason
	}
}

// release returns the slot.
func (g *classGate) release() {
	g.inflight.Add(-1)
	g.slots <- struct{}{}
}

// admit gates one request through class c. On admission it returns
// release (call exactly once when the request finishes) and the queue
// wait for the trace span. On shedding it writes the whole 429/503
// response with its Retry-After, records the outcome, and returns
// ok=false.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, c admissionClass) (release func(), wait time.Duration, ok bool) {
	g := s.adm.gate(c)
	if g == nil {
		return func() {}, 0, true
	}
	wait, reason := g.acquire(ctx)
	if reason != shedQueueFull {
		s.metrics.admQueueWait.With(g.name).Observe(wait.Seconds())
	}
	if reason == shedNone {
		return g.release, wait, true
	}
	w.Header().Set("Retry-After", retryAfterSeconds)
	switch reason {
	case shedQueueFull:
		writeError(w, http.StatusTooManyRequests, "server overloaded: admission queue is full")
	case shedExpired:
		writeError(w, http.StatusServiceUnavailable, "deadline expired while queued for admission")
	case shedCanceled:
		writeError(w, http.StatusServiceUnavailable, "request canceled while queued for admission")
	}
	return nil, wait, false
}
