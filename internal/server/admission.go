package server

import (
	"context"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	twolayer "github.com/twolayer/twolayer"
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
// beyond the bound the request is shed at once. While joining, the gate
// predicts the request's queue wait from an EWMA of observed service
// times and the queue position; if the caller's remaining deadline
// cannot cover the predicted wait plus the request's own predicted
// service time, the request is shed immediately — there is no point
// queuing work that is guaranteed to time out. The prediction scales
// with a per-request cost hint (the planner's EstimateWindow cardinality
// for window queries), which is what makes degradation graceful rather
// than a cliff: under load, expensive windows exhaust their deadline
// budget first and get shed, while cheap count/estimate queries — whose
// predicted service time is a fraction of the EWMA — keep flowing.
//
// Shedding answers 429 Too Many Requests with a Retry-After hint derived
// from the same prediction. A request whose deadline expires while it is
// queued answers 503 (the existing timeout status) with Retry-After.
// /v1/stats, /healthz, and /metrics bypass admission entirely: the
// observability surface must stay reachable on an overloaded node.
//
// Mutation backpressure is the second half of the valve: the apply
// backlog bound (twolayer.LiveOptions.MaxBacklog, enforced per shard on
// a sharded engine) rejects submissions with ErrBacklogFull once the
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

// classNames are the label values of the twolayer_admission_* metric
// group and the keys of the /v1/stats "admission" section.
var classNames = [numClasses]string{"read", "mutate", "batch"}

// shedReason reports why acquire did not admit a request.
type shedReason int

const (
	shedNone      shedReason = iota
	shedQueueFull            // wait queue at QueueDepth
	shedDeadline             // predicted wait exceeds the remaining deadline
	shedExpired              // deadline expired while queued
)

// numShedReasons counts the real shed reasons (shedNone excluded).
const numShedReasons = 3

// shedReasonNames are the reason label values of
// twolayer_admission_shed_total.
var shedReasonNames = [numShedReasons]string{"queue_full", "deadline", "expired"}

func (r shedReason) String() string { return shedReasonNames[r-1] }

// Admission defaults, used when the corresponding Config field is 0.
const (
	// defaultQueueFactor sizes the default wait queue as a multiple of
	// the in-flight limit.
	defaultQueueFactor = 8
	// ewmaShift is the EWMA decay: new = old + (sample-old)/2^ewmaShift.
	ewmaShift = 3
	// costWeightMax clamps how far a cost hint can scale the predicted
	// service time away from the class EWMA, in either direction.
	costWeightMax = 16.0
)

// defaultMaxInflight is the per-class in-flight limit when Config
// leaves MaxInflight 0: enough concurrency to saturate the cores with
// headroom for skew, but finite.
func defaultMaxInflight() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 16 {
		n = 16
	}
	return n
}

// classGate is one endpoint class's admission state: a token-channel
// semaphore (capacity = in-flight limit; receiving a token admits),
// occupancy counters, outcome counters for /v1/stats and /metrics, and the
// EWMAs behind the wait prediction. Goroutines blocked on the token
// channel are served in arrival order by the runtime, and a released
// token is handed to the oldest waiter before it can land in the buffer,
// so the wait queue is FIFO whenever there is a queue.
type classGate struct {
	name        string
	maxInflight int
	queueDepth  int

	slots    chan struct{}
	inflight atomic.Int64
	queued   atomic.Int64

	admitted atomic.Uint64
	shed     [numShedReasons]atomic.Uint64

	// ewmaServiceNS tracks observed service time; ewmaCost tracks the
	// cost hints (float64 bits) of requests that supplied one. Their
	// ratio converts a hint into a service-time weight.
	ewmaServiceNS atomic.Int64
	ewmaCost      atomic.Uint64
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

// costWeight converts a cost hint into a multiplier on the class's EWMA
// service time. Unknown costs (<= 0), or a class with no cost history
// yet, predict exactly the EWMA.
func (g *classGate) costWeight(cost float64) float64 {
	if cost <= 0 {
		return 1
	}
	mean := math.Float64frombits(g.ewmaCost.Load())
	if mean <= 0 {
		return 1
	}
	w := cost / mean
	if w < 1/costWeightMax {
		return 1 / costWeightMax
	}
	if w > costWeightMax {
		return costWeightMax
	}
	return w
}

// predictWait estimates how long a request at queue position pos
// (1-based, counting itself) waits for a slot, plus how long its own
// evaluation will take. With no service history yet both terms are 0 —
// the gate starts optimistic and learns from completions.
func (g *classGate) predictWait(pos int64, cost float64) time.Duration {
	svc := g.ewmaServiceNS.Load()
	if svc <= 0 {
		return 0
	}
	slotWait := svc * pos / int64(g.maxInflight)
	mine := int64(float64(svc) * g.costWeight(cost))
	return time.Duration(slotWait + mine)
}

// retryAfter converts a predicted wait into a Retry-After value in
// whole seconds, at least 1.
func retryAfter(wait time.Duration) int {
	sec := int((wait + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// acquire admits the request (reason shedNone) or reports why it was
// shed. wait is the time spent queued; hint is the Retry-After estimate
// for shed outcomes. cost is evaluated lazily — only a request that
// misses the fast path pays for its cost estimate.
func (g *classGate) acquire(ctx context.Context, cost func() float64) (wait time.Duration, hint time.Duration, reason shedReason) {
	select {
	case <-g.slots:
		g.inflight.Add(1)
		g.admitted.Add(1)
		return 0, 0, shedNone
	default:
	}

	c := 0.0
	if cost != nil {
		c = cost()
	}
	pos := g.queued.Add(1)
	if pos > int64(g.queueDepth) {
		g.queued.Add(-1)
		g.shed[shedQueueFull-1].Add(1)
		// The queue is full: the earliest a retry can help is after the
		// whole queue ahead has drained.
		return 0, g.predictWait(int64(g.queueDepth), c), shedQueueFull
	}
	need := g.predictWait(pos, c)
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < need {
		g.queued.Add(-1)
		g.shed[shedDeadline-1].Add(1)
		return 0, need, shedDeadline
	}

	start := time.Now()
	select {
	case <-g.slots:
		g.queued.Add(-1)
		g.inflight.Add(1)
		g.admitted.Add(1)
		return time.Since(start), 0, shedNone
	case <-ctx.Done():
		g.queued.Add(-1)
		g.shed[shedExpired-1].Add(1)
		return time.Since(start), need, shedExpired
	}
}

// release returns the slot and folds the observed service time (and the
// request's cost hint, if it carried one) into the prediction EWMAs.
func (g *classGate) release(service time.Duration, cost float64) {
	g.inflight.Add(-1)
	g.slots <- struct{}{}

	sample := service.Nanoseconds()
	for {
		old := g.ewmaServiceNS.Load()
		next := sample
		if old > 0 {
			next = old + (sample-old)>>ewmaShift
		}
		if g.ewmaServiceNS.CompareAndSwap(old, next) {
			break
		}
	}
	if cost > 0 {
		for {
			oldBits := g.ewmaCost.Load()
			old := math.Float64frombits(oldBits)
			next := cost
			if old > 0 {
				next = old + (cost-old)/(1<<ewmaShift)
			}
			if g.ewmaCost.CompareAndSwap(oldBits, math.Float64bits(next)) {
				break
			}
		}
	}
}

// costRect returns the rectangle whose cardinality estimate prices a
// range query for admission: the window itself, or the disk's bounding
// box (an upper bound on the disk's cover, which is what the scan pays
// for).
func costRect(q twolayer.Query) twolayer.Rect {
	if q.Window != nil {
		return *q.Window
	}
	d := q.Disk
	return twolayer.Rect{
		MinX: d.Center.X - d.Radius, MinY: d.Center.Y - d.Radius,
		MaxX: d.Center.X + d.Radius, MaxY: d.Center.Y + d.Radius,
	}
}

// admit gates one request through class c. On admission it returns
// release (call exactly once when the request finishes) and the queue
// wait for the trace span. On shedding it writes the whole 429/503
// response — including the Retry-After hint — records the outcome, and
// returns ok=false.
//
// cost, when non-nil, estimates the request's result cardinality
// relative to its class (EstimateWindow for window queries); it is only
// invoked when the class is saturated.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, c admissionClass, cost func() float64) (release func(), wait time.Duration, ok bool) {
	g := s.adm.gate(c)
	if g == nil {
		return func() {}, 0, true
	}
	costVal := 0.0
	wrapped := func() float64 {
		if cost != nil {
			costVal = cost()
		}
		return costVal
	}
	wait, hint, reason := g.acquire(ctx, wrapped)
	switch reason {
	case shedNone:
		s.metrics.admQueueWait.With(g.name).Observe(wait.Seconds())
		start := time.Now()
		return func() { g.release(time.Since(start), costVal) }, wait, true
	case shedExpired:
		s.metrics.admQueueWait.With(g.name).Observe(wait.Seconds())
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter(hint)))
		writeError(w, http.StatusServiceUnavailable,
			"deadline expired while queued for admission")
	default: // shedQueueFull, shedDeadline
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter(hint)))
		msg := "server overloaded: admission queue is full"
		if reason == shedDeadline {
			msg = "server overloaded: remaining deadline cannot cover the predicted queue wait"
		}
		writeError(w, http.StatusTooManyRequests, msg)
	}
	return nil, wait, false
}
