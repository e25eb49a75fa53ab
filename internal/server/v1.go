package server

import (
	"math"
	"net/http"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// The /v1 range endpoints (POST /v1/window, POST /v1/disk) share one
// request envelope mirroring twolayer.Query: a shape, an optional exact
// refinement with a selectable mode, and count/limit/trace controls.
// Their semantics are uniform: a limit stops the evaluation (count ==
// len(results), truncated=true when more matches existed), and
// count_only counts everything, ignoring the limit. See
// docs/SERVER.md#post-v1window-and-v1disk.

// diskJSON is the disk shape of the envelope.
type diskJSON struct {
	Center pointJSON `json:"center"`
	Radius float64   `json:"radius"`
}

// queryEnvelope is the unified /v1 range-query request body.
type queryEnvelope struct {
	// Exactly one of Window and Disk must be set, matching the endpoint
	// (window on /v1/window, disk on /v1/disk).
	Window *rectJSON `json:"window,omitempty"`
	Disk   *diskJSON `json:"disk,omitempty"`
	// Exact refines candidates against the exact geometries; Mode picks
	// the refinement strategy: "avoid_plus" (default), "avoid", "simple".
	Exact bool   `json:"exact"`
	Mode  string `json:"mode"`
	// CountOnly returns only the match count; the limit is ignored.
	// Non-exact window counts are answered by the O(tiles) count
	// pushdown instead of a streamed scan.
	CountOnly bool `json:"count_only"`
	// Limit caps the results (0 = server default, DefaultResultLimit).
	Limit int `json:"limit"`
	// Trace attaches the per-query trace to the response.
	Trace bool `json:"trace"`
	// Estimate (window endpoint only) additionally returns the planner's
	// O(tiles) cardinality estimate in the "estimate" response field.
	// The estimate sums class-A tile histograms, so it skews low for
	// heavily replicated data; see docs/SERVER.md#post-v1window-and-v1disk.
	Estimate bool `json:"estimate"`
}

// parseRefineMode maps the envelope's mode string to a RefineMode.
func parseRefineMode(mode string) (twolayer.RefineMode, bool) {
	switch mode {
	case "", "avoid_plus":
		return twolayer.RefineAvoidPlus, true
	case "avoid":
		return twolayer.RefineAvoid, true
	case "simple":
		return twolayer.RefineSimple, true
	default:
		return 0, false
	}
}

// decodeEnvelope decodes and validates a /v1 range request. kind is
// "window" or "disk" and pins which shape the endpoint accepts. On
// failure the error response has been written and ok is false.
func (s *Server) decodeEnvelope(w http.ResponseWriter, r *http.Request, kind string) (env queryEnvelope, q twolayer.Query, limit int, ok bool) {
	if !decodeRequest(w, r, &env, scanEnvelope) {
		return env, q, 0, false
	}
	switch kind {
	case "window":
		if env.Window == nil || env.Disk != nil {
			writeError(w, http.StatusBadRequest, `/v1/window requires the "window" shape (and no "disk")`)
			return env, q, 0, false
		}
		if msg := env.Window.validate(); msg != "" {
			writeError(w, http.StatusBadRequest, msg)
			return env, q, 0, false
		}
		rect := env.Window.toRect()
		q.Window = &rect
	case "disk":
		if env.Disk == nil || env.Window != nil {
			writeError(w, http.StatusBadRequest, `/v1/disk requires the "disk" shape (and no "window")`)
			return env, q, 0, false
		}
		if env.Estimate {
			writeError(w, http.StatusBadRequest, `"estimate" is only available on /v1/window`)
			return env, q, 0, false
		}
		if msg := env.Disk.Center.validate(); msg != "" {
			writeError(w, http.StatusBadRequest, msg)
			return env, q, 0, false
		}
		if math.IsNaN(env.Disk.Radius) || math.IsInf(env.Disk.Radius, 0) || env.Disk.Radius < 0 {
			writeError(w, http.StatusBadRequest, "radius must be finite and >= 0")
			return env, q, 0, false
		}
		q.Disk = &twolayer.Disk{
			Center: twolayer.Point{X: env.Disk.Center.X, Y: env.Disk.Center.Y},
			Radius: env.Disk.Radius,
		}
	}
	mode, modeOK := parseRefineMode(env.Mode)
	if !modeOK {
		writeError(w, http.StatusBadRequest, `mode must be "avoid_plus", "avoid" or "simple"`)
		return env, q, 0, false
	}
	limit, limOK := clampLimit(env.Limit)
	if !limOK {
		writeError(w, http.StatusBadRequest, "limit must be >= 0")
		return env, q, 0, false
	}
	q.Exact = env.Exact
	q.Mode = mode
	if env.Exact && !s.requireExactable(w) {
		return env, q, 0, false
	}
	return env, q, limit, true
}

func (s *Server) handleV1Window(w http.ResponseWriter, r *http.Request) {
	s.handleV1Range(w, r, "window")
}

func (s *Server) handleV1Disk(w http.ResponseWriter, r *http.Request) {
	s.handleV1Range(w, r, "disk")
}

// handleV1Range evaluates a /v1 window or disk query with the unified
// semantics: the limit folds into the descriptor (the engine stops
// delivering once it is reached and reports the query incomplete), and
// count_only answers without buffering — non-exact counts go through the
// engine's count pushdown (SearchCount), which never materializes the
// result stream at all. Cancellation is cooperative every
// ctxPollInterval results on the streaming paths; the pushdown path is
// O(tiles) and only checks the deadline before starting.
func (s *Server) handleV1Range(w http.ResponseWriter, r *http.Request, kind string) {
	env, q, limit, ok := s.decodeEnvelope(w, r, kind)
	if !ok {
		return
	}
	ctx := r.Context()
	// Admission: the cost hint is the planner's cardinality estimate —
	// the full window (or the disk's bounding box) for streaming
	// evaluations, a token cost for count-only non-exact windows, which
	// the O(perimeter) pushdown answers without touching entries. Under
	// load the gate sheds the expensive streams first and keeps the
	// cheap counts flowing.
	pushdown := env.CountOnly && !q.Exact
	release, queueWait, admitted := s.admit(ctx, w, classRead, func() float64 {
		if q.Window != nil && pushdown {
			return 1
		}
		est := s.eng.pin().EstimateWindow(costRect(q))
		if !env.CountOnly {
			// The limit caps delivery, so it caps the cost too.
			return minf(est, float64(limit))
		}
		return est
	})
	if !admitted {
		return
	}
	defer release()
	view, end := s.beginQuery(w, r, kind, env.Trace)
	if ctx.Err() != nil {
		writeTimeout(w)
		return
	}
	var ans rangeAnswer
	if env.Estimate {
		est := s.eng.pin().EstimateWindow(*q.Window)
		ans.estimate = &est
	}
	start := time.Now()

	switch {
	case pushdown:
		n, err := view.SearchCount(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		ans.count = n
	case env.CountOnly:
		// Exact counts still stream: refinement is per-candidate work, so
		// the deadline poll has to stay inside the loop.
		interrupted := false
		seen := 0
		_, err := view.Search(q, func(twolayer.ID, twolayer.Rect) bool {
			seen++
			if seen%ctxPollInterval == 0 && ctx.Err() != nil {
				interrupted = true
				return false
			}
			return true
		})
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if interrupted {
			writeTimeout(w)
			return
		}
		ans.count = seen
	default:
		q.Limit = limit
		hits := hitPool.Get().(*[]hit)
		defer func() {
			*hits = (*hits)[:0]
			hitPool.Put(hits)
		}()
		results := (*hits)[:0]
		interrupted := false
		complete, err := view.Search(q, func(id twolayer.ID, mbr twolayer.Rect) bool {
			results = append(results, hit{id, mbr})
			if len(results)%ctxPollInterval == 0 && ctx.Err() != nil {
				interrupted = true
				return false
			}
			return true
		})
		*hits = results
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if interrupted {
			writeTimeout(w)
			return
		}
		ans.count = len(results)
		ans.results = results
		ans.withMBR = !q.Exact
		ans.truncated = !complete
	}
	ans.elapsedUS = time.Since(start).Microseconds()
	ans.trace = end.finish()
	if ans.trace != nil {
		ans.trace.QueueWaitUS = queueWait.Microseconds()
	}
	buf := getBuf()
	defer putBuf(buf)
	body, err := appendRange((*buf)[:0], &ans)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	*buf = body
	writeBody(w, http.StatusOK, body)
}
