package core

import "time"

// Trace is the per-query observability record: the full Stats counter
// set plus wall-clock stage timings. It is opt-in and allocation-lean —
// a traced query carries exactly one Trace for its whole evaluation,
// attached through ViewTraced. Its counters come from the same per-query
// tally every query keeps (see Stats), so a traced query runs the very
// kernels an untraced one runs; the only work a trace adds is reading
// the clock around each exact-geometry refinement test.
//
// The embedded counters record the filtering work the paper's lemmas
// minimize (tiles visited, per-class entries examined, comparisons,
// duplicates avoided wholesale); RefineNS additionally separates the
// wall time spent inside exact-geometry refinement tests from the
// filtering scan, so a slow exact query can be attributed to the filter
// step (grid/partition shape) or to the refinement step (geometry
// complexity). ElapsedNS is the whole evaluation, stamped by Finish.
type Trace struct {
	Stats

	// Kind names the query type ("window", "disk", "knn", "join", ...);
	// set by the caller that starts the trace.
	Kind string
	// ElapsedNS is the total evaluation wall time, set by Finish.
	ElapsedNS int64
	// RefineNS is the wall time spent in exact-geometry refinement tests
	// (exact Search and SearchCount, KNNExact). Zero for filter-only queries.
	RefineNS int64
}

// Finish stamps the total elapsed time from the given start.
func (t *Trace) Finish(start time.Time) { t.ElapsedNS = time.Since(start).Nanoseconds() }

// Elapsed returns the total evaluation time.
func (t *Trace) Elapsed() time.Duration { return time.Duration(t.ElapsedNS) }

// FilterNS returns the wall time attributed to the filtering step: the
// total minus the refinement share.
func (t *Trace) FilterNS() int64 {
	if f := t.ElapsedNS - t.RefineNS; f > 0 {
		return f
	}
	return 0
}

// Reset zeroes the trace for reuse.
func (t *Trace) Reset() { *t = Trace{} }

// ViewTraced returns a read view like View whose queries accumulate both
// counters and stage timings into tr. Like stats views, any number of
// traced views can run concurrently as long as each has a private Trace.
func (ix *Index) ViewTraced(tr *Trace) *Index {
	cp := ix.View(&tr.Stats)
	cp.trace = tr
	return cp
}
