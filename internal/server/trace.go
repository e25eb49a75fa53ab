package server

import (
	"fmt"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// searcher is the query surface one request (a single query or a batch)
// evaluates on: a pinned *twolayer.Sharded snapshot, or a traced view of
// one (*twolayer.ShardedView).
type searcher interface {
	Search(q twolayer.Query, fn func(id twolayer.ID, mbr twolayer.Rect) bool) (bool, error)
	SearchCount(q twolayer.Query) (int, error)
	KNN(q twolayer.Point, k int) []twolayer.Neighbor
	KNNExact(q twolayer.Point, k int) []twolayer.Neighbor
	BatchWindowCounts(queries []twolayer.Rect, strategy twolayer.BatchStrategy, threads int) []int
	BatchDiskCounts(queries []twolayer.Disk, strategy twolayer.BatchStrategy, threads int) []int
}

// requestTrace is one finished traced evaluation: the request's counters
// and refinement time, summed over the spans of the shards it ran on,
// and the spans themselves.
type requestTrace struct {
	twolayer.Trace
	spans []twolayer.ShardSpan
}

func newRequestTrace(kind string, elapsed time.Duration, spans []twolayer.ShardSpan) *requestTrace {
	tr := &requestTrace{spans: spans}
	tr.Kind, tr.ElapsedNS = kind, elapsed.Nanoseconds()
	for i := range spans {
		tr.Stats.Add(&spans[i].Stats)
		tr.RefineNS += spans[i].RefineNS
	}
	return tr
}

// slowAttrs are the slow-query log fields describing the evaluation.
func (t *requestTrace) slowAttrs() []any {
	return []any{
		"elapsed_us", t.ElapsedNS / 1000,
		"filter_us", t.FilterNS() / 1000,
		"refine_us", t.RefineNS / 1000,
		"tiles_visited", t.TilesVisited,
		"entries_scanned", t.EntriesScanned,
		"comparisons", t.Comparisons,
		"refinement_tests", t.RefinementTests,
		"results", t.Results,
		"shards_scanned", len(t.spans),
	}
}

// header is the compact X-Trace response header value.
func (t *requestTrace) header() string {
	return fmt.Sprintf(
		"kind=%s elapsed_us=%d filter_us=%d refine_us=%d tiles=%d entries=%d results=%d shards=%d",
		t.Kind, t.ElapsedNS/1000, t.FilterNS()/1000, t.RefineNS/1000,
		t.TilesVisited, t.EntriesScanned, t.Results, len(t.spans))
}

// body is the response's "trace" field.
func (t *requestTrace) body() *traceJSON {
	tj := &traceJSON{
		Kind:         t.Kind,
		ElapsedUS:    t.ElapsedNS / 1000,
		FilterUS:     t.FilterNS() / 1000,
		RefineUS:     t.RefineNS / 1000,
		countersJSON: newCountersJSON(&t.Stats),
		Shards:       make([]shardSpanJSON, len(t.spans)),
	}
	for i, sp := range t.spans {
		tj.Shards[i] = shardSpanJSON{
			Shard:          sp.Shard,
			ElapsedUS:      sp.ElapsedUS,
			RefineUS:       sp.RefineNS / 1000,
			TilesVisited:   sp.Stats.TilesVisited,
			EntriesScanned: sp.Stats.EntriesScanned,
			Comparisons:    sp.Stats.Comparisons,
			Results:        sp.Results,
		}
	}
	return tj
}
