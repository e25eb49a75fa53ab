package twolayer_test

import (
	"math"
	"math/rand"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// TestShardedCountPushdownEquivalence checks the per-shard count
// pushdown of non-exact window and region SearchCount (convex hexagons
// and U shapes whose columns have gaps) against brute force and the
// unsharded engine across the shard-count sweep, with and without a
// limit cap.
func TestShardedCountPushdownEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	rects := randRects(rnd, 3000, 0.04)
	opts := twolayer.Options{GridSize: 32}
	idx := twolayer.BuildRects(rects, opts)

	windows := make([]twolayer.Rect, 0, 44)
	for q := 0; q < 40; q++ {
		x, y := rnd.Float64(), rnd.Float64()
		side := rnd.Float64() * 0.5
		windows = append(windows, twolayer.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side})
	}
	windows = append(windows,
		twolayer.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		twolayer.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2},
		twolayer.Rect{MinX: 0.5, MinY: 0, MaxX: 0.6, MaxY: 1}, // tall slab crossing shard bounds
		twolayer.Rect{MinX: 0.25, MinY: 0.4, MaxX: 0.26, MaxY: 0.41},
	)

	var queries []twolayer.Query
	for i := range windows {
		queries = append(queries, twolayer.Query{Window: &windows[i]})
	}
	for q := 0; q < 12; q++ {
		x, y, r := rnd.Float64(), rnd.Float64(), 0.05+rnd.Float64()*0.3
		ring := make([]twolayer.Point, 6)
		for j := range ring {
			a := float64(j) * math.Pi / 3
			ring[j] = twolayer.Point{X: x + r*math.Cos(a), Y: y + r*math.Sin(a)}
		}
		gap := 0.05 + rnd.Float64()*0.1
		queries = append(queries,
			twolayer.Query{Region: twolayer.NewPolygon(ring...)},
			twolayer.Query{Region: twolayer.NewPolygon( // a U open at the top
				twolayer.Point{X: x - r, Y: y - r}, twolayer.Point{X: x + r, Y: y - r},
				twolayer.Point{X: x + r, Y: y + r}, twolayer.Point{X: x + r - gap, Y: y + r},
				twolayer.Point{X: x + r - gap, Y: y - r + gap}, twolayer.Point{X: x - r + gap, Y: y - r + gap},
				twolayer.Point{X: x - r + gap, Y: y + r}, twolayer.Point{X: x - r, Y: y + r})})
	}

	for _, shards := range shardCountsUnderTest() {
		sh := twolayer.BuildShardedRects(rects, opts, twolayer.ShardedOptions{Shards: shards})
		for qi, q := range queries {
			want := 0
			for _, r := range rects {
				if q.Window != nil && q.Window.Intersects(r) || q.Region != nil && q.Region.IntersectsRect(r) {
					want++
				}
			}
			if n, err := idx.SearchCount(q); err != nil || n != want {
				t.Fatalf("unsharded query %d: count=%d err=%v, want %d", qi, n, err, want)
			}
			n, err := sh.SearchCount(q)
			if err != nil {
				t.Fatalf("shards=%d query %d: %v", shards, qi, err)
			}
			if n != want {
				t.Errorf("shards=%d query %d: count = %d, want %d", shards, qi, n, want)
			}
			if want > 1 {
				q.Limit = want / 2
				n, err = sh.SearchCount(q)
				if err != nil || n != q.Limit {
					t.Errorf("shards=%d query %d limit=%d: count=%d err=%v",
						shards, qi, q.Limit, n, err)
				}
			}
		}
	}
}

// TestShardedQueryStats checks that count pushdowns executed inside the
// fan-out advance the summed per-shard query totals: one query and one
// pushdown per shard evaluated.
func TestShardedQueryStats(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	rects := randRects(rnd, 1000, 0.05)
	sh := twolayer.BuildShardedRects(rects, twolayer.Options{GridSize: 16},
		twolayer.ShardedOptions{Shards: 3})
	w := twolayer.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	before := sh.QueryStats()
	n, err := sh.SearchCount(twolayer.Query{Window: &w})
	if err != nil {
		t.Fatal(err)
	}
	after := sh.QueryStats()
	if after.FastCounts != before.FastCounts+3 || after.Queries != before.Queries+3 {
		t.Errorf("FastCounts %d -> %d, Queries %d -> %d, want +3 each (one per shard)",
			before.FastCounts, after.FastCounts, before.Queries, after.Queries)
	}
	if after.Results != before.Results+int64(n) {
		t.Errorf("Results %d -> %d, want +%d", before.Results, after.Results, n)
	}
}
