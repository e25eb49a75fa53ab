package twolayer_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// Sharded-engine benchmarks: query latency and live mutation throughput
// across shard counts. Neither is expected to scale with shards on one
// node: a query walks its shards in order on the caller's goroutine, and
// one apply loop publishes every shard (docs/SHARDING.md, "Why shard at
// all").

func shardedBenchRects(n int) []twolayer.Rect {
	rnd := rand.New(rand.NewSource(42))
	rects := make([]twolayer.Rect, n)
	for i := range rects {
		x, y := rnd.Float64(), rnd.Float64()
		rects[i] = twolayer.Rect{
			MinX: x, MinY: y,
			MaxX: x + rnd.Float64()*0.002, MaxY: y + rnd.Float64()*0.002,
		}
	}
	return rects
}

// shardedBenchRows are the rows of the sharded query benchmarks: 0 is
// the plain Index as the unsharded baseline, the others the engine at
// that shard count. The shards=1 row is the engine every unsharded
// server serves through.
var shardedBenchRows = []int{0, 1, 2, 4, 8}

func shardedBenchName(shards int) string {
	if shards == 0 {
		return "unsharded"
	}
	return fmt.Sprintf("shards=%d", shards)
}

// benchCounter is the read surface Index and Sharded share.
type benchCounter interface {
	SearchIDs(q twolayer.Query, buf []twolayer.ID) ([]twolayer.ID, error)
	SearchCount(q twolayer.Query) (int, error)
	KNN(q twolayer.Point, k int) []twolayer.Neighbor
	BatchWindowCounts(queries []twolayer.Rect, strategy twolayer.BatchStrategy, threads int) []int
}

func shardedBenchEngine(rects []twolayer.Rect, opts twolayer.Options, shards int) benchCounter {
	if shards == 0 {
		return twolayer.BuildRects(rects, opts)
	}
	return twolayer.BuildShardedRects(rects, opts, twolayer.ShardedOptions{Shards: shards})
}

func shardedBenchWindows() []twolayer.Rect {
	rnd := rand.New(rand.NewSource(7))
	windows := make([]twolayer.Rect, 512)
	for i := range windows {
		x, y := rnd.Float64()*0.97, rnd.Float64()*0.97
		side := 0.005 + rnd.Float64()*0.045 // up to ~4.5% extent
		windows[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side}
	}
	return windows
}

// BenchmarkShardedWindow measures mixed window queries — mostly
// slab-local, some spanning a slab edge — through the plain index
// and through the sharded engine at increasing shard counts.
func BenchmarkShardedWindow(b *testing.B) {
	rects := shardedBenchRects(200_000)
	windows := shardedBenchWindows()
	for _, shards := range shardedBenchRows {
		b.Run(shardedBenchName(shards), func(b *testing.B) {
			sh := shardedBenchEngine(rects, twolayer.Options{GridSize: 512}, shards)
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				q := twolayer.Query{Window: &windows[i%len(windows)]}
				n, err := sh.SearchCount(q)
				if err != nil {
					b.Fatal(err)
				}
				sink += n
			}
			benchSink = sink
		})
	}
}

// BenchmarkShardedKinds measures the other query kinds over the same
// data and query positions as BenchmarkShardedWindow (which is the
// window count): window searches that stream their IDs, disk and
// hexagonal-region counts whose MBRs are those windows, and 10-nearest-
// neighbor queries at their corners, which every shard answers.
func BenchmarkShardedKinds(b *testing.B) {
	rects := shardedBenchRects(200_000)
	windows := shardedBenchWindows()
	disks := make([]twolayer.Disk, len(windows))
	hexes := make([]*twolayer.Polygon, len(windows))
	for i, w := range windows {
		r := (w.MaxX - w.MinX) / 2
		c := twolayer.Point{X: w.MinX + r, Y: w.MinY + r}
		disks[i] = twolayer.Disk{Center: c, Radius: r}
		ring := make([]twolayer.Point, 6)
		for j := range ring {
			a := float64(j) * math.Pi / 3
			ring[j] = twolayer.Point{X: c.X + r*math.Cos(a), Y: c.Y + r*math.Sin(a)}
		}
		hexes[i] = twolayer.NewPolygon(ring...)
	}
	kinds := []struct {
		name string
		run  func(sh benchCounter, i int) int
	}{
		{"window", func(sh benchCounter, i int) int {
			ids, _ := sh.SearchIDs(twolayer.Query{Window: &windows[i]}, nil)
			return len(ids)
		}},
		{"disk", func(sh benchCounter, i int) int {
			n, _ := sh.SearchCount(twolayer.Query{Disk: &disks[i]})
			return n
		}},
		{"region", func(sh benchCounter, i int) int {
			n, _ := sh.SearchCount(twolayer.Query{Region: hexes[i]})
			return n
		}},
		{"knn", func(sh benchCounter, i int) int {
			return len(sh.KNN(twolayer.Point{X: windows[i].MinX, Y: windows[i].MinY}, 10))
		}},
	}
	for _, shards := range shardedBenchRows {
		sh := shardedBenchEngine(rects, twolayer.Options{GridSize: 512}, shards)
		for _, k := range kinds {
			b.Run(k.name+"/"+shardedBenchName(shards), func(b *testing.B) {
				sink := 0
				for i := 0; i < b.N; i++ {
					sink += k.run(sh, i%len(windows))
				}
				benchSink = sink
			})
		}
	}
}

// BenchmarkShardedBatch measures the same windows as one queries-based
// batch count on one worker, so the rows differ only in the engine's
// routing around the batch kernel.
func BenchmarkShardedBatch(b *testing.B) {
	rects := shardedBenchRects(200_000)
	windows := shardedBenchWindows()
	for _, shards := range shardedBenchRows {
		b.Run(shardedBenchName(shards), func(b *testing.B) {
			sh := shardedBenchEngine(rects, twolayer.Options{GridSize: 512}, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = len(sh.BatchWindowCounts(windows, twolayer.QueriesBased, 1))
			}
		})
	}
}

// BenchmarkShardedApply measures live mutation throughput: concurrent
// writers stream batches of eight small inserts through ShardedLive's
// one apply loop, which clones copy-on-write only the shards a batch
// touches. It shows what the shard count costs or saves a writer, not a
// scaling: the loop is one goroutine at any shard count (on 2 vCPUs the
// one-loop-per-shard design it replaced read about the same from 1 to 4
// shards and less at 8). The shards=1 row is the live handle of an
// unsharded server.
func BenchmarkShardedApply(b *testing.B) {
	base := shardedBenchRects(200_000)
	for _, shards := range shardedBenchRows[1:] {
		b.Run(shardedBenchName(shards), func(b *testing.B) {
			live := twolayer.ShardedLiveFrom(twolayer.BuildShardedRects(base,
				twolayer.Options{GridSize: 768}, twolayer.ShardedOptions{Shards: shards}),
				twolayer.LiveOptions{})
			defer live.Close()

			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rnd := rand.New(rand.NewSource(seq.Add(1)))
				batch := make([]twolayer.Mutation, 8)
				for pb.Next() {
					for j := range batch {
						id := twolayer.ID(1_000_000 + seq.Add(1))
						x, y := rnd.Float64(), rnd.Float64()
						batch[j] = twolayer.Mutation{
							ID:  id,
							MBR: twolayer.Rect{MinX: x, MinY: y, MaxX: x + 0.002, MaxY: y + 0.002},
						}
					}
					if _, err := live.Apply(batch); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N*8)/b.Elapsed().Seconds(), "muts/s")
		})
	}
}
