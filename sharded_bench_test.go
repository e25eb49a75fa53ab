package twolayer_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	twolayer "github.com/twolayer/twolayer"
)

// Sharded-engine benchmarks: scatter-gather query latency and live
// mutation throughput across shard counts. docs/SHARDING.md discusses
// the expected scaling (Apply throughput grows with shards because each shard
// publishes a copy-on-write clone of only its own slab).

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

// BenchmarkShardedWindow measures mixed window queries — mostly
// slab-local (the fast path), some spanning — through the sharded
// engine at increasing shard counts.
func BenchmarkShardedWindow(b *testing.B) {
	rects := shardedBenchRects(200_000)
	rnd := rand.New(rand.NewSource(7))
	windows := make([]twolayer.Rect, 512)
	for i := range windows {
		x, y := rnd.Float64()*0.97, rnd.Float64()*0.97
		side := 0.005 + rnd.Float64()*0.045 // up to ~4.5% extent
		windows[i] = twolayer.Rect{MinX: x, MinY: y, MaxX: x + side, MaxY: y + side}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sh := twolayer.BuildShardedRects(rects, twolayer.Options{GridSize: 512},
				twolayer.ShardedOptions{Shards: shards})
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

// BenchmarkShardedApply measures live mutation throughput: concurrent
// writers stream small insert/delete batches through ShardedLive. Small
// apply batches make the per-publish copy-on-write clone the dominant
// cost; sharding divides each clone by the shard count and runs the
// loops in parallel, so throughput scales with shards.
func BenchmarkShardedApply(b *testing.B) {
	base := shardedBenchRects(200_000)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sh := twolayer.BuildShardedRects(base, twolayer.Options{GridSize: 768},
				twolayer.ShardedOptions{Shards: shards})
			live := twolayer.ShardedLiveFrom(sh, twolayer.LiveOptions{MaxBatch: 16})
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
