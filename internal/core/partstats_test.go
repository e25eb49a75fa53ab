package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestPartitionStatsEmpty: an empty index reports zeros everywhere and
// no NaN from the ratio fields.
func TestPartitionStatsEmpty(t *testing.T) {
	ix := New(Options{NX: 8, NY: 8})
	ps := ix.PartitionStats()
	if ps.GridTiles != 64 {
		t.Fatalf("GridTiles = %d, want 64", ps.GridTiles)
	}
	if ps.OccupiedTiles != 0 || ps.Objects != 0 || ps.Replicas != 0 {
		t.Fatalf("empty index reports occupancy: %+v", ps)
	}
	for _, f := range []float64{ps.MeanTileEntries, ps.SkewRatio, ps.ReplicationFactor, ps.BoundaryRatio} {
		if f != 0 || math.IsNaN(f) {
			t.Fatalf("empty index ratio fields must be exactly 0: %+v", ps)
		}
	}
}

// TestPartitionStatsSingleTile: one object strictly inside one tile is a
// single class-A entry with no replication.
func TestPartitionStatsSingleTile(t *testing.T) {
	d := spatial.NewDataset([]geom.Rect{
		{MinX: 0.01, MinY: 0.01, MaxX: 0.02, MaxY: 0.02},
	})
	ix := Build(d, Options{NX: 8, NY: 8, Space: geom.Rect{MaxX: 1, MaxY: 1}})
	ps := ix.PartitionStats()
	if ps.OccupiedTiles != 1 || ps.Objects != 1 || ps.Replicas != 1 {
		t.Fatalf("got %+v, want 1 tile / 1 object / 1 replica", ps)
	}
	if ps.ClassCounts != [4]int{1, 0, 0, 0} {
		t.Fatalf("ClassCounts = %v, want [1 0 0 0]", ps.ClassCounts)
	}
	if ps.ReplicationFactor != 1 || ps.BoundaryRatio != 0 || ps.SkewRatio != 1 {
		t.Fatalf("ratios off for a single interior object: %+v", ps)
	}
}

// TestPartitionStatsCrossTile: one object spanning a 2x2 tile block
// stores exactly one replica per class (Section III-A's class
// assignment: A at the begin tile, B along the row, C along the column,
// D in the interior remainder).
func TestPartitionStatsCrossTile(t *testing.T) {
	d := spatial.NewDataset([]geom.Rect{
		{MinX: 0.10, MinY: 0.10, MaxX: 0.15, MaxY: 0.15},
	})
	ix := Build(d, Options{NX: 8, NY: 8, Space: geom.Rect{MaxX: 1, MaxY: 1}})
	ps := ix.PartitionStats()
	if ps.OccupiedTiles != 4 || ps.Replicas != 4 {
		t.Fatalf("got %+v, want 4 occupied tiles / 4 replicas", ps)
	}
	if ps.ClassCounts != [4]int{1, 1, 1, 1} {
		t.Fatalf("ClassCounts = %v, want one replica per class", ps.ClassCounts)
	}
	if ps.ReplicationFactor != 4 {
		t.Fatalf("ReplicationFactor = %v, want 4", ps.ReplicationFactor)
	}
	if want := 3.0 / 4.0; ps.BoundaryRatio != want {
		t.Fatalf("BoundaryRatio = %v, want %v", ps.BoundaryRatio, want)
	}
}

// TestPartitionStatsInvariants checks the arithmetic relations that must
// hold on any dataset: class counts sum to the replica count, every
// object has exactly one class-A home, and the derived ratios match
// their definitions.
func TestPartitionStatsInvariants(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	ix, _ := buildRandom(rnd, 5000, 0.05, Options{NX: 32, NY: 32})
	ps := ix.PartitionStats()

	if ps.GridTiles != 32*32 {
		t.Fatalf("GridTiles = %d, want 1024", ps.GridTiles)
	}
	if ps.Objects != 5000 {
		t.Fatalf("Objects = %d, want 5000", ps.Objects)
	}
	if ps.ClassCounts[0] != ps.Objects {
		t.Fatalf("class A count %d != objects %d (every object has one home tile)",
			ps.ClassCounts[0], ps.Objects)
	}
	sum := ps.ClassCounts[0] + ps.ClassCounts[1] + ps.ClassCounts[2] + ps.ClassCounts[3]
	if sum != ps.Replicas {
		t.Fatalf("class counts sum %d != replicas %d", sum, ps.Replicas)
	}
	if ps.Replicas < ps.Objects {
		t.Fatalf("replicas %d < objects %d", ps.Replicas, ps.Objects)
	}
	if ps.OccupiedTiles <= 0 || ps.OccupiedTiles > ps.GridTiles {
		t.Fatalf("OccupiedTiles = %d out of range", ps.OccupiedTiles)
	}
	if got, want := ps.MeanTileEntries, float64(ps.Replicas)/float64(ps.OccupiedTiles); got != want {
		t.Fatalf("MeanTileEntries = %v, want %v", got, want)
	}
	if got, want := ps.SkewRatio, float64(ps.MaxTileEntries)/ps.MeanTileEntries; got != want {
		t.Fatalf("SkewRatio = %v, want %v", got, want)
	}
	if got, want := ps.ReplicationFactor, float64(ps.Replicas)/float64(ps.Objects); got != want {
		t.Fatalf("ReplicationFactor = %v, want %v", got, want)
	}
	if got, want := ps.BoundaryRatio, float64(ps.Replicas-ps.ClassCounts[0])/float64(ps.Replicas); got != want {
		t.Fatalf("BoundaryRatio = %v, want %v", got, want)
	}
}

// TestPartitionStatsDecomposed: the 2-layer+ side table is derived data
// outside the tiles, so the partition summary is the same with and
// without it, and an update that drops the table counts in the summary
// like any other; BuildDecomposed restores the table and changes no
// figure.
func TestPartitionStatsDecomposed(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	rects := randRects(rnd, 2000, 0.05)
	ix := Build(spatial.NewDataset(rects), Options{NX: 16, NY: 16, Decompose: true})
	ps := ix.PartitionStats()
	if plain := Build(spatial.NewDataset(rects), Options{NX: 16, NY: 16}).PartitionStats(); ps != plain {
		t.Fatalf("decomposed summary %+v, plain %+v", ps, plain)
	}

	ix.Insert(spatial.Entry{
		ID:   spatial.ID(ps.Objects),
		Rect: geom.Rect{MinX: 0.501, MinY: 0.501, MaxX: 0.502, MaxY: 0.502},
	})
	after := ix.PartitionStats()
	if after.Objects != ps.Objects+1 || ix.Decomposed() {
		t.Fatalf("after insert: Objects = %d (want %d), decomposed %v (want false)",
			after.Objects, ps.Objects+1, ix.Decomposed())
	}

	ix.BuildDecomposed()
	if rebuilt := ix.PartitionStats(); rebuilt != after || !ix.Decomposed() {
		t.Fatalf("rebuild: summary %+v (want %+v), decomposed %v (want true)",
			rebuilt, after, ix.Decomposed())
	}
}
