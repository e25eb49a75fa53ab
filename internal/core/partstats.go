package core

// PartitionStats summarizes the shape of the two-layer partitioning the
// way the paper's tuning experiments (Figure 7, Table 5) and Aji et
// al.'s partitioning study look at it: how many tiles carry data, how
// the per-tile load is distributed (mean, max, skew), how much grid
// replication costs, and how the stored entries split across the four
// secondary classes. Operators use it to judge whether the grid
// granularity still fits the data — a high skew ratio or a boundary
// ratio creeping up after many live updates both argue for a rebuild at
// a different grid size.
type PartitionStats struct {
	// GridTiles is the total tile count of the primary grid (NX*NY).
	GridTiles int
	// OccupiedTiles counts tiles holding at least one entry.
	OccupiedTiles int
	// Objects is the number of distinct indexed objects.
	Objects int
	// Replicas is the number of stored entries including replication; an
	// object intersecting t tiles contributes t replicas.
	Replicas int
	// ClassCounts is the number of stored entries per secondary class
	// (A, B, C, D). Every object has exactly one class-A copy — the tile
	// where its MBR begins — so ClassCounts[0] == Objects.
	ClassCounts [4]int
	// MaxTileEntries is the entry count of the fullest tile.
	MaxTileEntries int
	// MeanTileEntries is Replicas / OccupiedTiles (0 for an empty index).
	MeanTileEntries float64
	// SkewRatio is MaxTileEntries / MeanTileEntries — 1.0 for a perfectly
	// even spread, large when hot tiles dominate (0 for an empty index).
	SkewRatio float64
	// ReplicationFactor is Replicas / Objects (0 for an empty index).
	ReplicationFactor float64
	// BoundaryRatio is the fraction of stored entries that are replica
	// copies beyond the object's class-A home tile, i.e. entries in
	// classes B, C, and D: (Replicas - ClassCounts[0]) / Replicas. It is
	// the share of storage (and of border-tile scan work) paid for
	// objects crossing tile boundaries.
	BoundaryRatio float64
}

// PartitionStats walks the tile directory once (O(occupied tiles)) and
// returns the current partitioning summary. On a static index or an
// immutable snapshot it is safe to call concurrently with queries; on a
// directly mutated index it requires the same external synchronization
// as updates.
func (ix *Index) PartitionStats() PartitionStats {
	ps := PartitionStats{
		GridTiles: ix.g.NX * ix.g.NY,
		Objects:   ix.size,
	}
	for slot := 0; slot < ix.numTiles; slot++ {
		t := ix.tile(slot)
		n := t.size()
		if n == 0 {
			continue
		}
		ps.OccupiedTiles++
		ps.Replicas += n
		if n > ps.MaxTileEntries {
			ps.MaxTileEntries = n
		}
		for c := 0; c < 4; c++ {
			ps.ClassCounts[c] += len(t.classes[c])
		}
	}
	if ps.OccupiedTiles > 0 {
		ps.MeanTileEntries = float64(ps.Replicas) / float64(ps.OccupiedTiles)
		ps.SkewRatio = float64(ps.MaxTileEntries) / ps.MeanTileEntries
	}
	if ps.Objects > 0 {
		ps.ReplicationFactor = float64(ps.Replicas) / float64(ps.Objects)
	}
	if ps.Replicas > 0 {
		ps.BoundaryRatio = float64(ps.Replicas-ps.ClassCounts[0]) / float64(ps.Replicas)
	}
	return ps
}
