package twolayer

import (
	"log/slog"
	"time"

	"github.com/twolayer/twolayer/internal/shard"
	"github.com/twolayer/twolayer/internal/wal"
)

// SyncPolicy selects when the write-ahead log fsyncs appended mutation
// batches; see the policy constants.
type SyncPolicy = wal.SyncPolicy

// Fsync policies for DurableOptions.Fsync.
const (
	// SyncInterval (the default) fsyncs in the background every
	// DurableOptions.FsyncInterval: full durability across process
	// crashes, up to one interval of acknowledged tail lost on an OS or
	// power crash.
	SyncInterval = wal.SyncInterval
	// SyncAlways fsyncs every mutation batch before it is acknowledged:
	// nothing acknowledged is ever lost, at a heavy per-batch latency
	// cost on most filesystems.
	SyncAlways = wal.SyncAlways
	// SyncNone leaves flushing to the OS entirely.
	SyncNone = wal.SyncNone
)

// ParseSyncPolicy maps the flag spellings "always", "interval", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// RecoveryInfo reports what OpenDurable found in the engine's
// write-ahead log and how much of it it replayed.
type RecoveryInfo = wal.RecoveryInfo

// DurabilityStats is a point-in-time view of the durability engine:
// log segments and bytes, append/fsync/rotation/prune counters,
// checkpoint epoch and age, and the recovery summary from startup.
type DurabilityStats = wal.Stats

// DurableOptions configure OpenDurable's one write-ahead log.
type DurableOptions struct {
	// Dir is the durability directory holding the log segments and
	// checkpoints, and with several shards a layout manifest; created if
	// missing. Required.
	Dir string
	// Fsync selects the log's sync discipline (default SyncInterval).
	Fsync SyncPolicy
	// FsyncInterval is the background flush period under SyncInterval.
	// Defaults to 100ms.
	FsyncInterval time.Duration
	// SegmentBytes is the log segment rotation threshold (default 8 MiB).
	SegmentBytes int64
	// CheckpointEvery writes an automatic checkpoint after this many
	// journaled mutations: 0 means the default of 65536, negative
	// disables automatic checkpoints.
	CheckpointEvery int
	// Seed, when non-nil and Dir holds no prior state, becomes the
	// initial engine and shapes the directory: OneShard(ix) writes the
	// flat one-shard layout, an engine of several shards a manifest
	// beside the log. It is checkpointed before mutations are accepted.
	// Ignored (with a logged notice) when Dir already has state: the
	// recovered state and layout always win. OpenDurable takes ownership
	// of the seed.
	Seed *Sharded
	// Logger receives recovery and background-error notices. Defaults to
	// slog.Default().
	Logger *slog.Logger
}

// DurableLive is a ShardedLive backed by the durability engine: every
// mutation batch is written ahead, whole and at the epoch it publishes
// as, to one segmented, CRC-framed log before it is acknowledged,
// checkpoints bound recovery time, and OpenDurable restores exactly the
// acknowledged state after a crash — tolerating a torn or corrupt log
// tail by truncating at the first bad frame, so a batch that spans
// shards comes back whole or not at all. All methods are safe for
// concurrent use.
type DurableLive struct {
	d    *shard.Durable
	live *ShardedLive
}

// OpenDurable opens (or cold-starts) the durable engine stored in
// do.Dir. The directory decides the layout: a layout manifest pins its
// shard count and grid, log state with no manifest is one shard on the
// grid of its checkpoint. On prior state, do.Seed is ignored: the newest
// readable checkpoint is loaded and the log tail replayed on top, each
// batch routed to its shards as Apply routes it. A directory with one
// log per shard (shard-000/ ..., written before the engine had one log)
// is migrated to one log before OpenDurable returns. On a cold start the
// engine and its layout come from do.Seed, or it is one empty shard
// built from opts — which must then carry a Space.
func OpenDurable(opts Options, lo LiveOptions, do DurableOptions) (*DurableLive, RecoveryInfo, error) {
	if err := opts.Validate(); err != nil {
		return nil, RecoveryInfo{}, err
	}
	var seed *shard.Engine
	if do.Seed != nil {
		seed = do.Seed.eng
	}
	d, info, err := shard.Open(wal.Options{
		Dir:             do.Dir,
		Policy:          do.Fsync,
		SyncEvery:       do.FsyncInterval,
		SegmentBytes:    do.SegmentBytes,
		CheckpointEvery: do.CheckpointEvery,
		Index:           opts.toCore(),
		Live:            lo.toCore(),
		Logger:          do.Logger,
	}, seed)
	if err != nil {
		return nil, info, err
	}
	return &DurableLive{d: d, live: &ShardedLive{l: d.Live()}}, info, nil
}

// Live returns the updatable engine. Mutations submitted through it are
// journaled before they are acknowledged — the write-ahead hook lives
// inside the apply loop, so there is no undurable side door.
func (d *DurableLive) Live() *ShardedLive { return d.live }

// Snapshot returns the current immutable engine; shorthand for
// Live().Snapshot().
func (d *DurableLive) Snapshot() *Sharded { return d.live.Snapshot() }

// Checkpoint writes the current snapshot, every shard of it, as one
// checkpoint file and prunes the log segments it covers, without
// pausing writers or readers. It returns the checkpointed epoch; with
// nothing published since the last checkpoint it is a no-op.
func (d *DurableLive) Checkpoint() (uint64, error) { return d.d.Checkpoint() }

// Stats reports the durability counters of the engine's log.
func (d *DurableLive) Stats() DurabilityStats { return d.d.Stats() }

// Close drains and closes the apply loop, journaling its final batches,
// then closes the log with a final fsync. Close is idempotent.
func (d *DurableLive) Close() error { return d.d.Close() }
