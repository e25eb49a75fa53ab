package twolayer

import (
	"errors"
	"log/slog"
	"time"

	"github.com/twolayer/twolayer/internal/core"
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

// RecoveryInfo reports what OpenDurable found on disk and how much log
// it replayed.
type RecoveryInfo = wal.RecoveryInfo

// DurabilityStats is a point-in-time view of the durability engine:
// log segments and bytes, append/fsync/rotation/prune counters,
// checkpoint epoch and age, and the recovery summary from startup.
type DurabilityStats = wal.Stats

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Dir is the durability directory holding log segments and
	// checkpoints; created if missing. Required.
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
	// initial index and is checkpointed immediately. Ignored (with a
	// logged notice) when Dir already has state — recovered state always
	// wins. OpenDurable takes ownership of the seed.
	Seed *Index
	// Logger receives recovery and background-error notices. Defaults to
	// slog.Default().
	Logger *slog.Logger
}

// DurableLive is a Live index backed by the durability engine: every
// mutation batch is written ahead to a segmented, CRC-framed log before
// it is acknowledged, checkpoints bound recovery time, and OpenDurable
// restores exactly the acknowledged state after a crash — tolerating a
// torn or corrupt log tail by truncating at the first bad frame.
// All methods are safe for concurrent use.
type DurableLive struct {
	d    *wal.DurableLive
	live *Live
}

// OpenDurable opens (or cold-starts) the durable live index stored in
// do.Dir. When the directory holds prior state, opts and do.Seed are
// superseded by recovery: the newest readable checkpoint is loaded and
// the log tail replayed on top. On a cold start the index comes from
// do.Seed, or is built empty from opts — which must then carry a Space,
// as with NewLive.
func OpenDurable(opts Options, lo LiveOptions, do DurableOptions) (*DurableLive, RecoveryInfo, error) {
	if err := opts.Validate(); err != nil {
		return nil, RecoveryInfo{}, err
	}
	if opts.Space == (Rect{}) && do.Seed == nil {
		has, err := wal.HasState(do.Dir)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		if !has {
			return nil, RecoveryInfo{}, errors.New(
				"twolayer: OpenDurable on an empty dir requires Options.Space or DurableOptions.Seed")
		}
	}
	var seed *core.Index
	if do.Seed != nil {
		seed = do.Seed.core
	}
	d, info, err := wal.Open(wal.Options{
		Dir:             do.Dir,
		Policy:          do.Fsync,
		SyncEvery:       do.FsyncInterval,
		SegmentBytes:    do.SegmentBytes,
		CheckpointEvery: do.CheckpointEvery,
		Index:           opts.toCore(),
		Live:            lo.toCore(),
		Seed:            seed,
		Logger:          do.Logger,
	})
	if err != nil {
		return nil, info, err
	}
	return &DurableLive{d: d, live: &Live{live: d.Live()}}, info, nil
}

// Live returns the updatable index. Mutations submitted through it are
// journaled before they are acknowledged — the write-ahead hook lives
// inside the apply loop, so there is no undurable side door.
func (d *DurableLive) Live() *Live { return d.live }

// Snapshot returns the current published snapshot; shorthand for
// Live().Snapshot().
func (d *DurableLive) Snapshot() *Index { return d.live.Snapshot() }

// Checkpoint writes the current snapshot as a checkpoint file and
// prunes log segments it covers, without pausing writers or readers.
// It returns the checkpointed epoch and is a no-op when nothing was
// published since the last checkpoint.
func (d *DurableLive) Checkpoint() (uint64, error) { return d.d.Checkpoint() }

// Stats reports the durability engine's counters.
func (d *DurableLive) Stats() DurabilityStats { return d.d.Stats() }

// Close drains and closes the live index, journaling its final batches,
// then closes the log with a final fsync. Close is idempotent.
func (d *DurableLive) Close() error { return d.d.Close() }
