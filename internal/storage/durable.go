package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"colorfulxml/internal/core"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/vfs"
	"colorfulxml/internal/wal"
)

// This file orchestrates durability: a directory holding a MANIFEST, one
// checkpoint, and a run of WAL segments, with the invariant that the
// committed state is always reconstructible as
//
//	checkpoint-E  +  replay of wal segments E, E+1, ..., L (ascending)
//
// where E is the epoch named by MANIFEST. Segment numbers and checkpoint
// epochs share one counter: a checkpoint installed under epoch E captures
// everything up to the end of segment E-1, so exactly the segments >= E
// remain relevant and everything below E is garbage.
//
// Crash safety comes from ordering, not locking:
//   - a commit is acknowledged only after its WAL record is written (and,
//     under SyncAlways, fsynced) to the open segment;
//   - a checkpoint (Checkpoint) installs checkpoint-E, E = the open segment
//     + 1, and then moves MANIFEST to E, each by replaceFile, so MANIFEST
//     always names a fully installed checkpoint. Only then is segment E
//     created, and directory-fsynced before any commit lands in it; the old
//     segment is below the epoch, so it takes no sealing fsync;
//   - garbage collection runs last and is pure cleanup: a crash anywhere
//     leaves either the old epoch fully intact or the new one.

const manifestName = "MANIFEST"

// manifestMagic leads the MANIFEST file; the epoch follows on the same line.
const manifestMagic = "MCTDB1"

func segFile(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }
func ckptFile(ep uint64) string { return fmt.Sprintf("checkpoint-%08d.ckpt", ep) }

func parseNumbered(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// FS is the filesystem to operate on; nil means the real OS filesystem.
	FS vfs.FS
	// Sync is the WAL fsync policy. The default (SyncAlways) makes every
	// acknowledged commit crash-durable.
	Sync wal.SyncPolicy
	// Retry is the transient-failure retry schedule applied to WAL flushes
	// and checkpoint installation (zero: fail on the first error).
	Retry vfs.RetryPolicy
}

// RecoveryStats reports what OpenDurable found and replayed.
type RecoveryStats struct {
	// CheckpointEpoch is the MANIFEST epoch the store was recovered from
	// (1 with no checkpoint on a fresh or young directory).
	CheckpointEpoch uint64
	// CheckpointLoaded reports whether a checkpoint file was loaded (false
	// means recovery started from an empty store).
	CheckpointLoaded bool
	// SegmentsReplayed counts WAL segments read back.
	SegmentsReplayed int
	// RecordsReplayed counts committed WAL records applied.
	RecordsReplayed int
	// ChangesReplayed counts individual changes inside those records.
	ChangesReplayed int
	// TornTail reports that the final segment ended in a torn record,
	// which was discarded (an in-flight, unacknowledged commit).
	TornTail bool
	// TornSegment and TornOffset locate the discarded tail.
	TornSegment string
	TornOffset  int64
	// Elapsed is what recovery took: loading the checkpoint and replaying the
	// log onto it.
	Elapsed time.Duration
}

// Durable is the write half of a durable store directory: the open WAL
// segment plus the checkpoint protocol. The caller owns serialization of
// commits against checkpoints (colorful.DB uses its writer lock); mu makes
// each call whole — an Append holds it across its write and fsync, so appends
// never interleave.
type Durable struct {
	fs     vfs.FS
	dir    string
	policy wal.SyncPolicy
	retry  vfs.RetryPolicy

	mu  sync.Mutex // guards w and seg; the wal.Writer is not safe for concurrent use
	w   *wal.Writer
	seg uint64

	scrubMu    sync.Mutex // serializes ScrubOnce; guards the cursor below
	scrubEpoch uint64     // epoch the in-progress scrub pass started under
	scrubPos   int        // next file index within that pass
}

// OpenDurable opens (creating if necessary) a durable store directory,
// recovers the committed state, and leaves a fresh WAL segment open for new
// commits. The returned Store is the recovered physical state; callers
// wanting the node-level view run Reconstruct on it.
func OpenDurable(dir string, opts DurableOptions) (*Durable, *Store, RecoveryStats, error) {
	fs := opts.FS
	if fs == nil {
		fs = vfs.OS
	}
	var stats RecoveryStats
	sw := obs.Start()
	fail := func(err error) (*Durable, *Store, RecoveryStats, error) {
		return nil, nil, stats, err
	}
	if err := fs.MkdirAll(dir); err != nil {
		return fail(fmt.Errorf("storage: open durable %s: %w", dir, err))
	}

	// MANIFEST -> epoch. Absent means a fresh (or never-checkpointed)
	// directory at epoch 1.
	epoch := uint64(1)
	manifestSeen := false
	if data, err := fs.ReadFile(vfs.Join(dir, manifestName)); err == nil {
		e, perr := parseManifest(data)
		if perr != nil {
			return fail(fmt.Errorf("storage: %s/%s: %w", dir, manifestName, perr))
		}
		epoch, manifestSeen = e, true
	} else if !vfs.IsNotExist(err) {
		return fail(fmt.Errorf("storage: open durable %s: %w", dir, err))
	}
	stats.CheckpointEpoch = epoch

	// Checkpoint. Required whenever MANIFEST names an epoch past the
	// initial one; at epoch 1 its absence means "start empty".
	var st *Store
	ckpt := vfs.Join(dir, ckptFile(epoch))
	if data, err := fs.ReadFile(ckpt); err == nil {
		st, err = ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return fail(fmt.Errorf("storage: %s: %w", ckpt, err))
		}
		stats.CheckpointLoaded = true
	} else if !vfs.IsNotExist(err) {
		return fail(fmt.Errorf("storage: open durable %s: %w", dir, err))
	} else if manifestSeen && epoch != 1 {
		return fail(fmt.Errorf("storage: %s names epoch %d but %s is missing", manifestName, epoch, ckptFile(epoch)))
	} else {
		st = NewStore()
	}

	// Inventory the directory: live segments (>= epoch) to replay, and
	// stale leftovers from an interrupted GC or checkpoint to sweep later.
	names, err := fs.ReadDir(dir)
	if err != nil {
		return fail(fmt.Errorf("storage: open durable %s: %w", dir, err))
	}
	var segs []uint64
	var stale []string
	for _, name := range names {
		if n, ok := parseNumbered(name, "wal-", ".log"); ok {
			if n >= epoch {
				segs = append(segs, n)
			} else {
				stale = append(stale, name)
			}
			continue
		}
		if n, ok := parseNumbered(name, "checkpoint-", ".ckpt"); ok && n != epoch {
			stale = append(stale, name)
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			stale = append(stale, name)
		}
	}
	// ReadDir is sorted and the fixed-width numbering makes lexicographic
	// order numeric, but do not depend on a vfs implementation detail.
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return fail(fmt.Errorf("storage: WAL segment gap: have %s and %s",
				segFile(segs[i-1]), segFile(segs[i])))
		}
	}
	if len(segs) > 0 && segs[0] != epoch && stats.CheckpointLoaded {
		return fail(fmt.Errorf("storage: checkpoint epoch %d but first WAL segment is %s",
			epoch, segFile(segs[0])))
	}

	// Replay, oldest first. Only the last segment may end torn; record
	// sequence numbers must be contiguous across segment boundaries.
	var nextSeq uint64
	for i, seq := range segs {
		name := segFile(seq)
		data, err := fs.ReadFile(vfs.Join(dir, name))
		if err != nil {
			return fail(fmt.Errorf("storage: open durable %s: %w", dir, err))
		}
		res, err := wal.ReadSegment(data, name, i == len(segs)-1)
		if err != nil {
			return fail(err)
		}
		stats.SegmentsReplayed++
		if res.Torn {
			stats.TornTail = true
			stats.TornSegment = name
			stats.TornOffset = res.TornOffset
			// Truncate the torn tail now, via tmp+rename: once this
			// incarnation opens its own segment, this one is no longer
			// final, and a torn record surviving in a non-final segment
			// would read as hard corruption on the next recovery. A crash mid-truncation
			// leaves either the original file (final again, tail re-dropped)
			// or the clean prefix — both recoverable.
			kept := data[:res.TornOffset]
			if err := replaceFile(fs, dir, name, func(w io.Writer) error {
				_, err := w.Write(kept)
				return err
			}); err != nil {
				return fail(fmt.Errorf("storage: truncating torn tail of %s: %w", name, err))
			}
		}
		for _, rec := range res.Records {
			if nextSeq != 0 && rec.Seq != nextSeq {
				return fail(&wal.CorruptError{Segment: name, Offset: rec.Offset,
					Reason: fmt.Sprintf("record sequence %d, want %d", rec.Seq, nextSeq)})
			}
			nextSeq = rec.Seq + 1
			changes, err := wal.DecodeChanges(rec.Payload)
			if err != nil {
				return fail(&wal.CorruptError{Segment: name, Offset: rec.Offset,
					Reason: fmt.Sprintf("undecodable change batch: %v", err)})
			}
			if err := st.ApplyChanges(changes); err != nil {
				return fail(fmt.Errorf("storage: replaying %s record %d: %w", name, rec.Seq, err))
			}
			stats.RecordsReplayed++
			stats.ChangesReplayed += len(changes)
		}
	}
	if nextSeq == 0 {
		nextSeq = 1
	}
	stats.Elapsed = time.Duration(sw.ElapsedNanos())
	obsRecoveryNanos.Set(int64(stats.Elapsed))

	// A fresh segment for this incarnation's commits. Creating it (and
	// fsyncing the directory) before returning means a later recovery never
	// sees a gap where this session's segment should be.
	newSeg := epoch
	if len(segs) > 0 {
		newSeg = segs[len(segs)-1] + 1
	}
	d := &Durable{fs: fs, dir: dir, policy: opts.Sync, retry: opts.Retry}
	if err := d.openSegment(newSeg, nextSeq); err != nil {
		return fail(fmt.Errorf("storage: open durable %s: %w", dir, err))
	}
	// Sweep leftovers from interrupted checkpoints; best-effort.
	for _, name := range stale {
		_ = fs.Remove(vfs.Join(dir, name))
	}
	return d, st, stats, nil
}

func parseManifest(data []byte) (uint64, error) {
	line := strings.TrimSpace(string(data))
	rest, ok := strings.CutPrefix(line, manifestMagic+" ")
	if !ok {
		return 0, fmt.Errorf("bad manifest contents %q", line)
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
	if err != nil || epoch == 0 {
		return 0, fmt.Errorf("bad manifest epoch %q", rest)
	}
	return epoch, nil
}

// Append commits one change batch to the WAL as one record: the batch is
// encoded, checksummed, appended to the open segment, and (under SyncAlways)
// fsynced before Append returns.
func (d *Durable) Append(changes []core.Change) error {
	payload := wal.EncodeChanges(changes)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.w == nil {
		return errClosed
	}
	_, err := d.w.Append(payload)
	return err
}

// LogBytes returns the size of the open WAL segment, the signal for
// auto-checkpoint thresholds.
func (d *Durable) LogBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.w == nil {
		return 0
	}
	return d.w.Size()
}

// errClosed is reported by a Durable after Close.
var errClosed = errors.New("storage: durable store is closed")

// ErrNoSegment is wrapped by a Checkpoint that failed after it began to move
// MANIFEST: no WAL segment takes appends until a later Checkpoint succeeds.
var ErrNoSegment = errors.New("storage: no writable WAL segment")

// Checkpoint installs st as the checkpoint of a new epoch E, the open segment
// + 1, and moves the log to segment E. st must be the state of the last
// successful Append, and the caller holds its writer lock, so no Append runs
// meanwhile. Every checkpoint and the heal are this one call: the open
// segment may be sticky-failed after an exhausted retry, and whatever it
// holds past st ends up below the epoch, where recovery never reads it.
//
// A failure while checkpoint-E is written leaves the epoch and the open
// segment as they were, still writable. Once MANIFEST starts to move, the open
// segment is abandoned: a rename whose directory fsync failed may yet last,
// and a record appended below the epoch would be lost. A failure from then on
// wraps ErrNoSegment; every appended record stays durable, in image E or in
// the segments of the old epoch.
func (d *Durable) Checkpoint(st *Store) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.w == nil {
		return errClosed
	}
	epoch := d.seg + 1
	err := retrying(d.retry, func() error {
		return replaceFile(d.fs, d.dir, ckptFile(epoch), st.WriteCheckpoint)
	})
	if err != nil {
		return fmt.Errorf("storage: checkpoint %d: %w", epoch, err)
	}
	if d.policy == wal.SyncNever {
		// The old segment stays the final one if MANIFEST does not move; seal
		// it as Close would. A sticky-failed writer skips this.
		_ = d.w.Sync()
	}
	nextSeq := d.w.NextSeq()
	d.w.Abandon()
	d.seg = epoch
	err = retrying(d.retry, func() error {
		return replaceFile(d.fs, d.dir, manifestName, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%s %d\n", manifestMagic, epoch)
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("%w: MANIFEST for checkpoint %d: %w", ErrNoSegment, epoch, err)
	}
	d.collect(epoch)
	if err := d.openSegment(epoch, nextSeq); err != nil {
		return fmt.Errorf("%w after checkpoint %d: %w", ErrNoSegment, epoch, err)
	}
	return nil
}

// collect removes the segments and checkpoints below epoch, which MANIFEST
// no longer reaches; best-effort cleanup.
func (d *Durable) collect(epoch uint64) {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		n, ok := parseNumbered(name, "wal-", ".log")
		if !ok {
			n, ok = parseNumbered(name, "checkpoint-", ".ckpt")
		}
		if ok && n < epoch {
			_ = d.fs.Remove(vfs.Join(d.dir, name))
		}
	}
}

// openSegment creates WAL segment seg, fsyncs the directory, and makes it the
// open segment, whose first record is nextSeq. The create and the fsync are
// retried together.
func (d *Durable) openSegment(seg, nextSeq uint64) error {
	var f vfs.File
	err := retrying(d.retry, func() error {
		var err error
		if f, err = d.fs.Create(vfs.Join(d.dir, segFile(seg))); err != nil {
			return err
		}
		if err = d.fs.SyncDir(d.dir); err != nil {
			f.Close()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("storage: opening %s: %w", segFile(seg), err)
	}
	d.w = wal.NewWriter(f, segFile(seg), nextSeq, d.policy)
	d.w.SetRetry(d.retry)
	d.seg = seg
	return nil
}

// Close seals the open WAL segment. The directory stays recoverable; a later
// OpenDurable replays it.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.w == nil {
		return nil
	}
	err := d.w.Close()
	d.w = nil
	return err
}
