package storage

import (
	"bytes"
	"errors"
	"fmt"

	"colorfulxml/internal/vfs"
	"colorfulxml/internal/wal"
)

// Online integrity scrubbing: re-verify the durable directory's at-rest
// files — the live checkpoint's page checksums and the sealed WAL segments'
// record CRCs — without stopping the serving path. Scrubbing is read-only
// and incremental: each ScrubOnce call verifies whole files until the byte
// budget is spent (always at least one), resuming where the last call left
// off; a full pass covers the checkpoint plus every sealed segment. The open
// segment is skipped — it is still being appended and is verified by the
// next pass once sealed.

// ScrubCorruption reports one damaged file found by the scrubber.
type ScrubCorruption struct {
	// File is the damaged file's name within the store directory.
	File string
	// Offset is the byte offset of the damage when known, -1 otherwise.
	Offset int64
	// Detail is the underlying verification error.
	Detail string
}

// ScrubResult reports one ScrubOnce increment.
type ScrubResult struct {
	// Files and Bytes count what this increment verified.
	Files int
	Bytes int64
	// PassComplete reports that this increment finished a full pass over the
	// checkpoint and all sealed segments.
	PassComplete bool
	// Corruptions lists files that failed verification twice (each is
	// re-read once before being reported, to rule out a transient read).
	Corruptions []ScrubCorruption
}

// ScrubOnce verifies at-rest files until roughly budget bytes have been read
// (always at least one file; budget <= 0 means one file). Verification
// failures are re-read once before being reported as corruption. Safe to run
// concurrently with commits and checkpoints; a file swept by a concurrent
// checkpoint install is skipped, and an epoch change restarts the pass.
func (d *Durable) ScrubOnce(budget int64) (ScrubResult, error) {
	d.scrubMu.Lock()
	defer d.scrubMu.Unlock()
	var res ScrubResult

	// Snapshot the live epoch and the sealed-segment range.
	data, err := d.fs.ReadFile(vfs.Join(d.dir, manifestName))
	epoch := uint64(1)
	if err == nil {
		if e, perr := parseManifest(data); perr == nil {
			epoch = e
		} else {
			return res, fmt.Errorf("storage: scrub: %w", perr)
		}
	} else if !vfs.IsNotExist(err) {
		return res, fmt.Errorf("storage: scrub: %w", err)
	}
	d.mu.Lock()
	open := d.seg
	d.mu.Unlock()

	// The pass's file list: the live checkpoint, then sealed segments
	// epoch..open-1. A checkpoint install between calls shifts the list, so
	// an epoch change restarts the pass rather than resuming a stale cursor.
	var files []string
	if _, err := d.fs.Stat(vfs.Join(d.dir, ckptFile(epoch))); err == nil {
		files = append(files, ckptFile(epoch))
	}
	for n := epoch; n < open; n++ {
		files = append(files, segFile(n))
	}
	if d.scrubEpoch != epoch || d.scrubPos > len(files) {
		d.scrubEpoch = epoch
		d.scrubPos = 0
	}
	if len(files) == 0 {
		res.PassComplete = true
		return res, nil
	}

	for d.scrubPos < len(files) {
		name := files[d.scrubPos]
		d.scrubPos++
		n, corr, err := d.scrubFile(name)
		if err != nil {
			return res, err
		}
		res.Files++
		res.Bytes += n
		if corr != nil {
			res.Corruptions = append(res.Corruptions, *corr)
			obsScrubCorruptions.Inc()
		}
		obsScrubFiles.Inc()
		obsScrubBytes.Add(uint64(n))
		if budget > 0 && res.Bytes >= budget {
			break
		}
	}
	if d.scrubPos >= len(files) {
		res.PassComplete = true
		d.scrubPos = 0
	}
	return res, nil
}

// scrubFile verifies one file, re-reading once on failure. A missing file
// (swept by a concurrent checkpoint) is not an error and not corruption.
func (d *Durable) scrubFile(name string) (int64, *ScrubCorruption, error) {
	var lastCorr *ScrubCorruption
	var bytesRead int64
	for attempt := 0; attempt < 2; attempt++ {
		data, err := d.fs.ReadFile(vfs.Join(d.dir, name))
		if vfs.IsNotExist(err) {
			return bytesRead, nil, nil
		}
		if err != nil {
			return bytesRead, nil, fmt.Errorf("storage: scrub %s: %w", name, err)
		}
		bytesRead += int64(len(data))
		verr := verifyImage(name, data)
		if verr == nil {
			return bytesRead, nil, nil
		}
		lastCorr = &ScrubCorruption{File: name, Offset: -1, Detail: verr.Error()}
		var ce *wal.CorruptError
		if errors.As(verr, &ce) {
			lastCorr.Offset = ce.Offset
		}
	}
	return bytesRead, lastCorr, nil
}

// verifyImage checks one file image: checkpoints decode page-by-page with
// checksum validation; sealed segments must parse record-by-record with no
// torn tail allowed.
func verifyImage(name string, data []byte) error {
	if _, ok := parseNumbered(name, "checkpoint-", ".ckpt"); ok {
		_, err := ReadCheckpoint(bytes.NewReader(data))
		return err
	}
	_, err := wal.ReadSegment(data, name, false)
	return err
}
