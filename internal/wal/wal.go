// Package wal implements the write-ahead log of the durable MCT store: an
// append-only sequence of CRC32C-checksummed records, each carrying one
// committed mutation batch, fsync'd before the commit is acknowledged.
//
// Segment files are named wal-<seq>.log and partition the change stream:
// a checkpoint at sequence S captures every batch in segments < S, so
// recovery loads the newest checkpoint and replays the remaining segments in
// order. Only the final segment may end in a torn record (a write cut short
// by a crash); a bad checksum anywhere else — or one followed by further
// valid records — is reported as corruption, never silently applied.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"colorfulxml/internal/obs"
	"colorfulxml/internal/vfs"
)

// recHeaderSize is the fixed record header: payload length (4), CRC32C (4),
// sequence number (8). The 4-byte length is the only bound on a record.
const recHeaderSize = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every corruption report from this package.
var ErrCorrupt = errors.New("wal: corrupt segment")

// CorruptError pinpoints a damaged record: the segment file and the byte
// offset of the record that failed its checksum or framing.
type CorruptError struct {
	Segment string
	Offset  int64
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: segment %s: record at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// ErrTooLarge is wrapped by an Append refused because its payload does not
// fit the record frame's 4-byte length; nothing was written.
var ErrTooLarge = errors.New("wal: payload too large for one record")

// Record is one decoded WAL record.
type Record struct {
	Seq     uint64
	Payload []byte
	Offset  int64
}

// crcOf computes the record checksum over the sequence number and payload,
// so neither can be altered without detection.
func crcOf(seq uint64, payload []byte) uint32 {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], seq)
	c := crc32.Update(0, castagnoli, tmp[:])
	return crc32.Update(c, castagnoli, payload)
}

// AppendRecord appends one framed record to buf.
func AppendRecord(buf []byte, seq uint64, payload []byte) []byte {
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crcOf(seq, payload))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// SegmentResult is the outcome of reading one segment.
type SegmentResult struct {
	Records []Record
	// Torn reports that the segment ends in a partially written record
	// (allowed only in the final segment); TornOffset is where it starts.
	Torn       bool
	TornOffset int64
}

// validRecordAt reports whether a complete, checksum-valid record starts at
// off — used to distinguish a torn tail (nothing decodable follows) from
// mid-log corruption (valid records follow the damaged one).
func validRecordAt(data []byte, off int64) bool {
	if int64(len(data))-off < recHeaderSize {
		return false
	}
	length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	if off+recHeaderSize+length > int64(len(data)) {
		return false
	}
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	seq := binary.LittleEndian.Uint64(data[off+8 : off+16])
	payload := data[off+recHeaderSize : off+recHeaderSize+length]
	return crcOf(seq, payload) == crc
}

// ReadSegment decodes a segment image. final marks the last segment of the
// log, the only one where a trailing damaged record is interpreted as a torn
// write (and cleanly dropped) rather than corruption: every earlier segment
// was fully flushed before its successor was created.
func ReadSegment(data []byte, name string, final bool) (*SegmentResult, error) {
	res := &SegmentResult{}
	off := int64(0)
	fail := func(reason string) (*SegmentResult, error) {
		return nil, &CorruptError{Segment: name, Offset: off, Reason: reason}
	}
	torn := func() (*SegmentResult, error) {
		if !final {
			return fail("truncated record in non-final segment")
		}
		res.Torn = true
		res.TornOffset = off
		return res, nil
	}
	for off < int64(len(data)) {
		rem := int64(len(data)) - off
		if rem < recHeaderSize {
			return torn()
		}
		length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if rem-recHeaderSize < length {
			return torn()
		}
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		seq := binary.LittleEndian.Uint64(data[off+8 : off+16])
		payload := data[off+recHeaderSize : off+recHeaderSize+length]
		if got := crcOf(seq, payload); got != crc {
			// A fully present record with a bad sum: if valid records follow,
			// the log was damaged after it was written — corruption. If
			// nothing decodable follows and this is the final segment, it is
			// the torn tail of a crashed write.
			if validRecordAt(data, off+recHeaderSize+length) {
				return fail(fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, crc))
			}
			if final {
				return torn()
			}
			return fail(fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, crc))
		}
		res.Records = append(res.Records, Record{Seq: seq, Payload: payload, Offset: off})
		off += recHeaderSize + length
	}
	return res, nil
}

// SyncPolicy selects when the writer fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs every record before Append returns. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS — faster, but a crash may lose
	// acknowledged commits. For benchmarks and bulk loads.
	SyncNever
)

// Writer appends checksummed records to one segment file: each Append frames
// one record, writes it, and (under SyncAlways) fsyncs it before returning.
// A Writer is not safe for concurrent use; storage.Durable serializes its
// callers.
type Writer struct {
	f       vfs.File
	name    string
	policy  SyncPolicy
	buf     []byte // framing buffer, reused by every Append
	nextSeq uint64
	size    int64 // bytes appended
	err     error // sticky: after a write/sync failure the segment state is unknown

	// retry is the transient-failure retry schedule for writes and fsyncs
	// (zero: fail on first error). Set before the first Append.
	retry vfs.RetryPolicy
}

// NewWriter wraps an open segment file. startSeq is the sequence number the
// next appended record receives.
func NewWriter(f vfs.File, name string, startSeq uint64, policy SyncPolicy) *Writer {
	return &Writer{f: f, name: name, policy: policy, nextSeq: startSeq}
}

// SetRetry arms transient-failure retries (see vfs.RetryPolicy) for this
// writer's writes and fsyncs. Call before the first Append.
func (w *Writer) SetRetry(p vfs.RetryPolicy) { w.retry = p }

// Append frames payload as the next record, makes it durable per the sync
// policy, and returns its sequence number. Under SyncAlways, when Append
// returns nil the record has been fsync'd. A payload the frame cannot hold
// is refused with ErrTooLarge before anything is written, and the writer
// stays usable.
func (w *Writer) Append(payload []byte) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if uint64(len(payload)) > math.MaxUint32 {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	seq := w.nextSeq
	w.nextSeq++
	w.buf = AppendRecord(w.buf[:0], seq, payload)
	w.size += int64(len(w.buf))
	obsAppends.Inc()
	obsBytes.Add(uint64(len(w.buf)))
	err := w.writeAndSync(w.buf, w.policy == SyncAlways)
	if cap(w.buf) > 1<<20 {
		w.buf = nil // a large record's framing buffer is not kept
	}
	if err != nil {
		return 0, w.fail(err)
	}
	return seq, nil
}

// Sync fsyncs the segment regardless of policy.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.writeAndSync(nil, true); err != nil {
		return w.fail(err)
	}
	return nil
}

// fail makes err sticky: after a write or fsync that outlasted its retries
// the segment state is unknown.
func (w *Writer) fail(err error) error {
	w.err = fmt.Errorf("wal: segment %s: %w", w.name, err)
	return w.err
}

// writeAndSync delivers p to the segment file and (when doSync) fsyncs it,
// retrying transient failures under one backoff schedule — the write and the
// fsync share the retry budget. A partially delivered write resumes from the
// written prefix: records are appended strictly sequentially, so completing
// the torn record in place is framing-safe, and recovery sees either the
// whole record or a dropped torn tail, never a duplicate.
func (w *Writer) writeAndSync(p []byte, doSync bool) error {
	b := vfs.NewBackoff(w.retry)
	for len(p) > 0 {
		n, err := w.f.Write(p)
		if n > 0 && n <= len(p) {
			p = p[n:]
		}
		if err == nil {
			if len(p) > 0 {
				return fmt.Errorf("short write: %d bytes left", len(p))
			}
			break
		}
		delay, ok := b.Next(err)
		if !ok {
			return err
		}
		obsRetries.Inc()
		obsRetryBackoffNanos.Observe(int64(delay))
	}
	if !doSync {
		return nil
	}
	for {
		sw := obs.Start()
		err := w.f.Sync()
		obsFsyncs.Inc()
		obsSyncNanos.Observe(sw.ElapsedNanos())
		if err == nil {
			return nil
		}
		delay, ok := b.Next(err)
		if !ok {
			return err
		}
		obsRetries.Inc()
		obsRetryBackoffNanos.Observe(int64(delay))
	}
}

// Size returns the segment's byte length.
func (w *Writer) Size() int64 { return w.size }

// NextSeq returns the sequence number the next record will receive.
func (w *Writer) NextSeq() uint64 { return w.nextSeq }

// Close fsyncs and closes the segment file.
func (w *Writer) Close() error {
	err := w.Sync()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: segment %s: %w", w.name, cerr)
	}
	return err
}

// Abandon closes the segment file, with no fsync, and leaves the writer
// permanently failed. It is the disposal path for a writer whose segment a
// checkpoint is putting below the epoch, whatever state an exhausted retry
// left it in. Until that checkpoint is durable the segment may still be the
// final one, which recovery replays, so its records must already be synced.
func (w *Writer) Abandon() {
	_ = w.f.Close()
	w.err = fmt.Errorf("wal: segment %s: abandoned", w.name)
}
