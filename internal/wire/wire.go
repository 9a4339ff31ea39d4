// Package wire implements the length-prefixed binary protocol spoken
// between mctserved and the client package. A conversation is a stream of
// frames:
//
//	frame  := len:uint32le crc:uint32le type:byte payload
//	len    =  1 + len(payload)        (covers type + payload)
//	crc    =  CRC32-C(type | payload) (same Castagnoli discipline as the WAL)
//
// The checksum lets the receiver distinguish a torn stream (a peer died
// mid-frame: ErrShort / io.ErrUnexpectedEOF) from an actively corrupted one
// (bad CRC, impossible length: CorruptError wrapping ErrCorrupt), exactly
// the torn-vs-corrupt split the WAL reader makes for segment tails.
// Message payloads are varint-framed and strictly bounds-checked
// (messages.go), so fuzzed or truncated input fails cleanly instead of
// panicking or over-allocating.
//
// After the Hello/Welcome handshake the client sends one request at a time
// and reads its whole answer: one frame, except for Query and Execute,
// which are both answered by a stream of Items frames ending with the one
// whose More flag is false. A prepared execution is therefore one round
// trip, like a one-shot query; the server keeps no result between requests.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ProtoVersion is the protocol generation carried in Hello/Welcome. A
// server refuses a client whose version it does not speak; the handshake is
// the only place the version appears, so bumping it is a flag day per
// connection, not per message. Version 2 answers Execute with an Items
// stream, as Query; version 1 answered it with a server-side cursor that
// cost the client a second round trip.
const ProtoVersion = 2

// frameHeaderSize is len + crc + type.
const frameHeaderSize = 9

// MaxFrame bounds the length field: 1 (type byte) + the largest payload a
// peer may send. Large query results are chunked well below this by the
// server; the bound exists so a corrupt or hostile length prefix cannot
// drive a multi-gigabyte allocation.
const MaxFrame = 16 << 20

// Type tags a frame's payload format. Unknown types are a protocol error at
// the message layer, never a panic at the frame layer.
type Type uint8

// Frame types. Requests are client->server; each names its response type.
const (
	TypeInvalid  Type = 0
	TypeHello    Type = 1 // -> Welcome
	TypeWelcome  Type = 2
	TypeError    Type = 3 // any request may answer with Error
	TypePing     Type = 4 // -> Pong
	TypePong     Type = 5
	TypeQuery    Type = 6 // -> Items stream (one-shot query)
	TypeItems    Type = 7
	TypePrepare  Type = 8 // -> Prepared
	TypePrepared Type = 9
	TypeExecute  Type = 10 // -> Items stream (prepared statement)
	// 11–13 carried version 1's server-side cursor and are unassigned: a
	// peer sending them gets CodeBadRequest.
	TypeCloseStmt  Type = 14 // -> Ack
	TypeAck        Type = 15
	TypeUpdate     Type = 16 // -> Updated
	TypeUpdated    Type = 17
	TypeHealth     Type = 18 // -> HealthInfo
	TypeHealthInfo Type = 19
	TypeStats      Type = 20 // -> StatsInfo
	TypeStatsInfo  Type = 21
	TypeDrain      Type = 22 // unsolicited server notice: draining, no more requests
)

func (t Type) String() string {
	switch t {
	case TypeHello:
		return "Hello"
	case TypeWelcome:
		return "Welcome"
	case TypeError:
		return "Error"
	case TypePing:
		return "Ping"
	case TypePong:
		return "Pong"
	case TypeQuery:
		return "Query"
	case TypeItems:
		return "Items"
	case TypePrepare:
		return "Prepare"
	case TypePrepared:
		return "Prepared"
	case TypeExecute:
		return "Execute"
	case TypeCloseStmt:
		return "CloseStmt"
	case TypeAck:
		return "Ack"
	case TypeUpdate:
		return "Update"
	case TypeUpdated:
		return "Updated"
	case TypeHealth:
		return "Health"
	case TypeHealthInfo:
		return "HealthInfo"
	case TypeStats:
		return "Stats"
	case TypeStatsInfo:
		return "StatsInfo"
	case TypeDrain:
		return "Drain"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ErrShort reports a frame cut off by the end of the buffer — the stream
// equivalent of a torn WAL tail: more bytes may simply not have arrived.
var ErrShort = errors.New("wire: short frame")

// ErrCorrupt is the sentinel under every CorruptError.
var ErrCorrupt = errors.New("wire: corrupt frame")

// CorruptError reports a frame that cannot be valid no matter how many more
// bytes arrive: a length beyond MaxFrame, or a checksum mismatch.
type CorruptError struct {
	Offset int // byte offset of the frame start within the decoded buffer
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wire: corrupt frame at offset %d: %s", e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcOf checksums a frame body (type byte + payload) with CRC32-C.
func crcOf(typ Type, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, []byte{byte(typ)})
	return crc32.Update(crc, castagnoli, payload)
}

// AppendFrame appends one encoded frame to buf and returns the extended
// slice.
func AppendFrame(buf []byte, typ Type, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(1+len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crcOf(typ, payload))
	buf = append(buf, byte(typ))
	return append(buf, payload...)
}

// DecodeFrame decodes the frame starting at buf[off]. It returns the frame
// type, its payload (aliasing buf), and the offset of the next frame.
// Truncation reports ErrShort; impossible lengths and checksum mismatches
// report a CorruptError.
func DecodeFrame(buf []byte, off int) (typ Type, payload []byte, next int, err error) {
	if off < 0 || off > len(buf) {
		return 0, nil, off, fmt.Errorf("%w: offset %d out of range", ErrShort, off)
	}
	rest := buf[off:]
	if len(rest) < frameHeaderSize {
		return 0, nil, off, ErrShort
	}
	flen := binary.LittleEndian.Uint32(rest[0:4])
	crc := binary.LittleEndian.Uint32(rest[4:8])
	if flen < 1 {
		return 0, nil, off, &CorruptError{Offset: off, Reason: "frame length 0"}
	}
	if flen > MaxFrame {
		return 0, nil, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("frame length %d exceeds max %d", flen, MaxFrame)}
	}
	if uint32(len(rest)-8) < flen {
		return 0, nil, off, ErrShort
	}
	typ = Type(rest[8])
	payload = rest[9 : 8+flen]
	if got := crcOf(typ, payload); got != crc {
		return 0, nil, off, &CorruptError{Offset: off, Reason: fmt.Sprintf("checksum mismatch: header %08x body %08x", crc, got)}
	}
	return typ, payload, off + 8 + int(flen), nil
}

// Writer frames messages onto a stream. Not safe for concurrent use.
type Writer struct {
	bw  *bufio.Writer
	hdr [frameHeaderSize]byte
}

// NewWriter wraps w in a buffered frame writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// WriteFrame writes one frame and flushes it to the underlying stream.
func (w *Writer) WriteFrame(typ Type, payload []byte) error {
	if 1+len(payload) > MaxFrame {
		return fmt.Errorf("wire: payload of %d bytes exceeds max frame %d", len(payload), MaxFrame)
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(1+len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:8], crcOf(typ, payload))
	w.hdr[8] = byte(typ)
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	obsFramesWritten.Inc()
	obsBytesWritten.Add(uint64(frameHeaderSize + len(payload)))
	return nil
}

// Reader deframes messages from a stream. Not safe for concurrent use.
type Reader struct {
	br  *bufio.Reader
	hdr [frameHeaderSize]byte
}

// NewReader wraps r in a buffered frame reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// ReadFrame reads the next frame. A clean EOF at a frame boundary returns
// io.EOF; EOF mid-frame returns io.ErrUnexpectedEOF (torn); a bad length or
// checksum returns a CorruptError. Every payload is freshly allocated and
// never reused: the values decoded from it are views into it.
func (r *Reader) ReadFrame() (Type, []byte, error) {
	// The stream header is len+crc (8 bytes); the type byte is part of the
	// length-counted body.
	if _, err := io.ReadFull(r.br, r.hdr[:8]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: torn frame header: %w", err)
	}
	flen := binary.LittleEndian.Uint32(r.hdr[0:4])
	crc := binary.LittleEndian.Uint32(r.hdr[4:8])
	if flen < 1 {
		obsDecodeErrors.Inc()
		return 0, nil, &CorruptError{Reason: "frame length 0"}
	}
	if flen > MaxFrame {
		obsDecodeErrors.Inc()
		return 0, nil, &CorruptError{Reason: fmt.Sprintf("frame length %d exceeds max %d", flen, MaxFrame)}
	}
	body := make([]byte, flen)
	if _, err := io.ReadFull(r.br, body); err != nil {
		if errors.Is(err, io.EOF) {
			// A header with no body at all is just as torn as a partial one.
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("wire: torn frame body: %w", err)
	}
	typ := Type(body[0])
	payload := body[1:]
	if got := crcOf(typ, payload); got != crc {
		obsDecodeErrors.Inc()
		return 0, nil, &CorruptError{Reason: fmt.Sprintf("checksum mismatch: header %08x body %08x", crc, got)}
	}
	obsFramesRead.Inc()
	obsBytesRead.Add(uint64(frameHeaderSize + len(payload)))
	return typ, payload, nil
}
