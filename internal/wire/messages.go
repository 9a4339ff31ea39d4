package wire

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// This file encodes the message payloads carried inside frames. The format
// is varint-framed in the same style as the WAL's change batches:
//
//	str    := len:uvarint bytes
//	item   := node:uvarint color:str value:str
//	items  := rows:uvarint more:byte count:uvarint item*
//
// Decoding is strict: every length is bounds-checked against the remaining
// buffer and trailing bytes are rejected, so arbitrary (fuzzed or
// corrupted) payloads fail cleanly instead of over-allocating or panicking.

// ErrBadMessage reports a payload that does not decode as its frame type
// claims. It is a protocol error, distinct from frame-level corruption.
var ErrBadMessage = fmt.Errorf("wire: malformed message")

// ErrCode classifies an Error response so typed error semantics survive the
// network. The client maps codes back onto the colorful sentinel errors.
// Codes 3 and 8 are unassigned; a client treats any code it does not know
// as an untyped server error.
type ErrCode uint8

const (
	CodeInternal      ErrCode = 0  // unclassified server failure
	CodeBadRequest    ErrCode = 1  // malformed or out-of-order request
	CodeProtocol      ErrCode = 2  // handshake/version mismatch
	CodeReadOnly      ErrCode = 4  // degraded read-only mode refused a write
	CodeFailed        ErrCode = 5  // database is in the Failed state
	CodeSessionClosed ErrCode = 6  // session or statement already closed
	CodeUnknownHandle ErrCode = 7  // statement handle not found
	CodeQuery         ErrCode = 9  // parse/execution error from the query itself
	CodeCanceled      ErrCode = 10 // deadline exceeded or canceled server-side
	CodeClosed        ErrCode = 11 // database closed underneath the server
)

func (c ErrCode) String() string {
	switch c {
	case CodeInternal:
		return "internal"
	case CodeBadRequest:
		return "bad-request"
	case CodeProtocol:
		return "protocol"
	case CodeReadOnly:
		return "read-only"
	case CodeFailed:
		return "failed"
	case CodeSessionClosed:
		return "session-closed"
	case CodeUnknownHandle:
		return "unknown-handle"
	case CodeQuery:
		return "query"
	case CodeCanceled:
		return "canceled"
	case CodeClosed:
		return "closed"
	}
	return fmt.Sprintf("code-%d", uint8(c))
}

// Item is one query result on the wire: the node's stable ID (0 for atomic
// values), the color it was selected under, and its text value.
type Item struct {
	Node  uint64
	Color string
	Value string
}

// Hello opens a connection; it must be the first frame a client sends.
type Hello struct {
	Proto  uint32
	Client string // informational client name, surfaced in server logs
}

// Welcome acknowledges a Hello.
type Welcome struct {
	Proto  uint32
	Server string
}

// ErrorMsg answers any request the server could not satisfy.
type ErrorMsg struct {
	Code ErrCode
	Msg  string
}

// Query runs a one-shot query; the response is a stream of Items frames
// ending with one whose More flag is false.
type Query struct {
	Src            string
	DeadlineMillis uint64 // remaining budget when the request was sent; 0 = none
}

// Items carries one chunk of a result stream, answering Query or Execute.
// Every frame of a stream carries the stream's total row count, so the
// receiver can size its result once, on the first frame.
type Items struct {
	Rows  uint64
	More  bool
	Items []Item
}

// Prepare compiles a statement on the connection's session.
type Prepare struct {
	Src string
}

// Prepared returns the server-side statement handle.
type Prepared struct {
	Stmt uint64
}

// Execute runs a prepared statement; the response is an Items stream, as
// for Query.
type Execute struct {
	Stmt           uint64
	DeadlineMillis uint64
}

// CloseStmt frees a prepared-statement handle; the server answers Ack.
type CloseStmt struct {
	Stmt uint64
}

// Update applies a mutation batch; the response is Updated.
type Update struct {
	Src            string
	DeadlineMillis uint64
}

// Updated reports what an Update changed.
type Updated struct {
	Tuples       uint64
	NodesTouched uint64
}

// HealthInfo mirrors colorful.HealthInfo over the wire.
type HealthInfo struct {
	State    uint8
	Cause    string
	Degrades uint64
	Heals    uint64
}

// StatsInfo is a point-in-time server snapshot, answering a Stats request.
type StatsInfo struct {
	Connections uint64 // accepted since start
	Open        uint64 // currently open
	Requests    uint64 // fully read requests
	Responses   uint64 // fully written responses
	Errors      uint64 // Error responses among them
	StmtsOpen   uint64
	Draining    bool
}

// Drain is the unsolicited notice a draining server sends before closing a
// connection; the client must not send further requests on it.
type Drain struct {
	Reason string
}

func appendString[S string | []byte](buf []byte, s S) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// decoder is a cursor with sticky error handling over a payload buffer,
// mirroring the WAL's.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrBadMessage, msg, d.off)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) uint32() uint32 {
	v := d.uvarint()
	if d.err == nil && v > 1<<32-1 {
		d.fail("value exceeds uint32")
		return 0
	}
	return uint32(v)
}

func (d *decoder) string() string { return d.stringOr("") }

// stringOr decodes a string, returning prev itself instead of a copy when
// the bytes are equal: a result's few colours then cost no allocation per
// item.
func (d *decoder) stringOr(prev string) string {
	b := d.bytes()
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// bytes decodes a length-prefixed string as the payload bytes it occupies.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(fmt.Sprintf("string length %d exceeds payload", n))
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// view decodes a string as a view into the payload instead of a copy: the
// payload must never change after decoding, and a string the caller keeps
// holds all of it alive. Reader.ReadFrame allocates every payload afresh, so
// each frame's values own it.
func (d *decoder) view() string {
	b := d.bytes()
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// finish rejects trailing bytes and returns the sticky error.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(d.buf)-d.off)
	}
	return nil
}

// Encode / Decode pairs. Every Decode is total over arbitrary input.

func (m Hello) Encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(m.Proto))
	return appendString(buf, m.Client)
}

func DecodeHello(p []byte) (Hello, error) {
	d := decoder{buf: p}
	m := Hello{Proto: d.uint32(), Client: d.string()}
	return m, d.finish()
}

func (m Welcome) Encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(m.Proto))
	return appendString(buf, m.Server)
}

func DecodeWelcome(p []byte) (Welcome, error) {
	d := decoder{buf: p}
	m := Welcome{Proto: d.uint32(), Server: d.string()}
	return m, d.finish()
}

func (m ErrorMsg) Encode() []byte {
	buf := []byte{byte(m.Code)}
	return appendString(buf, m.Msg)
}

func DecodeError(p []byte) (ErrorMsg, error) {
	d := decoder{buf: p}
	m := ErrorMsg{Code: ErrCode(d.byte()), Msg: d.string()}
	return m, d.finish()
}

func (m Query) Encode() []byte {
	buf := appendString(nil, m.Src)
	return binary.AppendUvarint(buf, m.DeadlineMillis)
}

func DecodeQuery(p []byte) (Query, error) {
	d := decoder{buf: p}
	m := Query{Src: d.string(), DeadlineMillis: d.uvarint()}
	return m, d.finish()
}

func (m Items) Encode() []byte {
	buf := AppendItemsHeader(nil, m.Rows, m.More, len(m.Items))
	for _, it := range m.Items {
		buf = AppendItem(buf, it.Node, it.Color, it.Value)
	}
	return buf
}

// AppendItemsHeader appends the fields of an Items payload that precede its
// items; the caller then appends exactly count items with AppendItem. The
// server builds each frame this way, straight from its result.
func AppendItemsHeader(buf []byte, rows uint64, more bool, count int) []byte {
	buf = binary.AppendUvarint(buf, rows)
	buf = appendBool(buf, more)
	return binary.AppendUvarint(buf, uint64(count))
}

// AppendItem appends one item of an Items payload: an Item's fields, with
// the value as a string or as the bytes it is stored as.
func AppendItem[V string | []byte](buf []byte, node uint64, color string, value V) []byte {
	buf = binary.AppendUvarint(buf, node)
	buf = appendString(buf, color)
	return appendString(buf, value)
}

// DecodeItems decodes an Items payload. Its values are views into p, which
// must not change afterwards.
func DecodeItems(p []byte) (Items, error) {
	d := decoder{buf: p}
	m, n := d.itemsHeader()
	if d.err != nil {
		return m, d.err
	}
	m.Items = d.items(make([]Item, 0, n), n)
	return m, d.finish()
}

// maxPresize caps the capacity AppendItems reserves from a stream's Rows,
// which is the peer's claim: a larger result grows by append past it.
const maxPresize = 1 << 16

// AppendItems decodes an Items payload onto dst, the one result slice a
// receiver keeps across a stream's frames, and returns the frame with Items
// set to the extended slice. A nil dst marks the first frame: it is
// allocated once, with room for the whole stream's Rows. The values are
// views into p, as in DecodeItems.
func AppendItems(dst []Item, p []byte) (Items, error) {
	d := decoder{buf: p}
	m, n := d.itemsHeader()
	if d.err != nil {
		return m, d.err
	}
	if dst == nil {
		dst = make([]Item, 0, max(n, min(m.Rows, maxPresize)))
	}
	m.Items = d.items(dst, n)
	return m, d.finish()
}

// itemsHeader decodes the fields before an Items payload's items and returns
// their count. Each item occupies at least 3 bytes, so an impossible count
// is rejected before any allocation.
func (d *decoder) itemsHeader() (Items, uint64) {
	m := Items{Rows: d.uvarint(), More: d.bool()}
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)) {
		d.fail(fmt.Sprintf("item count %d exceeds payload", n))
	}
	return m, n
}

// items appends n decoded items to dst. An item whose colour repeats the
// previous one shares its string, and every value is a view into the
// payload (see view).
func (d *decoder) items(dst []Item, n uint64) []Item {
	var color string
	if len(dst) > 0 {
		color = dst[len(dst)-1].Color
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		it := Item{Node: d.uvarint()}
		color = d.stringOr(color)
		it.Color, it.Value = color, d.view()
		dst = append(dst, it)
	}
	return dst
}

func (m Prepare) Encode() []byte { return appendString(nil, m.Src) }

func DecodePrepare(p []byte) (Prepare, error) {
	d := decoder{buf: p}
	m := Prepare{Src: d.string()}
	return m, d.finish()
}

func (m Prepared) Encode() []byte { return binary.AppendUvarint(nil, m.Stmt) }

func DecodePrepared(p []byte) (Prepared, error) {
	d := decoder{buf: p}
	m := Prepared{Stmt: d.uvarint()}
	return m, d.finish()
}

func (m Execute) Encode() []byte {
	buf := binary.AppendUvarint(nil, m.Stmt)
	return binary.AppendUvarint(buf, m.DeadlineMillis)
}

func DecodeExecute(p []byte) (Execute, error) {
	d := decoder{buf: p}
	m := Execute{Stmt: d.uvarint(), DeadlineMillis: d.uvarint()}
	return m, d.finish()
}

func (m CloseStmt) Encode() []byte { return binary.AppendUvarint(nil, m.Stmt) }

func DecodeCloseStmt(p []byte) (CloseStmt, error) {
	d := decoder{buf: p}
	m := CloseStmt{Stmt: d.uvarint()}
	return m, d.finish()
}

func (m Update) Encode() []byte {
	buf := appendString(nil, m.Src)
	return binary.AppendUvarint(buf, m.DeadlineMillis)
}

func DecodeUpdate(p []byte) (Update, error) {
	d := decoder{buf: p}
	m := Update{Src: d.string(), DeadlineMillis: d.uvarint()}
	return m, d.finish()
}

func (m Updated) Encode() []byte {
	buf := binary.AppendUvarint(nil, m.Tuples)
	return binary.AppendUvarint(buf, m.NodesTouched)
}

func DecodeUpdated(p []byte) (Updated, error) {
	d := decoder{buf: p}
	m := Updated{Tuples: d.uvarint(), NodesTouched: d.uvarint()}
	return m, d.finish()
}

func (m HealthInfo) Encode() []byte {
	buf := []byte{m.State}
	buf = appendString(buf, m.Cause)
	buf = binary.AppendUvarint(buf, m.Degrades)
	return binary.AppendUvarint(buf, m.Heals)
}

func DecodeHealthInfo(p []byte) (HealthInfo, error) {
	d := decoder{buf: p}
	m := HealthInfo{State: d.byte(), Cause: d.string(), Degrades: d.uvarint(), Heals: d.uvarint()}
	return m, d.finish()
}

func (m StatsInfo) Encode() []byte {
	buf := binary.AppendUvarint(nil, m.Connections)
	buf = binary.AppendUvarint(buf, m.Open)
	buf = binary.AppendUvarint(buf, m.Requests)
	buf = binary.AppendUvarint(buf, m.Responses)
	buf = binary.AppendUvarint(buf, m.Errors)
	buf = binary.AppendUvarint(buf, m.StmtsOpen)
	return appendBool(buf, m.Draining)
}

func DecodeStatsInfo(p []byte) (StatsInfo, error) {
	d := decoder{buf: p}
	m := StatsInfo{
		Connections: d.uvarint(),
		Open:        d.uvarint(),
		Requests:    d.uvarint(),
		Responses:   d.uvarint(),
		Errors:      d.uvarint(),
		StmtsOpen:   d.uvarint(),
		Draining:    d.bool(),
	}
	return m, d.finish()
}

func (m Drain) Encode() []byte { return appendString(nil, m.Reason) }

func DecodeDrain(p []byte) (Drain, error) {
	d := decoder{buf: p}
	m := Drain{Reason: d.string()}
	return m, d.finish()
}
