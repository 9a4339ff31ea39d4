package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestMessageRoundTrip covers every message type: encode then decode must
// be the identity.
func TestMessageRoundTrip(t *testing.T) {
	items := []Item{
		{Node: 1, Color: "red", Value: "Item 0"},
		{Node: 0, Color: "", Value: "42"},
		{Node: 1<<63 + 5, Color: "green", Value: strings.Repeat("v", 300)},
	}
	cases := []struct {
		name   string
		msg    any
		decode func([]byte) (any, error)
		enc    []byte
	}{
		{"hello", Hello{Proto: ProtoVersion, Client: "bench-7"},
			func(p []byte) (any, error) { return DecodeHello(p) }, Hello{Proto: ProtoVersion, Client: "bench-7"}.Encode()},
		{"welcome", Welcome{Proto: ProtoVersion, Server: "mctserved/1"},
			func(p []byte) (any, error) { return DecodeWelcome(p) }, Welcome{Proto: ProtoVersion, Server: "mctserved/1"}.Encode()},
		{"error", ErrorMsg{Code: CodeReadOnly, Msg: "colorful: read-only"},
			func(p []byte) (any, error) { return DecodeError(p) }, ErrorMsg{Code: CodeReadOnly, Msg: "colorful: read-only"}.Encode()},
		{"query", Query{Src: `document("db")/{red}child::a`, DeadlineMillis: 1500},
			func(p []byte) (any, error) { return DecodeQuery(p) }, Query{Src: `document("db")/{red}child::a`, DeadlineMillis: 1500}.Encode()},
		{"items", Items{Rows: 7, More: true, Items: items},
			func(p []byte) (any, error) { return DecodeItems(p) }, Items{Rows: 7, More: true, Items: items}.Encode()},
		{"items-empty", Items{Items: []Item{}},
			func(p []byte) (any, error) { return DecodeItems(p) }, Items{Items: []Item{}}.Encode()},
		{"prepare", Prepare{Src: "q"},
			func(p []byte) (any, error) { return DecodePrepare(p) }, Prepare{Src: "q"}.Encode()},
		{"prepared", Prepared{Stmt: 99},
			func(p []byte) (any, error) { return DecodePrepared(p) }, Prepared{Stmt: 99}.Encode()},
		{"execute", Execute{Stmt: 3, DeadlineMillis: 10},
			func(p []byte) (any, error) { return DecodeExecute(p) }, Execute{Stmt: 3, DeadlineMillis: 10}.Encode()},
		{"close-stmt", CloseStmt{Stmt: 3},
			func(p []byte) (any, error) { return DecodeCloseStmt(p) }, CloseStmt{Stmt: 3}.Encode()},
		{"update", Update{Src: "insert ...", DeadlineMillis: 77},
			func(p []byte) (any, error) { return DecodeUpdate(p) }, Update{Src: "insert ...", DeadlineMillis: 77}.Encode()},
		{"updated", Updated{Tuples: 5, NodesTouched: 17},
			func(p []byte) (any, error) { return DecodeUpdated(p) }, Updated{Tuples: 5, NodesTouched: 17}.Encode()},
		{"health-info", HealthInfo{State: 1, Cause: "io fault", Degrades: 2, Heals: 1},
			func(p []byte) (any, error) { return DecodeHealthInfo(p) }, HealthInfo{State: 1, Cause: "io fault", Degrades: 2, Heals: 1}.Encode()},
		{"stats-info", StatsInfo{Connections: 9, Open: 2, Requests: 100, Responses: 99, Errors: 3, StmtsOpen: 4, Draining: true},
			func(p []byte) (any, error) { return DecodeStatsInfo(p) }, StatsInfo{Connections: 9, Open: 2, Requests: 100, Responses: 99, Errors: 3, StmtsOpen: 4, Draining: true}.Encode()},
		{"drain", Drain{Reason: "sigterm"},
			func(p []byte) (any, error) { return DecodeDrain(p) }, Drain{Reason: "sigterm"}.Encode()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.decode(tc.enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.msg) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tc.msg)
			}
		})
	}
}

// TestDecodeRejectsTrailingBytes: strict decoding refuses payloads with
// extra bytes, which would otherwise mask framing bugs.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	enc := append(Prepared{Stmt: 1}.Encode(), 0xff)
	if _, err := DecodePrepared(enc); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("trailing bytes: got %v, want ErrBadMessage", err)
	}
}

// TestDecodeTruncated: every truncation of a representative payload fails
// cleanly with ErrBadMessage, never a panic.
func TestDecodeTruncated(t *testing.T) {
	enc := Items{Rows: 3, More: true, Items: []Item{{Node: 9, Color: "red", Value: "hello"}}}.Encode()
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeItems(enc[:i]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
}

// TestDecodeItemsHugeCount: an adversarial count prefix is rejected before
// allocation.
func TestDecodeItemsHugeCount(t *testing.T) {
	// rows=0, more=0, count=2^60
	enc := []byte{0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}
	if _, err := DecodeItems(enc); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("huge count: got %v, want ErrBadMessage", err)
	}
}

// TestAppendItemsSizesOnce: a stream's frames decode onto one slice,
// allocated on the first frame with room for the stream's Rows, each
// repeated colour shares the string of the item before it, and each value
// is a view into its frame, so a row costs no allocation at all.
func TestAppendItemsSizesOnce(t *testing.T) {
	first := Items{Rows: 5, More: true, Items: []Item{
		{Node: 1, Color: "red", Value: "a"}, {Node: 2, Color: "red", Value: "b"}, {Node: 3, Color: "green", Value: "c"},
	}}.Encode()
	last := Items{Rows: 5, Items: []Item{{Node: 4, Color: "green", Value: "d"}, {Node: 5, Color: "green", Value: "e"}}}.Encode()

	m, err := AppendItems(nil, first)
	if err != nil || !m.More || m.Rows != 5 || len(m.Items) != 3 || cap(m.Items) != 5 {
		t.Fatalf("first frame: %+v (cap %d), %v; want 3 of 5 rows, cap 5", m, cap(m.Items), err)
	}
	out := m.Items
	m, err = AppendItems(out, last)
	if err != nil || m.More || len(m.Items) != 5 || &m.Items[0] != &out[0] {
		t.Fatalf("last frame: %+v, %v; want 5 rows on the first frame's array", m, err)
	}
	for i, want := range []string{"a", "b", "c", "d", "e"} {
		if m.Items[i].Value != want || m.Items[i].Node != uint64(i+1) {
			t.Fatalf("item %d = %+v, want node %d value %q", i, m.Items[i], i+1, want)
		}
	}
	for _, i := range []int{1, 3, 4} { // the same colour as the item before, across the frame seam too
		if unsafe.StringData(m.Items[i].Color) != unsafe.StringData(m.Items[i-1].Color) {
			t.Fatalf("item %d copied colour %q instead of sharing it", i, m.Items[i].Color)
		}
	}

	var scan []Item
	for i := 0; i < 100; i++ {
		scan = append(scan, Item{Node: uint64(i), Color: "red", Value: "value"})
	}
	payload := Items{Rows: 100, Items: scan}.Encode()
	// One slice and one colour: the values are views into the payload.
	if allocs := testing.AllocsPerRun(20, func() { AppendItems(nil, payload) }); allocs > 2 {
		t.Fatalf("decoding 100 one-colour items allocated %v times, want at most 2", allocs)
	}
}

// TestFrameRoundTrip: AppendFrame then DecodeFrame is the identity, and
// consecutive frames decode in sequence.
func TestFrameRoundTrip(t *testing.T) {
	buf := AppendFrame(nil, TypeHello, Hello{Proto: 1, Client: "c"}.Encode())
	buf = AppendFrame(buf, TypePing, nil)
	buf = AppendFrame(buf, TypeItems, Items{Items: []Item{{Node: 4, Color: "red", Value: "x"}}}.Encode())

	var types []Type
	off := 0
	for off < len(buf) {
		typ, payload, next, err := DecodeFrame(buf, off)
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		types = append(types, typ)
		if typ == TypeHello {
			h, err := DecodeHello(payload)
			if err != nil || h.Client != "c" {
				t.Fatalf("hello payload: %+v, %v", h, err)
			}
		}
		off = next
	}
	want := []Type{TypeHello, TypePing, TypeItems}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("types = %v, want %v", types, want)
	}
}

// TestFrameTornVsCorrupt: truncation is ErrShort (more bytes might fix
// it); a flipped byte or absurd length is CorruptError (no bytes can).
func TestFrameTornVsCorrupt(t *testing.T) {
	frame := AppendFrame(nil, TypeQuery, Query{Src: "q"}.Encode())
	for i := 0; i < len(frame); i++ {
		if _, _, _, err := DecodeFrame(frame[:i], 0); !errors.Is(err, ErrShort) {
			t.Fatalf("truncation at %d: got %v, want ErrShort", i, err)
		}
	}
	for i := 4; i < len(frame); i++ { // flipping length bytes may stay ErrShort; body/crc flips must be corrupt
		bad := bytes.Clone(frame)
		bad[i] ^= 0x40
		_, _, _, err := DecodeFrame(bad, 0)
		if err == nil {
			t.Fatalf("flip at %d decoded successfully", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", i, err)
		}
	}
	huge := make([]byte, frameHeaderSize)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, _, err := DecodeFrame(huge, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized length: got %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	_, _, _, err := DecodeFrame(huge, 0)
	if !errors.As(err, &ce) {
		t.Fatalf("oversized length: %v is not a *CorruptError", err)
	}
}

// TestReaderWriter drives the stream layer: frames written through Writer
// come back typed and intact through Reader, a clean close yields io.EOF at
// a boundary, and a mid-frame cut yields a torn-stream error.
func TestReaderWriter(t *testing.T) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	msgs := []struct {
		typ     Type
		payload []byte
	}{
		{TypeHello, Hello{Proto: 1, Client: "t"}.Encode()},
		{TypePong, nil},
		{TypeItems, Items{Rows: 1, More: true, Items: []Item{{Node: 2, Color: "green", Value: strings.Repeat("x", 70000)}}}.Encode()},
	}
	for _, m := range msgs {
		if err := w.WriteFrame(m.typ, m.payload); err != nil {
			t.Fatalf("write %v: %v", m.typ, err)
		}
	}

	r := NewReader(bytes.NewReader(stream.Bytes()))
	for _, m := range msgs {
		typ, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if typ != m.typ || !bytes.Equal(payload, m.payload) {
			t.Fatalf("frame mismatch: got %v (%d bytes), want %v (%d bytes)", typ, len(payload), m.typ, len(m.payload))
		}
	}
	if _, _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("at boundary: got %v, want io.EOF", err)
	}

	torn := NewReader(bytes.NewReader(stream.Bytes()[:stream.Len()-3]))
	var err error
	for err == nil {
		_, _, err = torn.ReadFrame()
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn stream: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecodedValuesOwnTheirFrame: decoded values are views into their
// frame's payload, so reading the next frame from the same Reader must leave
// them as they were: ReadFrame never reuses a payload.
func TestDecodedValuesOwnTheirFrame(t *testing.T) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	for _, v := range []string{"first", "again"} { // the same length: a reused buffer would be overwritten in place
		items := Items{Rows: 2, More: v == "first", Items: []Item{{Node: 1, Color: "red", Value: v}}}
		if err := w.WriteFrame(TypeItems, items.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&stream)
	_, payload, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	m, err := AppendItems(nil, payload)
	if err != nil || len(m.Items) != 1 || m.Items[0].Value != "first" {
		t.Fatalf("first frame: %+v, %v", m, err)
	}
	if v := m.Items[0].Value; unsafe.StringData(v) != &payload[len(payload)-len(v)] {
		t.Fatal("the value was copied out of its frame, not viewed in it")
	}
	if _, _, err := r.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if got := m.Items[0].Value; got != "first" {
		t.Fatalf("reading the next frame changed the first frame's value to %q", got)
	}
}

// TestWriterRejectsOversizedPayload: the writer refuses to emit a frame the
// reader would classify as corrupt.
func TestWriterRejectsOversizedPayload(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteFrame(TypeItems, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// repeatReader reads one encoded frame over and over.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestFramesAllocateOnlyTheBody: writing a frame allocates nothing, and
// reading one allocates only its body, which the values decoded from it view.
func TestFramesAllocateOnlyTheBody(t *testing.T) {
	payload := Items{Rows: 1, Items: []Item{{Node: 7, Color: "green", Value: "42"}}}.Encode()
	w := NewWriter(io.Discard)
	if a := testing.AllocsPerRun(100, func() {
		if err := w.WriteFrame(TypeItems, payload); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("WriteFrame allocates %v times; want 0", a)
	}
	r := NewReader(&repeatReader{frame: AppendFrame(nil, TypeItems, payload)})
	if a := testing.AllocsPerRun(100, func() {
		if typ, got, err := r.ReadFrame(); err != nil || typ != TypeItems || !bytes.Equal(got, payload) {
			t.Fatalf("ReadFrame = %v, %x, %v", typ, got, err)
		}
	}); a != 1 {
		t.Errorf("ReadFrame allocates %v times; want 1 (the body)", a)
	}
}
