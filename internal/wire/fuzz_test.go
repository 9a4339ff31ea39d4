package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at both decoding layers — the frame
// framing (DecodeFrame / Reader.ReadFrame) and every message payload
// decoder. Neither may panic or over-allocate; every failure must classify
// as torn (ErrShort / io.ErrUnexpectedEOF) or corrupt (ErrCorrupt), the
// same split the WAL reader makes; and whatever decodes successfully must
// survive an encode/decode round trip unchanged.
func FuzzWireDecode(f *testing.F) {
	// A healthy three-frame conversation.
	stream := AppendFrame(nil, TypeHello, Hello{Proto: ProtoVersion, Client: "fuzz"}.Encode())
	stream = AppendFrame(stream, TypeQuery, Query{Src: `document("db")/{red}child::a`}.Encode())
	stream = AppendFrame(stream, TypeItems, Items{Rows: 2, More: true, Items: []Item{
		{Node: 7, Color: "red", Value: "Item 7"},
		{Node: 0, Color: "", Value: "42"},
	}}.Encode())
	f.Add(stream)
	// The same stream with a torn tail and with a flipped body byte.
	f.Add(stream[:len(stream)-4])
	flipped := bytes.Clone(stream)
	flipped[len(flipped)-1] ^= 0x20
	f.Add(flipped)
	// An unknown frame type with a valid checksum.
	f.Add(AppendFrame(nil, Type(250), []byte("mystery")))
	// Bare payloads (not frame-wrapped) and adversarial prefixes.
	f.Add(ErrorMsg{Code: CodeReadOnly, Msg: "colorful: read-only"}.Encode())
	f.Add(StatsInfo{Connections: 1, Draining: true}.Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame layer, buffer flavor: walk frames until error; the error must
		// classify.
		off := 0
		for off < len(data) {
			typ, payload, next, err := DecodeFrame(data, off)
			if err != nil {
				if !errors.Is(err, ErrShort) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("DecodeFrame error %v is neither torn nor corrupt", err)
				}
				break
			}
			if next <= off {
				t.Fatalf("DecodeFrame did not advance: off %d -> %d", off, next)
			}
			fuzzPayload(t, typ, payload)
			off = next
		}

		// Frame layer, stream flavor: its errors must classify the same way.
		r := NewReader(bytes.NewReader(data))
		for {
			typ, payload, err := r.ReadFrame()
			if err != nil {
				if err != io.EOF && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ReadFrame error %v is neither EOF, torn, nor corrupt", err)
				}
				break
			}
			fuzzPayload(t, typ, payload)
		}

		// Message layer: throw the raw input at every decoder.
		for typ := TypeHello; typ <= TypeDrain; typ++ {
			fuzzPayload(t, typ, data)
		}
	})
}

// rtrip re-encodes a successfully decoded message and decodes it again; the
// two structs must match. (Byte-level canonicity is not required — overlong
// uvarints decode but re-encode minimally.)
func rtrip[T any](t *testing.T, m T, decode func([]byte) (T, error), encode func(T) []byte) {
	t.Helper()
	back, err := decode(encode(m))
	if err != nil {
		t.Fatalf("re-decode of re-encoded %+v: %v", m, err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, m)
	}
}

// fuzzPayload decodes payload as typ and, on success, checks the
// encode/decode round trip.
func fuzzPayload(t *testing.T, typ Type, payload []byte) {
	t.Helper()
	switch typ {
	case TypeHello:
		if m, err := DecodeHello(payload); err == nil {
			rtrip(t, m, DecodeHello, Hello.Encode)
		}
	case TypeWelcome:
		if m, err := DecodeWelcome(payload); err == nil {
			rtrip(t, m, DecodeWelcome, Welcome.Encode)
		}
	case TypeError:
		if m, err := DecodeError(payload); err == nil {
			rtrip(t, m, DecodeError, ErrorMsg.Encode)
		}
	case TypeQuery:
		if m, err := DecodeQuery(payload); err == nil {
			rtrip(t, m, DecodeQuery, Query.Encode)
		}
	case TypeItems:
		m, err := DecodeItems(payload)
		if err == nil {
			rtrip(t, m, DecodeItems, Items.Encode)
		}
		// The stream decoder the client uses must agree with DecodeItems.
		a, aerr := AppendItems(nil, payload)
		if (aerr == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(a, m)) {
			t.Fatalf("AppendItems = %+v, %v; DecodeItems = %+v, %v", a, aerr, m, err)
		}
	case TypePrepare:
		if m, err := DecodePrepare(payload); err == nil {
			rtrip(t, m, DecodePrepare, Prepare.Encode)
		}
	case TypePrepared:
		if m, err := DecodePrepared(payload); err == nil {
			rtrip(t, m, DecodePrepared, Prepared.Encode)
		}
	case TypeExecute:
		if m, err := DecodeExecute(payload); err == nil {
			rtrip(t, m, DecodeExecute, Execute.Encode)
		}
	case TypeCloseStmt:
		if m, err := DecodeCloseStmt(payload); err == nil {
			rtrip(t, m, DecodeCloseStmt, CloseStmt.Encode)
		}
	case TypeUpdate:
		if m, err := DecodeUpdate(payload); err == nil {
			rtrip(t, m, DecodeUpdate, Update.Encode)
		}
	case TypeUpdated:
		if m, err := DecodeUpdated(payload); err == nil {
			rtrip(t, m, DecodeUpdated, Updated.Encode)
		}
	case TypeHealthInfo:
		if m, err := DecodeHealthInfo(payload); err == nil {
			rtrip(t, m, DecodeHealthInfo, HealthInfo.Encode)
		}
	case TypeStatsInfo:
		if m, err := DecodeStatsInfo(payload); err == nil {
			rtrip(t, m, DecodeStatsInfo, StatsInfo.Encode)
		}
	case TypeDrain:
		if m, err := DecodeDrain(payload); err == nil {
			rtrip(t, m, DecodeDrain, Drain.Encode)
		}
	}
}
