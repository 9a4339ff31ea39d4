package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"colorfulxml/internal/core"
)

// FuzzWALDecode throws arbitrary bytes at both decoding layers of the log —
// the record framing (ReadSegment) and the change-batch payload format
// (DecodeChanges). Neither may panic or over-allocate; whatever decodes
// successfully must survive an encode/decode round trip unchanged. What the
// final segment reads as a torn tail, an earlier segment reports as
// corruption.
func FuzzWALDecode(f *testing.F) {
	// A healthy two-record segment.
	batch := EncodeChanges([]core.Change{
		{Kind: core.ChangeInsertLeaf, Elem: 2, Parent: 1, Color: "red", Tag: "movie"},
		{Kind: core.ChangeAttrs, Elem: 2, Attrs: [][2]string{{"year", "1950"}}},
	})
	seg := AppendRecord(nil, 1, batch)
	seg = AppendRecord(seg, 2, EncodeChanges([]core.Change{
		{Kind: core.ChangeContent, Elem: 2, Content: "All About Eve"},
	}))
	f.Add(seg)
	// The same segment with a torn tail and with a flipped body byte.
	f.Add(seg[:len(seg)-3])
	flipped := bytes.Clone(seg)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(flipped)
	// The segment, then a header whose length runs past the bytes left: by
	// one byte, and by the most the frame can say.
	for _, length := range []uint32{4, 0xffffffff} {
		tail := AppendRecord(nil, 3, make([]byte, 3))
		binary.LittleEndian.PutUint32(tail[0:4], length)
		f.Add(append(bytes.Clone(seg), tail...))
	}
	// A bare payload (not record-framed) and adversarial length prefixes.
	f.Add(batch)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, final := range []bool{true, false} {
			res, err := ReadSegment(data, "fuzz", final)
			if err != nil {
				continue
			}
			if !final && res.Torn {
				t.Fatal("a non-final segment read as torn")
			}
			if final && res.Torn {
				if _, err := ReadSegment(data, "fuzz", false); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("torn at %d in the final segment, but %v in an earlier one", res.TornOffset, err)
				}
			}
			for _, rec := range res.Records {
				changes, err := DecodeChanges(rec.Payload)
				if err != nil {
					continue
				}
				roundTrip(t, changes)
			}
		}
		if changes, err := DecodeChanges(data); err == nil {
			roundTrip(t, changes)
		}
	})
}

func roundTrip(t *testing.T, changes []core.Change) {
	t.Helper()
	enc := EncodeChanges(changes)
	back, err := DecodeChanges(enc)
	if err != nil {
		t.Fatalf("re-encoded batch does not decode: %v", err)
	}
	if len(back) != len(changes) {
		t.Fatalf("round trip changed batch size: %d -> %d", len(changes), len(back))
	}
	for i := range changes {
		if changes[i].Kind != back[i].Kind || changes[i].Elem != back[i].Elem ||
			changes[i].Parent != back[i].Parent || changes[i].Color != back[i].Color ||
			changes[i].Tag != back[i].Tag || changes[i].Content != back[i].Content ||
			!reflect.DeepEqual(changes[i].Attrs, back[i].Attrs) {
			t.Fatalf("round trip changed change %d: %+v -> %+v", i, changes[i], back[i])
		}
	}
}
