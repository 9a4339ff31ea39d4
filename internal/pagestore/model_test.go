package pagestore

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// lineage is a store and the map model of what it holds.
type lineage struct {
	s    *Store
	recs map[RecordID][]byte
	live []RecordID // in the order they were appended
}

func (l *lineage) clone() *lineage {
	return &lineage{s: l.s.Clone(), recs: maps.Clone(l.recs), live: slices.Clone(l.live)}
}

// check compares the store with its model: every record reads back, and a
// scan of each file finds exactly the model's records.
func (l *lineage) check(files []FileID) error {
	for rid, want := range l.recs {
		var got []byte
		if err := l.s.ViewRecord(rid, func(rec []byte) { got = rec }); err != nil || !bytes.Equal(got, want) {
			return fmt.Errorf("record %v reads %x, %v; want %x", rid, got, err, want)
		}
	}
	n := 0
	for _, f := range files {
		var err error
		if serr := l.s.Scan(f, func(rid RecordID, rec []byte) bool {
			n++
			if want, ok := l.recs[rid]; !ok || !bytes.Equal(rec, want) {
				err = fmt.Errorf("scan finds %v = %x; model has %x (%v)", rid, rec, want, ok)
			}
			return err == nil
		}); serr != nil {
			return serr
		}
		if err != nil {
			return err
		}
	}
	if n != len(l.recs) {
		return fmt.Errorf("scan finds %d records; model has %d", n, len(l.recs))
	}
	return nil
}

// runPageOps interprets ops as two-byte instructions over two lineages of
// one store — append, overwrite, delete, clone one lineage from itself or
// from the other, dump and reload — and checks both lineages against their
// models after each.
func runPageOps(ops []byte) error {
	s := NewStore(0)
	files := []FileID{s.CreateFile(), s.CreateFile()}
	a := &lineage{s: s, recs: map[RecordID][]byte{}}
	ls := [2]*lineage{a, a.clone()}
	for i := 0; i+1 < len(ops); i += 2 {
		l, arg := ls[ops[i]&1], int(ops[i+1])
		switch op := (ops[i] >> 1) % 8; {
		case op < 3 || len(l.live) == 0: // append
			rec := bytes.Repeat([]byte{byte(i)}, arg*3%800)
			rid, err := l.s.AppendRecord(files[arg&1], rec)
			if err != nil {
				return fmt.Errorf("op %d: append: %w", i, err)
			}
			l.recs[rid], l.live = rec, append(l.live, rid)
		case op < 5: // overwrite, same length or shorter
			rid := l.live[arg%len(l.live)]
			rec := bytes.Repeat([]byte{byte(i) ^ 0xff}, len(l.recs[rid])*arg/255)
			if err := l.s.OverwriteRecord(rid, rec); err != nil {
				return fmt.Errorf("op %d: overwrite %v: %w", i, rid, err)
			}
			l.recs[rid] = rec
		case op == 5: // delete
			j := arg % len(l.live)
			if err := l.s.DeleteRecord(l.live[j]); err != nil {
				return fmt.Errorf("op %d: delete %v: %w", i, l.live[j], err)
			}
			delete(l.recs, l.live[j])
			l.live = slices.Delete(l.live, j, j+1)
		case op == 6: // clone this lineage, or the other one, in its place
			ls[ops[i]&1] = ls[arg&1].clone()
		default: // dump and reload
			var buf bytes.Buffer
			if err := l.s.DumpPages(&buf); err != nil {
				return fmt.Errorf("op %d: dump: %w", i, err)
			}
			r, err := ReadStore(&buf)
			if err != nil {
				return fmt.Errorf("op %d: reload: %w", i, err)
			}
			l.s = r
		}
		for k, l := range ls {
			if err := l.check(files); err != nil {
				return fmt.Errorf("op %d (%#x), lineage %d: %w", i, ops[i:i+2], k, err)
			}
		}
	}
	return nil
}

// FuzzPagesAgainstModel: two lineages of a page store, each cloned, written,
// dumped and reloaded, read back exactly what a map model says they hold.
func FuzzPagesAgainstModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 128, 512} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Add([]byte{0, 9, 1, 9, 12, 0, 0, 9, 1, 9, 14, 0, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			return
		}
		if err := runPageOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}
