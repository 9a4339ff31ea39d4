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

// heldView is a record's bytes as ViewRecord handed them over from a frozen
// store, kept past the call, and what the model held for the record then.
type heldView struct {
	rid        RecordID
	view, want []byte
}

// maxHeldViews bounds the views a program keeps, so that checking them after
// every op stays cheap.
const maxHeldViews = 1024

// runPageOps interprets ops as two-byte instructions over two lineages of
// one store — append, overwrite, delete, clone one lineage from itself or
// from the other, dump and reload, freeze one lineage and keep a view of
// each of its records — and checks both lineages against their models, and
// every kept view against its record's bytes at the freeze, after each.
func runPageOps(ops []byte) error {
	s := NewStore(0)
	files := []FileID{s.CreateFile(), s.CreateFile()}
	a := &lineage{s: s, recs: map[RecordID][]byte{}}
	ls := [2]*lineage{a, a.clone()}
	var held []heldView
	for i := 0; i+1 < len(ops); i += 2 {
		l, arg := ls[ops[i]&1], int(ops[i+1])
		switch op := (ops[i] >> 1) % 9; {
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
		case op == 8: // freeze this lineage, and keep views of its records
			l.s.Freeze()
			for _, rid := range l.live {
				if len(held) == maxHeldViews {
					break
				}
				h := heldView{rid: rid, want: slices.Clone(l.recs[rid])}
				if err := l.s.ViewRecord(rid, func(rec []byte) { h.view = rec }); err != nil {
					return fmt.Errorf("op %d: view %v: %w", i, rid, err)
				}
				held = append(held, h)
			}
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
		for _, h := range held {
			if !bytes.Equal(h.view, h.want) {
				return fmt.Errorf("op %d (%#x): a view of %v kept since its store froze reads %x; it held %x", i, ops[i:i+2], h.rid, h.view, h.want)
			}
		}
	}
	return nil
}

// FuzzPagesAgainstModel: two lineages of a page store, each cloned, written,
// dumped, reloaded and frozen, read back exactly what a map model says they
// hold, and a record view kept from a frozen lineage never changes.
func FuzzPagesAgainstModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 128, 512} {
		ops := make([]byte, n)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Add([]byte{0, 9, 1, 9, 12, 0, 0, 9, 1, 9, 14, 0, 0, 9})
	f.Add(pastMaxPatches())
	f.Add(writesAfterFreeze())
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			return
		}
		if err := runPageOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// pastMaxPatches is a program that overwrites the records of one page more
// than MaxPatches times in each of two lineages sharing its image: five
// overwrites in each, a delete of a patched record, an append that folds one
// lineage's patches because the other appended first, a dump and reload of
// both, clones of them, and twelve more overwrites in each before a last dump
// and reload.
func pastMaxPatches() []byte {
	var ops []byte
	add := func(op, lineage byte, args ...byte) {
		for _, arg := range args {
			ops = append(ops, op<<1|lineage, arg)
		}
	}
	overwrites := []byte{255, 254, 253, 200, 255, 128, 254, 255, 253, 100, 255, 254}
	add(0, 0, 100, 100, 100) // three 300-byte records on page 0 of file 0
	add(0, 1, 0)             // lineage 1 needs a record to take the clone op,
	add(6, 1, 0)             // then clones lineage 0
	add(3, 0, overwrites[:5]...)
	add(3, 1, overwrites[:5]...)
	add(5, 0, 0)   // delete a patched record
	add(0, 0, 100) // lineage 0 appends to the shared page first,
	add(0, 1, 100) // so lineage 1's append folds its patches
	add(7, 0, 0)   // dump and reload each lineage
	add(7, 1, 0)
	add(6, 0, 0) // and clone it, to share its image again
	add(6, 1, 1)
	add(3, 0, overwrites...)
	add(3, 1, overwrites...)
	add(7, 0, 0)
	add(7, 1, 0)
	return ops
}

// writesAfterFreeze is a program that freezes a lineage holding records on a
// page it wrote itself, keeps views of them, and then writes that page
// through the frozen store: overwrites past MaxPatches, a delete, appends,
// and the same again through a clone of it, with a dump and reload between.
func writesAfterFreeze() []byte {
	var ops []byte
	add := func(op, lineage byte, args ...byte) {
		for _, arg := range args {
			ops = append(ops, op<<1|lineage, arg)
		}
	}
	overwrites := []byte{255, 254, 253, 200, 255, 128, 254, 255, 253, 100, 255}
	add(0, 0, 100, 100, 100) // three 300-byte records on page 0 of file 0
	add(3, 0, 255)           // overwritten in place: lineage 0 owns the image
	add(8, 0, 0)             // freeze lineage 0 and keep views of its records
	add(3, 0, overwrites...)
	add(5, 0, 1)
	add(0, 0, 100, 100)
	add(8, 0, 0)
	add(0, 1, 0) // lineage 1 needs a record to take the clone op,
	add(6, 1, 0) // then becomes a clone of lineage 0
	add(3, 1, overwrites...)
	add(0, 1, 100)
	add(7, 0, 0)
	add(8, 0, 0)
	add(3, 0, overwrites...)
	return ops
}
