package cowarray

import (
	"math/rand"
	"runtime"
	"testing"
)

// modelled pairs an array with the map it must behave like.
type modelled struct {
	arr   *Array[uint64]
	model map[uint64]uint64
}

func (m *modelled) clone() *modelled {
	c := &modelled{arr: m.arr.Clone(), model: make(map[uint64]uint64, len(m.model))}
	for k, v := range m.model {
		c.model[k] = v
	}
	return c
}

// check compares the array with its model: length, every modelled key, a
// few absent keys, and an ascending iteration that visits exactly the model.
func (m *modelled) check(t testing.TB, absent []uint64) {
	t.Helper()
	if m.arr.Len() != len(m.model) {
		t.Fatalf("Len = %d, model has %d", m.arr.Len(), len(m.model))
	}
	for k, want := range m.model {
		if got, ok := m.arr.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d, %v; model has %d", k, got, ok, want)
		}
	}
	for _, k := range absent {
		if _, inModel := m.model[k]; inModel {
			continue
		}
		if got, ok := m.arr.Get(k); ok {
			t.Fatalf("Get(%d) = %d, model has no such key", k, got)
		}
	}
	seen, last, first := 0, uint64(0), true
	m.arr.Ascend(func(i, v uint64) bool {
		if !first && i <= last {
			t.Fatalf("Ascend visited %d after %d", i, last)
		}
		if want, ok := m.model[i]; !ok || want != v {
			t.Fatalf("Ascend visited %d=%d, model has %d, %v", i, v, want, ok)
		}
		first, last = false, i
		seen++
		return true
	})
	if seen != len(m.model) {
		t.Fatalf("Ascend visited %d slots, model has %d", seen, len(m.model))
	}
}

// pageSlots is the number of ids one directory page covers.
const pageSlots = ChunkSize * ChunkSize

// windows are the index ranges runOps writes in, so that chunks and
// directory pages are shared, copied, emptied and refilled, and the top
// slice grows: a wide window over four chunks, windows across a chunk edge
// and across two directory-page edges, narrow windows alone in their pages
// (pages 3 and 7), which empty and refill, and one far away.
var windows = [7]struct{ base, width uint64 }{
	{0, 256},
	{ChunkSize - 3, 6},
	{2*pageSlots - 100, 200},
	{3*pageSlots + 1000, 3},
	{5*pageSlots - 30, 60},
	{7*pageSlots + 5*ChunkSize - 1, 2},
	{40 * pageSlots, 16},
}

// runOps interprets a byte string as a sequence of set / delete / clone /
// switch operations over a small family of arrays that were cloned from one
// another, checking every member against its own model after every step: a
// write to one member that showed through in another — parent to clone or
// clone to parent — fails that member's check.
func runOps(t testing.TB, ops []byte) {
	family := []*modelled{{arr: &Array[uint64]{}, model: map[uint64]uint64{}}}
	cur := 0
	var touched []uint64
	for pc := 0; pc+2 < len(ops); pc += 3 {
		op, a, b := ops[pc], uint64(ops[pc+1]), uint64(ops[pc+2])
		w := windows[a%7]
		idx := w.base + b%w.width
		m := family[cur]
		switch op % 8 {
		case 0, 1, 2, 3:
			m.arr.Set(idx, a<<8|b)
			m.model[idx] = a<<8 | b
			touched = append(touched, idx)
		case 4, 5:
			_, want := m.model[idx]
			if got := m.arr.Delete(idx); got != want {
				t.Fatalf("Delete(%d) = %v, model says %v", idx, got, want)
			}
			delete(m.model, idx)
			touched = append(touched, idx)
		case 6:
			if len(family) < 6 {
				family = append(family, m.clone())
			}
		case 7:
			cur = int(a) % len(family)
		}
		for _, f := range family {
			f.check(t, touched)
		}
	}
}

func TestRandomOpsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		ops := make([]byte, 3*400)
		rng.Read(ops)
		runOps(t, ops)
	}
}

func FuzzOpsAgainstMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 6, 0, 0, 0, 1, 3, 7, 1, 0, 4, 1, 2, 0, 9, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*300 {
			ops = ops[:3*300]
		}
		runOps(t, ops)
	})
}

// TestCloneIsolation spells the two directions out on one chunk.
func TestCloneIsolation(t *testing.T) {
	parent := &Array[uint64]{}
	for i := uint64(0); i < 2*ChunkSize; i++ {
		parent.Set(i, i)
	}
	clone := parent.Clone()
	parent.Set(7, 700)
	parent.Delete(8)
	clone.Set(9, 900)
	clone.Set(5*ChunkSize, 1) // a chunk in the clone's directory page only
	if v, _ := clone.Get(7); v != 7 {
		t.Fatalf("clone sees parent's write: %d", v)
	}
	if _, ok := clone.Get(8); !ok {
		t.Fatal("clone sees parent's delete")
	}
	if v, _ := parent.Get(9); v != 9 {
		t.Fatalf("parent sees clone's write: %d", v)
	}
	if _, ok := parent.Get(5 * ChunkSize); ok {
		t.Fatal("parent sees clone's growth")
	}
	if parent.Len() != 2*ChunkSize-1 || clone.Len() != 2*ChunkSize+1 {
		t.Fatalf("Len: parent %d, clone %d", parent.Len(), clone.Len())
	}
}

// TestWriteCopiesOneChunk: after a clone, a write allocates the directory and
// the chunk it lands in, once; further writes to that chunk allocate nothing.
func TestWriteCopiesOneChunk(t *testing.T) {
	a := &Array[uint64]{}
	for i := uint64(0); i < 64*ChunkSize; i++ {
		a.Set(i, i)
	}
	b := a.Clone()
	b.Set(3, 1)
	if n := testing.AllocsPerRun(100, func() { b.Set(4, 2) }); n != 0 {
		t.Fatalf("second write to an owned chunk allocates %v objects", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.Clone() }); n > 2 {
		t.Fatalf("Clone allocates %v objects", n)
	}
}

// TestEmptyChunkIsDropped: ids are handed out once and never reused, so a
// table whose old entries die must not keep their chunks.
func TestEmptyChunkIsDropped(t *testing.T) {
	a := &Array[uint64]{}
	for i := uint64(0); i < ChunkSize; i++ {
		a.Set(i, i)
	}
	for i := uint64(0); i < ChunkSize; i++ {
		a.Delete(i)
	}
	if a.top[0] != nil || a.Len() != 0 {
		t.Fatalf("chunk kept after its last slot was deleted (len %d)", a.Len())
	}
	a.Set(1, 1)
	if v, ok := a.Get(1); !ok || v != 1 {
		t.Fatal("slot unusable after its chunk was dropped")
	}

	// After a clone, dropping a chunk copies the path above it but not the
	// chunk, and dropping a directory page copies only the top slice.
	b := &Array[uint64]{}
	b.Set(0, 0) // alone in its chunk, beside a full one
	for i := uint64(ChunkSize); i < 2*ChunkSize; i++ {
		b.Set(i, i)
	}
	b.Set(pageSlots, 0) // alone in its directory page
	write := testing.AllocsPerRun(20, func() { b.Clone().Set(ChunkSize, 1) })
	dropChunk := testing.AllocsPerRun(20, func() { b.Clone().Delete(0) })
	dropPage := testing.AllocsPerRun(20, func() { b.Clone().Delete(pageSlots) })
	if dropPage >= dropChunk || dropChunk >= write {
		t.Fatalf("allocations after a clone: %v to drop a page, %v to drop a chunk, %v to write a slot",
			dropPage, dropChunk, write)
	}
}

// filled returns an array holding ids 0..n-1, the shape of a location table
// after a load.
func filled(n uint64) *Array[uint64] {
	a := &Array[uint64]{}
	for i := uint64(0); i < n; i++ {
		a.Set(i, i)
	}
	return a
}

// TestWriteAfterCloneCopiesLittle: a commit clones its tables and changes a
// slot or two, so the bytes one Clone plus one Set allocates are the
// per-commit price of each table. They must stay small at every table size.
func TestWriteAfterCloneCopiesLittle(t *testing.T) {
	const runs = 100
	for _, n := range []uint64{1500, 60000, 250000} {
		a := filled(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			a.Clone().Set(n/2, 1)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2048 {
			t.Errorf("%d ids: Clone and one Set allocate %d B, want at most 2 kB", n, per)
		}
	}
}

const benchIDs = 60000

var sink uint64 // keeps the Get benchmarks' loads live

func BenchmarkGetSeq(b *testing.B) {
	a := filled(benchIDs)
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		v, _ := a.Get(uint64(i % benchIDs))
		sum += v
	}
	sink = sum
}

func BenchmarkGetRand(b *testing.B) {
	a := filled(benchIDs)
	rng := rand.New(rand.NewSource(1))
	idx := make([]uint64, 1<<12)
	for i := range idx {
		idx[i] = uint64(rng.Intn(benchIDs))
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		v, _ := a.Get(idx[i&(len(idx)-1)])
		sum += v
	}
	sink = sum
}

// BenchmarkSetAfterClone is one commit's use of a table: clone it, change
// one slot of the clone. B/op is what the commit copies.
func BenchmarkSetAfterClone(b *testing.B) {
	a := filled(benchIDs)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Clone().Set(uint64(rng.Intn(benchIDs)), uint64(i))
	}
}
