package btree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func snapshot(tr *Tree) map[string][]uint64 {
	out := map[string][]uint64{}
	tr.Ascend(func(k string, vals []uint64) bool {
		out[k] = append([]uint64(nil), vals...)
		return true
	})
	return out
}

func sameContents(t *testing.T, got *Tree, want map[string][]uint64) {
	t.Helper()
	n := 0
	got.Ascend(func(k string, vals []uint64) bool {
		w, ok := want[k]
		if !ok {
			t.Fatalf("unexpected key %q", k)
		}
		if len(vals) != len(w) {
			t.Fatalf("key %q: postings %v, want %v", k, vals, w)
		}
		for i := range w {
			if vals[i] != w[i] {
				t.Fatalf("key %q: postings %v, want %v", k, vals, w)
			}
		}
		n++
		return true
	})
	if n != len(want) {
		t.Fatalf("iterated %d keys, want %d", n, len(want))
	}
}

// TestCloneIsolation: mutations on either side of a Clone are invisible to
// the other side, across inserts, posting deletes and key deletes.
func TestCloneIsolation(t *testing.T) {
	tr := New()
	for i := 0; i < 3000; i++ {
		tr.Insert(fmt.Sprintf("k%05d", i), uint64(i))
		tr.Insert(fmt.Sprintf("k%05d", i), uint64(i+100000))
	}
	frozen := snapshot(tr)

	cl := tr.Clone()
	// Mutate the clone heavily.
	for i := 0; i < 3000; i += 2 {
		if !cl.Delete(fmt.Sprintf("k%05d", i), uint64(i)) {
			t.Fatalf("clone delete %d failed", i)
		}
	}
	for i := 0; i < 1000; i += 3 {
		cl.DeleteKey(fmt.Sprintf("k%05d", i))
	}
	for i := 3000; i < 4000; i++ {
		cl.Insert(fmt.Sprintf("k%05d", i), uint64(i))
	}
	sameContents(t, tr, frozen)

	// Mutating the original must not disturb the clone either.
	cloneState := snapshot(cl)
	for i := 0; i < 500; i++ {
		tr.Insert(fmt.Sprintf("x%05d", i), uint64(i))
		tr.Delete(fmt.Sprintf("k%05d", i*2+1), uint64(i*2+1))
	}
	sameContents(t, cl, cloneState)
}

// TestCloneChain: repeated clone-then-mutate keeps every generation intact,
// matching the snapshot lifecycle of the serving path.
func TestCloneChain(t *testing.T) {
	cur := New()
	var states []map[string][]uint64
	var trees []*Tree
	rng := rand.New(rand.NewSource(7))
	for g := 0; g < 8; g++ {
		for i := 0; i < 400; i++ {
			cur.Insert(fmt.Sprintf("g%02d-%04d", g, rng.Intn(300)), uint64(i))
		}
		if g%2 == 1 {
			for i := 0; i < 100; i++ {
				cur.DeleteKey(fmt.Sprintf("g%02d-%04d", g-1, i))
			}
		}
		trees = append(trees, cur)
		states = append(states, snapshot(cur))
		cur = cur.Clone()
	}
	for i, tr := range trees {
		sameContents(t, tr, states[i])
	}
}

// TestCloneConcurrentReads: a frozen tree serves concurrent readers while
// its clone is being mutated (run under -race to be meaningful).
func TestCloneConcurrentReads(t *testing.T) {
	tr := New()
	for i := 0; i < 5000; i++ {
		tr.Insert(fmt.Sprintf("k%05d", i), uint64(i))
	}
	cl := tr.Clone()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 200; n++ {
				k := fmt.Sprintf("k%05d", rng.Intn(5000))
				if got := tr.Get(k); len(got) != 1 {
					t.Errorf("Get(%s) = %v", k, got)
					return
				}
				count := 0
				tr.Range("k00100", "k00199", func(string, []uint64) bool {
					count++
					return true
				})
				if count != 100 {
					t.Errorf("range count = %d", count)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < 5000; i++ {
		cl.Delete(fmt.Sprintf("k%05d", i), uint64(i))
		cl.Insert(fmt.Sprintf("n%05d", i), uint64(i))
	}
	wg.Wait()
}

// allocatedBy returns the bytes fn allocates (TotalAlloc is monotonic, so a
// collection in between does not hide any).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPostingsCopiedOncePerOwner: after a Clone, the first change under a key
// copies its postings list — the frozen side may still read the old one — and
// the tree owns the copy from then on. 1 000 inserts under one 20 000-value
// key cost the list plus the inserts, not the list per insert, and so do
// 1 000 deletes; other keys of the same leaf stay shared until written.
func TestPostingsCopiedOncePerOwner(t *testing.T) {
	const list = 20000
	tr := New()
	for i := 0; i < list; i++ {
		tr.Insert("red|item", uint64(2*i))
	}
	for i := 0; i < 200; i++ { // neighbors, so the leaf holds more than the one key
		tr.Insert(fmt.Sprintf("red|item%03d", i), uint64(i))
	}
	want := snapshot(tr)
	frozen := tr.Clone()

	listBytes := uint64(8 * list)
	if got := allocatedBy(func() {
		for i := 0; i < 1000; i++ {
			tr.InsertAt("red|item", list/2, uint64(2*i+1))
		}
	}); got > 4*listBytes {
		t.Fatalf("1000 inserts under one key of a cloned tree allocated %d bytes; the list is %d", got, listBytes)
	}
	if got := allocatedBy(func() {
		for i := 0; i < 1000; i++ {
			if !tr.Delete("red|item", uint64(2*i+1)) {
				t.Fatalf("delete %d failed", i)
			}
		}
	}); got > listBytes/4 {
		t.Fatalf("1000 deletes under a key the tree already owns allocated %d bytes", got)
	}
	sameContents(t, frozen, want)
	sameContents(t, tr, want) // every insert was deleted again

	// A fresh clone shares the lists again: the first delete copies one, once.
	next := tr.Clone()
	if got := allocatedBy(func() {
		for i := 0; i < 1000; i++ {
			next.Delete("red|item", uint64(2*i))
		}
	}); got > 2*listBytes {
		t.Fatalf("1000 deletes under one key of a cloned tree allocated %d bytes; the list is %d", got, listBytes)
	}
	sameContents(t, tr, want)
}

// TestSeekLT: the greatest key below a probe, against a sorted model, with
// leaves emptied by deletes in the way.
func TestSeekLT(t *testing.T) {
	tr := New()
	var keys []string
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k%05d", 3*i)
		tr.Insert(k, uint64(i))
		keys = append(keys, k)
	}
	check := func() {
		t.Helper()
		for i := -1; i <= 6001; i++ {
			probe := fmt.Sprintf("k%05d", i)
			if i < 0 {
				probe = "a"
			}
			at := sort.SearchStrings(keys, probe)
			k, vals, ok := tr.SeekLT(probe)
			if ok != (at > 0) || (ok && (k != keys[at-1] || len(vals) != 1)) {
				t.Fatalf("SeekLT(%s) = %q %v %v, want below index %d of the model", probe, k, vals, ok, at)
			}
		}
	}
	check()
	// Empty whole leaves in the middle and at the low end.
	kept := keys[:0:0]
	for i, k := range keys {
		if (i >= 10 && i < 300) || (i >= 900 && i < 1400) || i < 3 {
			tr.DeleteKey(k)
		} else {
			kept = append(kept, k)
		}
	}
	keys = kept
	check()
}
