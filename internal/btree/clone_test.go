package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func snapshot(m *Map[string, uint64]) map[string]uint64 {
	out := map[string]uint64{}
	m.Ascend(func(k string, v uint64) bool {
		out[k] = v
		return true
	})
	return out
}

func sameContents(t *testing.T, got *Map[string, uint64], want map[string]uint64) {
	t.Helper()
	if have := snapshot(got); fmt.Sprint(have) != fmt.Sprint(want) || got.Len() != len(want) {
		t.Fatalf("map holds %d keys, want %d (or different pairs)", got.Len(), len(want))
	}
}

// TestCloneIsolation: mutations on either side of a Clone are invisible to
// the other side, across inserts, overwrites and deletes.
func TestCloneIsolation(t *testing.T) {
	m := &Map[string, uint64]{}
	for i := 0; i < 3000; i++ {
		m.Put(fmt.Sprintf("k%05d", i), uint64(i))
	}
	frozen := snapshot(m)
	cl := m.Clone()
	for i := 0; i < 3000; i += 2 {
		if !cl.Delete(fmt.Sprintf("k%05d", i)) {
			t.Fatalf("clone delete %d failed", i)
		}
	}
	for i := 1; i < 1000; i += 6 {
		cl.Put(fmt.Sprintf("k%05d", i), 7)
	}
	for i := 3000; i < 4000; i++ {
		cl.Put(fmt.Sprintf("k%05d", i), uint64(i))
	}
	sameContents(t, m, frozen)

	cloneState := snapshot(cl)
	for i := 0; i < 500; i++ {
		m.Put(fmt.Sprintf("x%05d", i), uint64(i))
		m.Delete(fmt.Sprintf("k%05d", i*2+1))
	}
	sameContents(t, cl, cloneState)
}

// TestCloneChain: repeated clone-then-mutate keeps every generation intact,
// matching the snapshot lifecycle of the serving path.
func TestCloneChain(t *testing.T) {
	cur := &Map[string, uint64]{}
	var states []map[string]uint64
	var maps []*Map[string, uint64]
	rng := rand.New(rand.NewSource(7))
	for g := 0; g < 8; g++ {
		for i := 0; i < 400; i++ {
			cur.Put(fmt.Sprintf("g%02d-%04d", g, rng.Intn(300)), uint64(i))
		}
		if g%2 == 1 {
			for i := 0; i < 100; i++ {
				cur.Delete(fmt.Sprintf("g%02d-%04d", g-1, i))
			}
		}
		maps = append(maps, cur)
		states = append(states, snapshot(cur))
		cur = cur.Clone()
	}
	for i, m := range maps {
		sameContents(t, m, states[i])
	}
}

// TestCloneConcurrentReads: a frozen map serves concurrent readers while
// its clone is being mutated (run under -race to be meaningful).
func TestCloneConcurrentReads(t *testing.T) {
	m := &Map[string, uint64]{}
	for i := 0; i < 5000; i++ {
		m.Put(fmt.Sprintf("k%05d", i), uint64(i))
	}
	cl := m.Clone()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 200; n++ {
				i := rng.Intn(5000)
				if v, ok := m.Get(fmt.Sprintf("k%05d", i)); !ok || v != uint64(i) {
					t.Errorf("Get(%d) = %d %v", i, v, ok)
					return
				}
				count := 0
				m.Leaves("k00100", func(keys []string, _ []uint64) bool {
					count += len(keys)
					return count < 100
				})
				if count < 100 {
					t.Errorf("leaves from k00100 hold %d keys", count)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < 5000; i++ {
		cl.Delete(fmt.Sprintf("k%05d", i))
		cl.Put(fmt.Sprintf("n%05d", i), uint64(i))
	}
	wg.Wait()
}

// TestSeekLT: the greatest key below a probe, against a sorted model, with
// leaves emptied by deletes in the way.
func TestSeekLT(t *testing.T) {
	m := &Map[string, uint64]{}
	var keys []string
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k%05d", 3*i)
		m.Put(k, uint64(i))
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
			k, _, ok := m.SeekLT(probe)
			if ok != (at > 0) || ok && k != keys[at-1] {
				t.Fatalf("SeekLT(%s) = %q %v, want below index %d of the model", probe, k, ok, at)
			}
		}
	}
	check()
	// Empty whole leaves in the middle and at the low end.
	kept := keys[:0:0]
	for i, k := range keys {
		if (i >= 10 && i < 300) || (i >= 900 && i < 1400) || i < 3 {
			m.Delete(k)
		} else {
			kept = append(kept, k)
		}
	}
	keys = kept
	check()
}
