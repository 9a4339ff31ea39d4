package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestInsertGet: the lists New builds for the benchmark's probe keep each
// key's values in insertion order.
func TestInsertGet(t *testing.T) {
	l := New()
	l.Insert("b", 2)
	l.Insert("a", 1)
	l.Insert("c", 3)
	l.Insert("a", 10)
	if got := l.Get("a"); len(got) != 2 || got[0] != 1 || got[1] != 10 {
		t.Fatalf("Get(a) = %v", got)
	}
	if got := l.Get("zz"); got != nil {
		t.Fatalf("Get(zz) = %v", got)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestSplitsAndOrder(t *testing.T) {
	m := &Map[string, uint64]{}
	n := 10000
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		m.Put(fmt.Sprintf("key-%06d", i), uint64(i))
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	last, count := "", 0
	m.Ascend(func(k string, _ uint64) bool {
		if k <= last {
			t.Fatalf("out of order: %q after %q", k, last)
		}
		last = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("ascended %d keys", count)
	}
	for i := 0; i < n; i += 997 {
		if v, ok := m.Get(fmt.Sprintf("key-%06d", i)); !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d %v", i, v, ok)
		}
	}
}

// TestRange: Range and Leaves yield the keys from lo in order, Range up to
// hi, Leaves a leaf's run at a time, and both stop when told.
func TestRange(t *testing.T) {
	m := &Map[string, uint64]{}
	for i := 0; i < 1000; i++ {
		m.Put(fmt.Sprintf("%04d", i), uint64(i))
	}
	var got []string
	m.Range("0010", "0015", func(k string, _ uint64) bool {
		got = append(got, k)
		return true
	})
	if fmt.Sprint(got) != "[0010 0011 0012 0013 0014 0015]" {
		t.Fatalf("range = %v", got)
	}
	n := 0
	m.Range("0000", "0999", func(string, uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop at %d", n)
	}
	next, leaves := 500, 0
	m.Leaves("0499x", func(keys []string, vals []uint64) bool {
		if len(keys) == 0 || len(keys) > degree || len(keys) != len(vals) {
			t.Fatalf("a leaf of %d keys and %d values", len(keys), len(vals))
		}
		for i, k := range keys {
			if k != fmt.Sprintf("%04d", next) || vals[i] != uint64(next) {
				t.Fatalf("Leaves yields %s:%d, want key %d", k, vals[i], next)
			}
			next++
		}
		leaves++
		return next < 700
	})
	if next < 700 || next > 700+degree || leaves < 200/degree {
		t.Fatalf("Leaves stopped at key %d after %d leaves", next, leaves)
	}
}

func TestDelete(t *testing.T) {
	m := &Map[string, uint64]{}
	m.Put("k", 1)
	m.Put("j", 9)
	if !m.Delete("k") || m.Delete("k") || m.Delete("nope") {
		t.Fatal("Delete reports the wrong presence")
	}
	if _, ok := m.Get("k"); ok || m.Len() != 1 {
		t.Fatalf("key should be gone; len=%d", m.Len())
	}
}

func TestDeleteAcrossSplits(t *testing.T) {
	m := &Map[string, uint64]{}
	n := 5000
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("%06d", i), uint64(i))
	}
	for i := 0; i < n; i += 2 {
		if !m.Delete(fmt.Sprintf("%06d", i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if m.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", m.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		v, ok := m.Get(fmt.Sprintf("%06d", i))
		if ok != (i%2 == 1) || ok && v != uint64(i) {
			t.Fatalf("key %d: %d %v", i, v, ok)
		}
	}
}

// TestQuickAgainstMapModel drives a map with string keys and a Go map side
// by side through a random workload and checks that lookups, deletes and
// ordered iteration agree.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Map[string, uint64]{}
		model := map[string]uint64{}
		for op := 0; op < 800; op++ {
			k := fmt.Sprintf("k%03d", rng.Intn(200))
			if rng.Intn(3) < 2 {
				v := uint64(rng.Intn(1000))
				m.Put(k, v)
				model[k] = v
				continue
			}
			_, present := model[k]
			if m.Delete(k) != present {
				return false
			}
			delete(model, k)
		}
		var keys []string
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		m.Ascend(func(k string, v uint64) bool {
			ok := i < len(keys) && k == keys[i] && v == model[k]
			i++
			return ok
		})
		return i == len(keys) && m.Len() == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
