package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertGet(t *testing.T) {
	tr := New()
	tr.Insert("b", 2)
	tr.Insert("a", 1)
	tr.Insert("c", 3)
	tr.Insert("a", 10)
	if got := tr.Get("a"); len(got) != 2 || got[0] != 1 || got[1] != 10 {
		t.Fatalf("Get(a) = %v", got)
	}
	if got := tr.Get("zz"); got != nil {
		t.Fatalf("Get(zz) = %v", got)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestSplitsAndOrder(t *testing.T) {
	tr := New()
	n := 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Insert(fmt.Sprintf("key-%06d", i), uint64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	// Ascend yields sorted keys.
	last := ""
	count := 0
	tr.Ascend(func(k string, vals []uint64) bool {
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
	// Point lookups.
	for i := 0; i < n; i += 997 {
		k := fmt.Sprintf("key-%06d", i)
		got := tr.Get(k)
		if len(got) != 1 || got[0] != uint64(i) {
			t.Fatalf("Get(%s) = %v", k, got)
		}
	}
}

func TestRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(fmt.Sprintf("%03d", i), uint64(i))
	}
	var got []string
	tr.Range("010", "015", func(k string, _ []uint64) bool {
		got = append(got, k)
		return true
	})
	want := []string{"010", "011", "012", "013", "014", "015"}
	if len(got) != len(want) {
		t.Fatalf("range = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v", got)
		}
	}
	// Early stop.
	n := 0
	tr.Range("000", "099", func(string, []uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop at %d", n)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	tr.Insert("k", 1)
	tr.Insert("k", 2)
	tr.Insert("j", 9)
	if !tr.Delete("k", 1) {
		t.Fatal("delete existing failed")
	}
	if got := tr.Get("k"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("after delete: %v", got)
	}
	if tr.Delete("k", 42) {
		t.Fatal("delete of absent value should fail")
	}
	if tr.Delete("nope", 1) {
		t.Fatal("delete of absent key should fail")
	}
	if !tr.Delete("k", 2) {
		t.Fatal("delete last value failed")
	}
	if tr.Get("k") != nil || tr.Len() != 1 {
		t.Fatalf("key should be gone; len=%d", tr.Len())
	}
	if !tr.DeleteKey("j") || tr.DeleteKey("j") {
		t.Fatal("DeleteKey behaviour wrong")
	}
}

func TestDeleteAcrossSplits(t *testing.T) {
	tr := New()
	n := 5000
	for i := 0; i < n; i++ {
		tr.Insert(fmt.Sprintf("%06d", i), uint64(i))
	}
	for i := 0; i < n; i += 2 {
		if !tr.Delete(fmt.Sprintf("%06d", i), uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		got := tr.Get(fmt.Sprintf("%06d", i))
		if i%2 == 0 && got != nil {
			t.Fatalf("deleted %d still present", i)
		}
		if i%2 == 1 && (len(got) != 1 || got[0] != uint64(i)) {
			t.Fatalf("kept %d missing", i)
		}
	}
}

// TestQuickAgainstMapModel drives the tree and a map side by side through a
// random workload and checks that lookups, deletes and ordered iteration
// agree.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		model := map[string][]uint64{}
		for op := 0; op < 800; op++ {
			k := fmt.Sprintf("k%03d", rng.Intn(200))
			switch rng.Intn(3) {
			case 0, 1:
				v := uint64(rng.Intn(1000))
				tr.Insert(k, v)
				model[k] = append(model[k], v)
			case 2:
				if vs := model[k]; len(vs) > 0 {
					idx := rng.Intn(len(vs))
					v := vs[idx]
					if !tr.Delete(k, v) {
						return false
					}
					model[k] = append(vs[:idx], vs[idx+1:]...)
					if len(model[k]) == 0 {
						delete(model, k)
					}
				} else if tr.Delete(k, 0) {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		// Every model key agrees (multiset compare).
		for k, want := range model {
			got := append([]uint64(nil), tr.Get(k)...)
			if len(got) != len(want) {
				return false
			}
			w := append([]uint64(nil), want...)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
			for i := range w {
				if got[i] != w[i] {
					return false
				}
			}
		}
		// Ascend visits exactly the model keys in order.
		var keys []string
		tr.Ascend(func(k string, _ []uint64) bool {
			keys = append(keys, k)
			return true
		})
		if len(keys) != len(model) {
			return false
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAt(t *testing.T) {
	tr := New()
	for _, v := range []uint64{10, 30} {
		tr.Insert("k", v)
	}
	tr.InsertAt("k", 1, 20)  // middle
	tr.InsertAt("k", 0, 5)   // front
	tr.InsertAt("k", 99, 40) // past the end appends
	tr.InsertAt("k", -1, 50) // as does a negative index
	tr.InsertAt("new", 3, 1) // a new key starts a list whatever the index
	frozen := tr.Clone()
	tr.InsertAt("k", 2, 15)
	if got, want := fmt.Sprint(tr.Get("k")), "[5 10 15 20 30 40 50]"; got != want {
		t.Fatalf("postings = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(frozen.Get("k")), "[5 10 20 30 40 50]"; got != want {
		t.Fatalf("an insert into the middle wrote through to the clone: %s, want %s", got, want)
	}
	if got := tr.Get("new"); len(got) != 1 || got[0] != 1 || tr.Len() != 2 {
		t.Fatalf("new key: %v, %d keys", got, tr.Len())
	}
}
