package btree

import (
	"math/rand"
	"sort"
	"testing"
)

// entry is one pair of the sorted-slice model a Map is held to.
type entry struct {
	k int64
	v uint64
}

// modelIndex returns the index of the first model entry with a key >= k.
func modelIndex(mod []entry, k int64) int {
	return sort.Search(len(mod), func(i int) bool { return mod[i].k >= k })
}

// sameAsModel checks m's length, its in-order walk and a Get of every key
// against mod.
func sameAsModel(t *testing.T, m *Map[int64, uint64], mod []entry) {
	t.Helper()
	if m.Len() != len(mod) {
		t.Fatalf("Len = %d, model holds %d", m.Len(), len(mod))
	}
	i := 0
	m.Ascend(func(k int64, v uint64) bool {
		if i >= len(mod) || mod[i] != (entry{k, v}) {
			t.Fatalf("Ascend yields %d:%d as pair %d of a model of %d", k, v, i, len(mod))
		}
		i++
		return true
	})
	if i != len(mod) {
		t.Fatalf("Ascend yields %d pairs, model holds %d", i, len(mod))
	}
	for _, e := range mod {
		if v, ok := m.Get(e.k); !ok || v != e.v {
			t.Fatalf("Get(%d) = %d %v, model %d", e.k, v, ok, e.v)
		}
	}
}

// TestMapAgainstModel drives a Map and a sorted slice through the same
// random Put, Delete, SeekLT, Range and Ascend calls, with Clones in
// between: at each Clone one side is frozen with a copy of the model, and
// the other goes on changing. Keys arrive in ascending order (the order a
// bulk load inserts starts in, where splits keep full nodes behind) or at
// random. At the end every frozen map must still equal the model it was
// frozen with.
func TestMapAgainstModel(t *testing.T) {
	for _, order := range []string{"ascending", "random"} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			next := int64(0)
			key := func() int64 {
				if order == "random" {
					return rng.Int63n(6000)
				}
				next += 1 + rng.Int63n(16)
				return next
			}
			m := &Map[int64, uint64]{}
			var mod []entry
			type frozen struct {
				m    *Map[int64, uint64]
				want []entry
			}
			var frozens []frozen
			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(100); {
				case r < 55:
					k, v := key(), rng.Uint64()
					m.Put(k, v)
					if i := modelIndex(mod, k); i < len(mod) && mod[i].k == k {
						mod[i].v = v
					} else {
						mod = append(mod, entry{})
						copy(mod[i+1:], mod[i:])
						mod[i] = entry{k, v}
					}
				case r < 75:
					k := key()
					if len(mod) > 0 && rng.Intn(2) == 0 {
						k = mod[rng.Intn(len(mod))].k
					}
					i := modelIndex(mod, k)
					present := i < len(mod) && mod[i].k == k
					if m.Delete(k) != present {
						t.Fatalf("%s/%d op %d: Delete(%d) disagrees with the model (present %v)", order, seed, op, k, present)
					}
					if present {
						mod = append(mod[:i], mod[i+1:]...)
					}
				case r < 85:
					probe := rng.Int63n(next+6002) - 1
					i := modelIndex(mod, probe)
					k, v, ok := m.SeekLT(probe)
					if ok != (i > 0) || ok && (entry{k, v}) != mod[i-1] {
						t.Fatalf("%s/%d op %d: SeekLT(%d) = %d:%d %v, model below index %d", order, seed, op, probe, k, v, ok, i)
					}
				case r < 95:
					lo := rng.Int63n(next + 6000)
					hi := lo + rng.Int63n(400)
					i, n, stop := modelIndex(mod, lo), 0, 1+rng.Intn(50)
					m.Range(lo, hi, func(k int64, v uint64) bool {
						if i+n >= len(mod) || mod[i+n] != (entry{k, v}) || k > hi {
							t.Fatalf("%s/%d op %d: Range(%d, %d) yields %d:%d as its pair %d", order, seed, op, lo, hi, k, v, n)
						}
						n++
						return n < stop
					})
					if n < stop && i+n < len(mod) && mod[i+n].k <= hi {
						t.Fatalf("%s/%d op %d: Range(%d, %d) stopped after %d pairs, before key %d", order, seed, op, lo, hi, n, mod[i+n].k)
					}
				case r < 98:
					c := m.Clone()
					if rng.Intn(2) == 0 {
						frozens = append(frozens, frozen{m, append([]entry(nil), mod...)})
						m = c
					} else {
						frozens = append(frozens, frozen{c, append([]entry(nil), mod...)})
					}
				default:
					sameAsModel(t, m, mod)
				}
			}
			sameAsModel(t, m, mod)
			for _, f := range frozens {
				sameAsModel(t, f.m, f.want)
			}
			if len(frozens) == 0 {
				t.Fatalf("%s/%d: no clone was taken", order, seed)
			}
		}
	}
}

// TestAscendingPutsFillNodes: keys put in ascending order leave every leaf
// but the last full, so a bulk-loaded map of n pairs holds about n / degree
// leaves.
func TestAscendingPutsFillNodes(t *testing.T) {
	const n = 20000
	m := &Map[int64, uint64]{}
	for i := int64(0); i < n; i++ {
		m.Put(16*i, uint64(i))
	}
	leaves, partial := 0, 0
	var walk func(nd *node[int64, uint64])
	walk = func(nd *node[int64, uint64]) {
		if nd.leaf() {
			leaves++
			if len(nd.keys) < degree {
				partial++
			}
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(m.root)
	if want := (n + degree - 1) / degree; leaves != want || partial > 1 {
		t.Fatalf("%d ascending puts made %d leaves (%d not full), want %d", n, leaves, partial, want)
	}
}

var (
	mapSinkV  uint64
	mapSinkOK bool
)

// mapOf20000 is a map of the start index's shape: 20 000 starts 16 apart,
// put in ascending order as a bulk load puts them.
func mapOf20000() *Map[int64, uint64] {
	m := &Map[int64, uint64]{}
	for i := int64(0); i < 20000; i++ {
		m.Put(16*i, uint64(i))
	}
	return m
}

// BenchmarkMapSeek: one lookup in a 20 000-key map of integers, the start
// index's probe per parent hop (get) and per numbering-rule seek (lt).
func BenchmarkMapSeek(b *testing.B) {
	m := mapOf20000()
	b.Run("get", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapSinkV, mapSinkOK = m.Get(16 * int64(i*7919%20000))
		}
	})
	b.Run("lt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, mapSinkV, mapSinkOK = m.SeekLT(16*int64(i*7919%20000) + 1)
		}
	})
}

// BenchmarkMapPutAfterClone: a Clone of a 20 000-key map and one Put into
// it, which path-copies the root-to-leaf path it writes and nothing else.
func BenchmarkMapPutAfterClone(b *testing.B) {
	m := mapOf20000()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.Put(16*int64(i*7919%20000)+1, uint64(i))
	}
}
