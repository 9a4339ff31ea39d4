package storage

import (
	"cmp"
	"encoding/binary"
	"maps"
	"math"
	"strings"

	"colorfulxml/internal/btree"
)

// The tag, content and attribute-value indexes (paper Section 7) are maps
// keyed by the order each keeps, so an insert or a delete path-copies a few
// nodes of one tag's map and reads no record, and a scan hands out a map's
// leaves as they are:
//
//   - tag: per color and tag, start -> structural ref (colorTree.tags);
//   - content: per color and tag, textKey(content, start) -> structural ref
//     (colorTree.texts);
//   - attribute value: per attribute name, textKey(value, element id) ->
//     element id (Store.attrs).

// postingMaps is a copy-on-write set of index maps, one per name. A Clone
// shares the set and every map in it; the first write to a name after that
// gives it a clone of its map (O(1)) and, once per set, copies the set's
// table of a few names.
type postingMaps[K cmp.Ordered] struct {
	maps   map[string]*posting[K]
	own    *byte // a posting that carries another token is shared with a clone
	shared bool  // the table itself is shared with a clone
}

type posting[K cmp.Ordered] struct {
	own *byte
	m   *btree.Map[K, uint64]
	// children counts, in a color's tag index, the structural nodes whose
	// parent carries the tag: the one DataGuide fact kept current under
	// every update (LeafTag).
	children int
}

// clone returns a copy-on-write sibling of the set. The receiver must not
// be written concurrently.
func (p *postingMaps[K]) clone() postingMaps[K] {
	p.own, p.shared = new(byte), true
	return postingMaps[K]{maps: p.maps, own: new(byte), shared: true}
}

// get returns name's map for reading (empty when there is none).
func (p *postingMaps[K]) get(name string) *btree.Map[K, uint64] {
	if e := p.maps[name]; e != nil {
		return e.m
	}
	return &btree.Map[K, uint64]{}
}

// write returns name's posting for writing, added when absent.
func (p *postingMaps[K]) write(name string) *posting[K] {
	if p.own == nil {
		p.own = new(byte)
	}
	e := p.maps[name]
	if e != nil && e.own == p.own {
		return e
	}
	if p.shared || p.maps == nil {
		p.maps, p.shared = maps.Clone(p.maps), false
		if p.maps == nil {
			p.maps = map[string]*posting[K]{}
		}
	}
	own := &posting[K]{own: p.own, m: &btree.Map[K, uint64]{}}
	if e != nil {
		own.m, own.children = e.m.Clone(), e.children
	}
	p.maps[name] = own
	return own
}

func (p *postingMaps[K]) bytes() (n int64) {
	for _, e := range p.maps {
		n += e.m.Bytes()
	}
	return n
}

// textKey is the key of a content or attribute-value map: the text, then n
// in eight big-endian bytes, so one text's keys sort together in the order
// of n. Every n the store keys by (a start, an element id) is below 2^56, so
// the byte after the text is 0 in each.
func textKey(text string, n uint64) string {
	return string(binary.BigEndian.AppendUint64(append(make([]byte, 0, len(text)+8), text...), n))
}

// textRun calls fn with the keys of text in m and their values, in order,
// a run of adjacent ones at a time, from the key past after ("" for the
// first); fn returning false stops. It reports whether it reached the end
// of text's keys. The run is found without building a key: its keys are the
// ones that start with text and are eight bytes longer. Another text can
// have keys among them only when it starts with text and a zero byte, and
// those are stepped over.
func textRun(m *btree.Map[string, uint64], text, after string, fn func(keys []string, vals []uint64) bool) (ended bool) {
	of := func(k string) bool { return len(k) == len(text)+8 && strings.HasPrefix(k, text) }
	ended = true
	m.Leaves(cmp.Or(after, text), func(keys []string, vals []uint64) bool {
		if keys[0] == after {
			keys, vals = keys[1:], vals[1:]
		}
		for i := 0; i < len(keys); {
			if k := keys[i]; !strings.HasPrefix(k, text) || len(k) > len(text) && k[len(text)] != 0 {
				return false
			}
			j := i
			for j < len(keys) && of(keys[j]) {
				j++
			}
			if j > i && !fn(keys[i:j], vals[i:j]) {
				ended = false
				return false
			}
			i = max(j, i+1)
		}
		return true
	})
	return ended
}

// Postings is a start-ordered run of one index, read a leaf at a time: a
// tag's structural refs in a color (TagPostings), or those of its nodes with
// one content (ContentPostings) — or a short content run read already
// (RunPostings). The zero Postings is empty.
type Postings struct {
	tag  *btree.Map[int64, uint64]
	text *btree.Map[string, uint64]
	few  []uint64 // the refs of a run read already, still to hand out
	// key is a content run's value until a ref is taken, and then the last
	// key taken; from is a tag run's next start, -1 in a content run until a
	// ref is taken, and runOver once the run is known to be over.
	key  string
	from int64
}

const runOver = math.MaxInt64

// Next hands take the run's next refs in order, at most a leaf of the index
// at a time and never a copy, until take accepts fewer than it is given —
// the rest come first on the next call — or the run ends. The refs are valid
// only during the call.
func (p *Postings) Next(take func(refs []uint64) int) {
	ended := true
	switch {
	case p.from == runOver:
	case p.few != nil:
		n := take(p.few)
		p.few = p.few[n:]
		ended = len(p.few) == 0
	case p.tag != nil:
		p.tag.Leaves(p.from, func(keys []int64, refs []uint64) bool {
			n := take(refs)
			if n > 0 {
				p.from = keys[n-1] + 1
			}
			ended = n == len(refs)
			return ended
		})
	case p.text != nil:
		value, after := p.key, ""
		if p.from >= 0 {
			value, after = p.key[:len(p.key)-8], p.key
		}
		ended = textRun(p.text, value, after, func(keys []string, refs []uint64) bool {
			n := take(refs)
			if n > 0 {
				p.key, p.from = keys[n-1], 0
			}
			return n == len(refs)
		})
	}
	if ended {
		p.from = runOver
	}
}

// index adds the structural node at start, with its tag, content and record
// ref, to t's start, tag and content maps, or with add false removes it.
func (t *colorTree) index(tag, content string, start int64, ref uint64, add bool) {
	var texts *btree.Map[string, uint64]
	if content != "" {
		texts = t.texts.write(tag).m
	}
	if tags := t.tags.write(tag).m; add {
		t.start.Put(start, ref)
		tags.Put(start, ref)
	} else {
		t.start.Delete(start)
		tags.Delete(start)
	}
	if texts != nil && add {
		texts.Put(textKey(content, uint64(start)), ref)
	} else if texts != nil {
		texts.Delete(textKey(content, uint64(start)))
	}
}

// addChildren records that d structural nodes (negative: fewer) hang under
// a node tagged parentTag; the document's children have no parent tag.
func (t *colorTree) addChildren(parentTag string, d int) {
	if parentTag != "" {
		t.tags.write(parentTag).children += d
	}
}
