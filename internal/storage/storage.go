// Package storage is the Timber-style physical MCT store of the paper's
// Section 6.2 and Figure 10:
//
//   - element content and attributes are stored exactly once, as one element
//     record in a heap file;
//   - structural relationships are stored separately: one structural node per
//     (element, color), carrying a (start, end, level, parent-start) interval
//     encoding of its position in that colored tree;
//   - multi-colored elements carry back-links from the element record to each
//     of its single-colored structural nodes, which the cross-tree join
//     access method follows to transition between colors.
//
// All records live in pagestore's 8 KB slotted pages, so structural scans,
// content fetches and cross-tree joins read records clustered the way a
// paged store clusters them. Tag, content and attribute B+-tree indexes support the experiment
// workloads.
package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"colorfulxml/internal/btree"
	"colorfulxml/internal/core"
	"colorfulxml/internal/cowarray"
	"colorfulxml/internal/pagestore"
)

// ElemID identifies an element record (identity shared by all its structural
// nodes).
type ElemID uint64

// maxElemID bounds the element ids the store accepts. The location tables
// are arrays indexed by id, so an id read from a damaged checkpoint or log
// must not be allowed to size them; core hands ids out densely from 1, and a
// database of four billion nodes is far past what is held in memory.
const maxElemID = ElemID(1) << 32

func checkElemID(id ElemID) error {
	if id >= maxElemID {
		return fmt.Errorf("storage: element id %d is beyond the store's id range", id)
	}
	return nil
}

// SNode is a structural node: the physical representation of one element's
// participation in one colored tree, with interval encoding.
type SNode struct {
	Elem        ElemID
	Color       core.Color
	Start       int64
	End         int64
	Level       int32
	ParentStart int64 // -1 for roots (children of the document)
}

// Contains reports whether d lies strictly within a's interval: a is an
// ancestor of d in their (shared) colored tree.
func (a SNode) Contains(d SNode) bool { return a.Start < d.Start && d.End < a.End }

// IsParentOf reports whether a is the parent of d (one level apart and
// d's parent-start matches).
func (a SNode) IsParentOf(d SNode) bool {
	return d.ParentStart == a.Start && d.Level == a.Level+1
}

// gap is the spacing between consecutive positions at bulk load, which leaves
// a node room for a few children before its interval has to be extended
// (number.go).
const gap = 16

// structRecSize is the fixed size of an encoded structural record.
const structRecSize = 8 + 8 + 8 + 4 + 8 // elem, start, end, level, parentStart

// Store is the physical MCT database.
type Store struct {
	pages *pagestore.Store

	elemFile pagestore.FileID

	// Directories (in-memory, like Timber's node directories): element
	// record locations here, and per color the structural record locations
	// (the Figure 10 back-link "attributes") in trees, as packed RecordIDs
	// indexed by element id. The tables are copy-on-write arrays: Clone
	// shares them and an update copies the one chunk it writes.
	elemLoc *cowarray.Array[uint64]
	// trees holds one header per color, sorted by color; colors lists the
	// same colors and is never changed in place, so clones share it.
	trees  []colorTree
	colors []core.Color

	// Indexes; the start index is per color, in trees.
	tagIdx     *btree.Tree // color|tag -> struct record refs (start order)
	contentIdx *btree.Tree // color|tag|content -> struct record refs
	attrIdx    *btree.Tree // name=value -> elem ids

	nextID ElemID

	counts SizeCounts

	// statsEpoch is the stats/schema epoch of this store image: a
	// process-unique token that changes whenever the structure (and hence the
	// catalog statistics a compiled plan's cost choices were made from) may
	// have changed. Content-only updates preserve it, so a plan cache keyed
	// on the epoch stays hot across the common point-update workload, while
	// structural mutations and full rebuilds move it.
	// Atomic because readers (the plan cache) probe published snapshots
	// concurrently with a clone being mutated before publication.
	statsEpoch atomic.Uint64
}

// colorTree is the store's header for one colored tree: the heap file of its
// structural records, where each element's record sits in it, and the start
// index.
type colorTree struct {
	color core.Color
	file  pagestore.FileID
	loc   *cowarray.Array[uint64]
	// start maps each structural node's start to its record's packed ref:
	// what parent hops, Subtree, Roots and the numbering rule seek.
	start *btree.Map[int64, uint64]
	// inner counts, per tag, the tree's structural nodes whose parent carries
	// that tag — the one DataGuide fact kept current under every update
	// (LeafTag). A map of a few tags; a clone shares it until either side
	// writes (innerShared).
	inner       map[string]int
	innerShared bool
	// summary holds the tree's lazily built path summary (pathsummary.go),
	// nil until the first probe and after a structural change. Readers of a
	// published snapshot may build it concurrently, so it is published
	// atomically; Clone gives the clone a cell of its own.
	summary *atomic.Pointer[PathSummary]
}

// addInner records that d children (negative: fewer) hang under an element
// tagged parentTag; the document's children have no parent tag.
func (t *colorTree) addInner(parentTag string, d int) {
	if parentTag == "" {
		return
	}
	if t.innerShared || t.inner == nil {
		own := make(map[string]int, len(t.inner)+1)
		for tag, n := range t.inner {
			own[tag] = n
		}
		t.inner, t.innerShared = own, false
	}
	if n := t.inner[parentTag] + d; n > 0 {
		t.inner[parentTag] = n
	} else {
		delete(t.inner, parentTag)
	}
}

// enclosing tracks, along a walk of one colored tree in start order, the tags
// of the nodes whose intervals contain the current position: what the per-tag
// child counts are kept from when nodes arrive or leave many at a time.
type enclosing []openTag

type openTag struct {
	end int64
	tag string
}

// enter moves the walk to sn, tagged tag, and returns the tag of its parent
// ("" under the document): the innermost node still open once those that
// ended before sn are closed.
func (e *enclosing) enter(sn SNode, tag string) (parentTag string) {
	open := *e
	for len(open) > 0 && open[len(open)-1].end < sn.Start {
		open = open[:len(open)-1]
	}
	if len(open) > 0 {
		parentTag = open[len(open)-1].tag
	}
	*e = append(open, openTag{sn.End, tag})
	return parentTag
}

// tree returns color c's header, or nil for a color the store does not have.
// A store holds a handful of colors, so this is a short scan.
func (s *Store) tree(c core.Color) *colorTree {
	for i := range s.trees {
		if s.trees[i].color == c {
			return &s.trees[i]
		}
	}
	return nil
}

// starts returns color c's start index; empty for a color the store does not
// have.
func (s *Store) starts(c core.Color) *btree.Map[int64, uint64] {
	if t := s.tree(c); t != nil {
		return t.start
	}
	return &btree.Map[int64, uint64]{}
}

// SizeCounts is the Table 1 accounting: logical node counts plus physical
// sizes.
type SizeCounts struct {
	Elements     int
	Attributes   int
	ContentNodes int
	StructNodes  int
}

// NewStore creates an empty store with the given colors.
func NewStore(colors ...core.Color) *Store {
	s := &Store{
		pages:      &pagestore.Store{},
		elemLoc:    &cowarray.Array[uint64]{},
		tagIdx:     btree.New(),
		contentIdx: btree.New(),
		attrIdx:    btree.New(),
	}
	s.elemFile = s.pages.CreateFile()
	s.statsEpoch.Store(nextStatsEpoch())
	for _, c := range colors {
		s.addColor(c)
	}
	return s
}

// statsEpochCounter allocates process-unique stats epochs: every fresh store
// image and every structural mutation draws a new value, so two store states
// with different structure can never share an epoch — the property the
// compiled-plan cache's invalidation relies on.
var statsEpochCounter atomic.Uint64

func nextStatsEpoch() uint64 { return statsEpochCounter.Add(1) }

// StatsEpoch returns the store's current stats/schema epoch. A compiled plan
// whose recorded epoch differs from the serving snapshot's may have been
// cost-chosen against different structure and must be recompiled.
func (s *Store) StatsEpoch() uint64 { return s.statsEpoch.Load() }

// bumpStatsEpoch moves the store to a fresh epoch; called by every
// structural mutation (alongside the path-summary invalidation, which guards
// the same class of change).
func (s *Store) bumpStatsEpoch() { s.statsEpoch.Store(nextStatsEpoch()) }

func (s *Store) addColor(c core.Color) {
	if s.tree(c) == nil {
		s.addTree(c, s.pages.CreateFile())
	}
}

// addTree registers color c with its structural heap file, keeping trees and
// colors sorted. Both slices are rebuilt: clones share the old ones.
func (s *Store) addTree(c core.Color, f pagestore.FileID) {
	at := sort.Search(len(s.trees), func(i int) bool { return s.trees[i].color > c })
	trees := make([]colorTree, 0, len(s.trees)+1)
	trees = append(append(trees, s.trees[:at]...), colorTree{
		color: c, file: f, loc: &cowarray.Array[uint64]{}, start: &btree.Map[int64, uint64]{},
		summary: new(atomic.Pointer[PathSummary]),
	})
	s.trees = append(trees, s.trees[at:]...)
	s.colors = make([]core.Color, len(s.trees))
	for i, t := range s.trees {
		s.colors[i] = t.color
	}
}

// elemRID returns the location of an element's record.
func (s *Store) elemRID(id ElemID) (pagestore.RecordID, bool) {
	ref, ok := s.elemLoc.Get(uint64(id))
	return unpackRID(ref), ok
}

// structRef returns the packed location of an element's structural record in
// color c (the form index postings carry).
func (s *Store) structRef(id ElemID, c core.Color) (uint64, bool) {
	t := s.tree(c)
	if t == nil {
		return 0, false
	}
	return t.loc.Get(uint64(id))
}

// Colors returns the store's colors in sorted order.
func (s *Store) Colors() []core.Color { return s.colors }

// Counts returns the logical node counts.
func (s *Store) Counts() SizeCounts { return s.counts }

// DataBytes returns the total bytes of data pages (element + structural
// files).
func (s *Store) DataBytes() (int64, error) {
	total := int64(0)
	n, err := s.pages.NumPages(s.elemFile)
	if err != nil {
		return 0, err
	}
	total += int64(n) * pagestore.PageSize
	for _, t := range s.trees {
		n, err := s.pages.NumPages(t.file)
		if err != nil {
			return 0, err
		}
		total += int64(n) * pagestore.PageSize
	}
	return total, nil
}

// IndexBytes returns the memory the indexes hold: tag, content, attribute
// and every color's start index (all four are part of the Table 1 index
// accounting).
func (s *Store) IndexBytes() int64 {
	total := s.tagIdx.Bytes() + s.contentIdx.Bytes() + s.attrIdx.Bytes()
	for _, t := range s.trees {
		total += t.start.Bytes()
	}
	return total
}

// --- record encoding ---------------------------------------------------

func encodeElem(id ElemID, tag, content string, attrs [][2]string) []byte {
	buf := make([]byte, 0, 32+len(tag)+len(content))
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(id))
	buf = append(buf, tmp[:]...)
	buf = appendStr(buf, tag)
	buf = appendStr(buf, content)
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(attrs)))
	buf = append(buf, n[:]...)
	for _, a := range attrs {
		buf = appendStr(buf, a[0])
		buf = appendStr(buf, a[1])
	}
	return buf
}

func appendStr(buf []byte, s string) []byte {
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(s)))
	buf = append(buf, n[:]...)
	return append(buf, s...)
}

func readStr(buf []byte, off int) (string, int) {
	n := int(binary.LittleEndian.Uint16(buf[off : off+2]))
	off += 2
	return string(buf[off : off+n]), off + n
}

func decodeElem(buf []byte) (id ElemID, tag, content string, attrs [][2]string) {
	id = ElemID(binary.LittleEndian.Uint64(buf[0:8]))
	off := 8
	tag, off = readStr(buf, off)
	content, off = readStr(buf, off)
	n := int(binary.LittleEndian.Uint16(buf[off : off+2]))
	off += 2
	for i := 0; i < n; i++ {
		var k, v string
		k, off = readStr(buf, off)
		v, off = readStr(buf, off)
		attrs = append(attrs, [2]string{k, v})
	}
	return
}

// elemTag returns the tag bytes of an encoded element record, in place.
func elemTag(buf []byte) []byte {
	n := int(binary.LittleEndian.Uint16(buf[8:10]))
	return buf[10 : 10+n]
}

// elemContent returns the content bytes of an encoded element record, in
// place: the tag is skipped, the attributes are never reached.
func elemContent(buf []byte) []byte {
	off := 10 + int(binary.LittleEndian.Uint16(buf[8:10]))
	n := int(binary.LittleEndian.Uint16(buf[off : off+2]))
	return buf[off+2 : off+2+n]
}

func encodeStruct(sn SNode) []byte {
	buf := make([]byte, structRecSize)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(sn.Elem))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(sn.Start))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(sn.End))
	binary.LittleEndian.PutUint32(buf[24:28], uint32(sn.Level))
	binary.LittleEndian.PutUint64(buf[28:36], uint64(sn.ParentStart))
	return buf
}

func decodeStruct(buf []byte, c core.Color) SNode {
	return SNode{
		Elem:        ElemID(binary.LittleEndian.Uint64(buf[0:8])),
		Color:       c,
		Start:       int64(binary.LittleEndian.Uint64(buf[8:16])),
		End:         int64(binary.LittleEndian.Uint64(buf[16:24])),
		Level:       int32(binary.LittleEndian.Uint32(buf[24:28])),
		ParentStart: int64(binary.LittleEndian.Uint64(buf[28:36])),
	}
}

// packRID encodes a RecordID into a uint64 for index postings.
func packRID(r pagestore.RecordID) uint64 {
	return uint64(r.File)<<48 | uint64(r.Page)<<16 | uint64(r.Slot)
}

func unpackRID(v uint64) pagestore.RecordID {
	return pagestore.RecordID{
		PageID: pagestore.PageID{
			File: pagestore.FileID(v >> 48),
			Page: uint32(v >> 16),
		},
		Slot: uint16(v),
	}
}

func tagKey(c core.Color, tag string) string { return string(c) + "|" + tag }

func contentKey(c core.Color, tag, content string) string {
	return string(c) + "|" + tag + "|" + content
}

func attrKey(name, value string) string { return name + "=" + value }
