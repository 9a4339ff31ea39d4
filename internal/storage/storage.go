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
// workloads, each keyed by the order it keeps (postings.go).
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

	// attrs is the attribute-value index: per attribute name, value and
	// element id -> element id. The structural indexes are per color, in
	// trees.
	attrs postingMaps[string]

	counts SizeCounts

	// statsEpoch is the stats/schema epoch of this store image: a
	// process-unique token that changes whenever a fact a compiled plan's
	// answer rests on may have stopped holding, or a count its cost choices
	// read crossed a power of two (see StatsEpoch). Content-only updates and
	// most structural ones preserve it, so a plan cache keyed on the epoch
	// stays hot across the common update workloads.
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
	// what parent hops, Subtree, Roots and the numbering rule seek. tags is
	// the same per tag (the tag index, with each tag's child count), texts
	// per tag from content and start (the content index).
	start *btree.Map[int64, uint64]
	tags  postingMaps[int64]
	texts postingMaps[string]
	// summary holds the tree's lazily built path summary (pathsummary.go),
	// nil until the first probe and after a structural change. Readers of a
	// published snapshot may build it concurrently, so it is published
	// atomically; Clone gives the clone a cell of its own.
	summary *atomic.Pointer[PathSummary]
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

// noTree stands for a color the store does not have: its indexes are empty.
var noTree = colorTree{start: &btree.Map[int64, uint64]{}}

// read returns color c's header for reading: noTree for a color the store
// does not have.
func (s *Store) read(c core.Color) *colorTree {
	if t := s.tree(c); t != nil {
		return t
	}
	return &noTree
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
	s := &Store{pages: &pagestore.Store{}, elemLoc: &cowarray.Array[uint64]{}}
	s.elemFile = s.pages.CreateFile()
	s.statsEpoch.Store(nextStatsEpoch())
	for _, c := range colors {
		s.addColor(c)
	}
	return s
}

// statsEpochCounter allocates process-unique stats epochs: every fresh store
// image and every move draws a new value, so two store images can share an
// epoch only when one descends from the other through changes that kept it.
var statsEpochCounter atomic.Uint64

func nextStatsEpoch() uint64 { return statsEpochCounter.Add(1) }

// StatsEpoch returns the store's current stats/schema epoch. A compiled plan
// whose recorded epoch differs from the serving snapshot's must be
// recompiled. Of what a plan derives from the catalog, two facts decide its
// answer — that a tag is a leaf (LeafTag: the plan reads its values from
// the content record) and that a tag never nests (a FLWOR over it is folded
// into a path) — and the rest only prices it. So the epoch moves when an
// insert may falsify one of the two facts, or when a (colour, tag) count
// crosses a power of two, and on every element rename and every rebuild
// (epochRules). A delete only makes the two facts truer, so it moves the
// epoch only for a count.
func (s *Store) StatsEpoch() uint64 { return s.statsEpoch.Load() }

// bumpStatsEpoch moves the store to a fresh epoch, counting why.
func (s *Store) bumpStatsEpoch(why epochMove) {
	s.statsEpoch.Store(nextStatsEpoch())
	obsEpochMoves[why].Inc()
}

// epochMove is why the stats epoch moved.
type epochMove uint8

// The reasons the stats epoch moves (see StatsEpoch).
const (
	// A (colour, tag) gained its first element child: LeafTag turned false.
	epochFirstChild epochMove = iota
	// An insert of a tag landed below the same tag: it nests now.
	epochNests
	// A (colour, tag) count crossed a power of two.
	epochCardDoubled
	// A full load, a checkpoint reload or a new colour.
	epochRebuild
	// An element was renamed (retag).
	epochRenamed
)

// noteInsert moves the epoch for the structural node sn just inserted with
// its tag under a parent tagged parentTag ("" for the document), when the
// insert may have falsified a fact a plan's answer rests on or moved a count
// to another power of two. The ancestors are read only when the tag already
// has element children in the colour: otherwise none of its nodes is an
// ancestor of anything.
func (s *Store) noteInsert(tag, parentTag string, sn SNode) error {
	t := s.tree(sn.Color)
	switch {
	case parentTag != "" && t.tags.maps[parentTag].children == 1:
		s.bumpStatsEpoch(epochFirstChild)
	case isPow2(t.tags.get(tag).Len()):
		s.bumpStatsEpoch(epochCardDoubled)
	case t.tags.maps[tag].children > 0:
		for p, ok, err := s.ParentOf(sn); ok || err != nil; p, ok, err = s.ParentOf(p) {
			if err != nil {
				return err
			}
			if is, err := s.TagIs(p.Elem, tag); err != nil || is {
				if is {
					s.bumpStatsEpoch(epochNests)
				}
				return err
			}
		}
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

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
	total := s.attrs.bytes()
	for _, t := range s.trees {
		total += t.start.Bytes() + t.tags.bytes() + t.texts.bytes()
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

// field returns the length-prefixed bytes at off and the offset past them.
func field(buf []byte, off int) ([]byte, int) {
	n := int(binary.LittleEndian.Uint16(buf[off : off+2]))
	return buf[off+2 : off+2+n], off + 2 + n
}

func readStr(buf []byte, off int) (string, int) {
	b, off := field(buf, off)
	return string(b), off
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

// elemAttr returns the position in the attribute list and the value bytes,
// in place, of the first attribute called name of an encoded element record.
func elemAttr(buf []byte, name string) (pos int, value []byte, ok bool) {
	_, off := field(buf, 8)
	_, off = field(buf, off)
	n := int(binary.LittleEndian.Uint16(buf[off : off+2]))
	for off += 2; pos < n; pos++ {
		var key []byte
		key, off = field(buf, off)
		if value, off = field(buf, off); string(key) == name {
			return pos, value, true
		}
	}
	return 0, nil, false
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
