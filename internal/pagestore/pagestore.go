// Package pagestore is the storage substrate of the physical MCT store: 8 KB
// slotted pages grouped into heap files, behind an LRU buffer pool with
// pin/unpin discipline and hit/miss accounting.
//
// The experiments of the paper's Section 7 ran Timber with an 8 KB data page
// size and a 256 MB buffer pool; this package reproduces that configuration
// (both sizes are tunable) so the query engine's relative costs — structural
// joins vs. value joins vs. color crossings — are shaped by the same page
// and buffering behaviour.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"colorfulxml/internal/cowarray"
)

// PageSize is the default page size (8 KB, the paper's configuration).
const PageSize = 8192

// DefaultPoolPages is the default buffer pool capacity: 256 MB of 8 KB
// pages, the paper's configuration.
const DefaultPoolPages = (256 << 20) / PageSize

// PageID identifies a page within a Store: a file number and a page number.
type PageID struct {
	File FileID
	Page uint32
}

func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.Page) }

// FileID identifies a heap file within a Store.
type FileID uint32

// RecordID identifies a record: a page and a slot within it.
type RecordID struct {
	PageID
	Slot uint16
}

func (r RecordID) String() string { return fmt.Sprintf("%d:%d:%d", r.File, r.Page, r.Slot) }

// Errors returned by the page store.
var (
	ErrRecordTooLarge = errors.New("record larger than page capacity")
	ErrNoSuchRecord   = errors.New("no such record")
	ErrNoSuchFile     = errors.New("no such file")
)

// Page is an in-memory page image with a slot directory:
//
//	[0:2]  numSlots
//	[2:4]  free-space offset (end of used data region)
//	then per-slot 4-byte entries (offset uint16, length uint16) growing from
//	the end of the page, record data growing from the front.
type Page struct {
	Data [PageSize]byte
}

const pageHeader = 4
const slotSize = 4

func (p *Page) numSlots() uint16 { return binary.LittleEndian.Uint16(p.Data[0:2]) }

func (p *Page) setNumSlots(n uint16) { binary.LittleEndian.PutUint16(p.Data[0:2], n) }

func (p *Page) freeOff() uint16 {
	v := binary.LittleEndian.Uint16(p.Data[2:4])
	if v == 0 {
		return pageHeader
	}
	return v
}

func (p *Page) setFreeOff(v uint16) { binary.LittleEndian.PutUint16(p.Data[2:4], v) }

func (p *Page) slotEntry(i uint16) (off, length uint16) {
	base := PageSize - int(i+1)*slotSize
	return binary.LittleEndian.Uint16(p.Data[base : base+2]),
		binary.LittleEndian.Uint16(p.Data[base+2 : base+4])
}

func (p *Page) setSlotEntry(i uint16, off, length uint16) {
	base := PageSize - int(i+1)*slotSize
	binary.LittleEndian.PutUint16(p.Data[base:base+2], off)
	binary.LittleEndian.PutUint16(p.Data[base+2:base+4], length)
}

// FreeSpace returns the bytes available for one more record (including its
// slot entry).
func (p *Page) FreeSpace() int { return max(0, p.room()) }

// room is FreeSpace before clamping: negative when not even one more slot
// entry fits, which is what keeps an empty record off a full page.
func (p *Page) room() int {
	used := int(p.freeOff()) + int(p.numSlots())*slotSize
	return PageSize - used - slotSize
}

// Insert adds a record to the page, returning its slot.
func (p *Page) Insert(rec []byte) (uint16, error) {
	if len(rec) > p.room() {
		return 0, fmt.Errorf("pagestore: %w (%d bytes, %d free)", ErrRecordTooLarge, len(rec), p.FreeSpace())
	}
	slot := p.numSlots()
	off := p.freeOff()
	copy(p.Data[off:], rec)
	p.setSlotEntry(slot, off, uint16(len(rec)))
	p.setNumSlots(slot + 1)
	p.setFreeOff(off + uint16(len(rec)))
	return slot, nil
}

// Record returns the record bytes in a slot. The returned slice aliases the
// page; callers must copy if they retain it past unpin.
func (p *Page) Record(slot uint16) ([]byte, error) {
	if slot >= p.numSlots() {
		return nil, fmt.Errorf("pagestore: slot %d: %w", slot, ErrNoSuchRecord)
	}
	off, length := p.slotEntry(slot)
	if off == 0 && length == 0 {
		return nil, fmt.Errorf("pagestore: slot %d deleted: %w", slot, ErrNoSuchRecord)
	}
	return p.Data[off : off+length], nil
}

// Overwrite replaces a record in place. The new record must not be longer
// than the old one (MCT structural records are fixed-size).
func (p *Page) Overwrite(slot uint16, rec []byte) error {
	if slot >= p.numSlots() {
		return fmt.Errorf("pagestore: slot %d: %w", slot, ErrNoSuchRecord)
	}
	off, length := p.slotEntry(slot)
	if len(rec) > int(length) {
		return fmt.Errorf("pagestore: overwrite grows record %d -> %d: %w", length, len(rec), ErrRecordTooLarge)
	}
	copy(p.Data[off:off+uint16(len(rec))], rec)
	if len(rec) < int(length) {
		p.setSlotEntry(slot, off, uint16(len(rec)))
	}
	return nil
}

// Delete tombstones a slot. Its space is not reclaimed within the page; a
// page whose every slot is a tombstone is dropped whole (Store.DeleteRecord).
func (p *Page) Delete(slot uint16) error {
	if slot >= p.numSlots() {
		return fmt.Errorf("pagestore: slot %d: %w", slot, ErrNoSuchRecord)
	}
	p.setSlotEntry(slot, 0, 0)
	return nil
}

// dead reports whether every slot of the page is a tombstone. A record's
// offset is never 0 (the header comes first), so a live slot has one.
func (p *Page) dead() bool {
	for i := range p.numSlots() {
		if off, _ := p.slotEntry(i); off != 0 {
			return false
		}
	}
	return true
}

// NumSlots returns the number of slots ever allocated in the page (including
// tombstones).
func (p *Page) NumSlots() int { return int(p.numSlots()) }

// Stats counts buffer pool activity.
type Stats struct {
	Hits      uint64 // page requests served from the pool
	Misses    uint64 // page requests that had to "read from disk"
	Evictions uint64
	PagesRead uint64 // alias of Misses, for reporting symmetry
}

// Store is a collection of heap files backed by a buffer pool over an
// in-memory "disk". All reads go through the pool so that page traffic is
// observable; the disk layer holds the page images.
//
// A disk image is immutable once it is on the disk layer, which is what lets
// clones share images and lets a read use one without copying it: a frame
// read in from disk points at the image itself, and the first write to the
// frame copies it (see writableLocked).
type Store struct {
	mu      sync.Mutex
	poolCap int
	pool    map[PageID]*frame
	lru     *lruList
	// files is indexed by FileID; an entry that does not exist is a gap left
	// by a page dump that skipped the id.
	files []fileMeta
	// dirty holds the pooled frames whose page is newer than the disk layer.
	dirty    map[PageID]*frame
	stats    Stats
	coldMiss bool // when true, first-touch pages count as misses (default)
}

type fileMeta struct {
	exists bool
	pages  uint32
	// lastPage caches the current fill target for appends.
	lastPage uint32
	hasPages bool
	// images is the file's disk layer: page images by page number.
	images *cowarray.Array[*Page]
}

// frame is one pooled page. Its LRU links are embedded, so moving a page on
// and off the unpinned list allocates nothing; queued reports whether the
// frame is on that list.
type frame struct {
	page *Page
	// shared: page is a disk image, to be copied before it is written.
	// dirty: page has been written since (never both).
	shared bool
	dirty  bool
	pins   int
	lru    lruElem
	queued bool
}

// NewStore creates a store with the given buffer pool capacity in pages
// (DefaultPoolPages if <= 0).
func NewStore(poolPages int) *Store {
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	return &Store{
		poolCap:  poolPages,
		pool:     make(map[PageID]*frame),
		lru:      newLRUList(),
		dirty:    make(map[PageID]*frame),
		coldMiss: true,
	}
}

// Clone returns a copy-on-write snapshot of the store. Page images are
// shared with the receiver and never mutated in place, so writes through
// either store leave the other untouched. Only the frames written since the
// last clone are handed to the disk layer — a clean frame's image is there
// already — so cloning costs the pages changed, not the pages pooled. The
// clone starts with an empty (cold) buffer pool and zeroed statistics.
//
// The intended discipline is that the receiver is a frozen snapshot serving
// readers while the clone absorbs updates; Clone is safe alongside
// concurrent record reads on the receiver.
func (s *Store) Clone() *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A written frame's page becomes the image; the frame keeps using it
	// until its next write, which copies.
	for id, fr := range s.dirty {
		s.files[id.File].images.Set(uint64(id.Page), fr.page)
		fr.dirty, fr.shared = false, true
	}
	if len(s.dirty) > 0 {
		// A fresh map: clearing one costs its capacity, and a bulk load
		// leaves every page of the store in it.
		s.dirty = make(map[PageID]*frame)
	}
	files := append([]fileMeta(nil), s.files...)
	for i := range files {
		if files[i].exists {
			files[i].images = files[i].images.Clone()
		}
	}
	return &Store{
		poolCap:  s.poolCap,
		pool:     make(map[PageID]*frame),
		lru:      newLRUList(),
		files:    files,
		dirty:    make(map[PageID]*frame),
		coldMiss: s.coldMiss,
	}
}

// fileLocked returns a file's metadata, or nil if there is no such file.
func (s *Store) fileLocked(f FileID) *fileMeta {
	if int(f) >= len(s.files) || !s.files[f].exists {
		return nil
	}
	return &s.files[f]
}

// CreateFile allocates a new, empty heap file.
func (s *Store) CreateFile() FileID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files = append(s.files, fileMeta{exists: true, images: &cowarray.Array[*Page]{}})
	return FileID(len(s.files) - 1)
}

// NumPages returns the number of pages in a file.
func (s *Store) NumPages(f FileID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta := s.fileLocked(f)
	if meta == nil {
		return 0, fmt.Errorf("pagestore: file %d: %w", f, ErrNoSuchFile)
	}
	return int(meta.pages), nil
}

// Stats returns a snapshot of buffer pool statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.PagesRead = st.Misses
	return st
}

// ResetStats zeroes the counters (used between experiment runs).
func (s *Store) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// FlushAll unpins nothing but evicts every unpinned page to the disk layer,
// simulating a cold cache (the paper's cold-cache runs flush all buffers).
func (s *Store) FlushAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, fr := range s.pool {
		if fr.pins == 0 {
			s.evictLocked(id, fr)
		}
	}
}

// Pin fetches a page and pins it in the pool. Every Pin must be matched by
// an Unpin.
func (s *Store) Pin(id PageID) (*Page, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := s.frameLocked(id)
	if err != nil {
		return nil, err
	}
	fr.pins++
	s.dequeueLocked(fr)
	return fr.page, nil
}

// frameLocked returns the pooled frame of a page, reading the page in (and
// making room for it) on a miss. A frame read in here is neither pinned nor
// queued; the caller does one or the other before releasing the lock.
func (s *Store) frameLocked(id PageID) (*frame, error) {
	// A pooled page exists (a dropped page leaves the pool), so a hit needs
	// no range check.
	if fr, ok := s.pool[id]; ok {
		s.stats.Hits++
		obsPoolHits.Inc()
		return fr, nil
	}
	meta := s.fileLocked(id.File)
	if meta == nil {
		return nil, fmt.Errorf("pagestore: file %d: %w", id.File, ErrNoSuchFile)
	}
	if id.Page >= meta.pages {
		return nil, fmt.Errorf("pagestore: page %v out of range (%d pages)", id, meta.pages)
	}
	s.stats.Misses++
	obsPageReads.Inc()
	fr := &frame{lru: lruElem{id: id}}
	if img, ok := meta.images.Get(uint64(id.Page)); ok {
		fr.page, fr.shared = img, true
	} else {
		fr.page = &Page{}
	}
	s.ensureCapacityLocked()
	s.pool[id] = fr
	return fr, nil
}

// writableLocked returns the frame's page for writing: a page that is a
// shared disk image is copied first, and the frame joins the dirty set.
func (s *Store) writableLocked(fr *frame) *Page {
	if fr.shared {
		cp := *fr.page
		fr.page, fr.shared = &cp, false
	}
	if !fr.dirty {
		fr.dirty = true
		s.dirty[fr.lru.id] = fr
	}
	return fr.page
}

// touchLocked ages a frame like a Pin/Unpin pair would.
func (s *Store) touchLocked(fr *frame) {
	if fr.pins == 0 {
		s.enqueueLocked(fr)
	}
}

// enqueueLocked makes an unpinned frame the most recently used eviction
// candidate.
func (s *Store) enqueueLocked(fr *frame) {
	if fr.queued && s.lru.head == &fr.lru {
		return // a scan re-reading its current page
	}
	s.dequeueLocked(fr)
	s.lru.pushFront(&fr.lru)
	fr.queued = true
}

func (s *Store) dequeueLocked(fr *frame) {
	if fr.queued {
		s.lru.remove(&fr.lru)
		fr.queued = false
	}
}

// Unpin releases a pinned page.
func (s *Store) Unpin(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, ok := s.pool[id]
	if !ok || fr.pins == 0 {
		return
	}
	fr.pins--
	if fr.pins == 0 {
		s.enqueueLocked(fr)
	}
}

// ensureCapacityLocked evicts LRU unpinned pages until there is room for one
// more.
func (s *Store) ensureCapacityLocked() {
	for len(s.pool) >= s.poolCap {
		id, ok := s.lru.popBack()
		if !ok {
			return // everything pinned; allow temporary overcommit
		}
		fr := s.pool[id]
		if fr == nil {
			continue
		}
		fr.queued = false
		s.evictLocked(id, fr)
	}
}

func (s *Store) evictLocked(id PageID, fr *frame) {
	if fr.dirty {
		// The frame leaves the pool, so its page can be the image as it is.
		s.files[id.File].images.Set(uint64(id.Page), fr.page)
		fr.dirty = false
		delete(s.dirty, id)
	}
	s.dequeueLocked(fr)
	delete(s.pool, id)
	s.stats.Evictions++
}

// AppendRecord inserts a record at the end of a file, allocating pages as
// needed, and returns its RecordID.
func (s *Store) AppendRecord(f FileID, rec []byte) (RecordID, error) {
	if len(rec) > PageSize-pageHeader-slotSize {
		return RecordID{}, fmt.Errorf("pagestore: %w", ErrRecordTooLarge)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	meta := s.fileLocked(f)
	if meta == nil {
		return RecordID{}, fmt.Errorf("pagestore: file %d: %w", f, ErrNoSuchFile)
	}
	fresh := !meta.hasPages
	for {
		if fresh {
			meta.lastPage = meta.pages
			meta.pages++
			meta.hasPages = true
		}
		id := PageID{File: f, Page: meta.lastPage}
		fr, err := s.frameLocked(id)
		if err != nil {
			return RecordID{}, err
		}
		s.touchLocked(fr)
		if !fresh && len(rec) > fr.page.room() {
			fresh = true // page full: allocate a new one
			continue
		}
		slot, err := s.writableLocked(fr).Insert(rec)
		if err != nil {
			return RecordID{}, err
		}
		return RecordID{PageID: id, Slot: slot}, nil
	}
}

// ReadRecord returns a copy of the record.
func (s *Store) ReadRecord(rid RecordID) ([]byte, error) {
	var out []byte
	err := s.ViewRecord(rid, func(rec []byte) { out = append([]byte(nil), rec...) })
	return out, err
}

// ViewRecord calls fn with the record's bytes inside the page, for readers
// that decode a record and keep nothing of it: one pool access — counted and
// aged exactly like a Pin/Unpin pair — and no copy. rec is valid only during
// the call, and fn must not call back into the store.
func (s *Store) ViewRecord(rid RecordID, fn func(rec []byte)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := s.frameLocked(rid.PageID)
	if err != nil {
		return err
	}
	s.touchLocked(fr)
	rec, err := fr.page.Record(rid.Slot)
	if err != nil {
		return err
	}
	fn(rec)
	return nil
}

// ViewPage is ViewRecord for readers that decode several records of one page:
// one pool access however many records fn reads with Page.Record. The page
// is valid only during the call; fn must not write it or call back into the
// store.
func (s *Store) ViewPage(id PageID, fn func(p *Page)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := s.frameLocked(id)
	if err != nil {
		return err
	}
	s.touchLocked(fr)
	fn(fr.page)
	return nil
}

// OverwriteRecord replaces a record in place (same or smaller size).
func (s *Store) OverwriteRecord(rid RecordID, rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := s.frameLocked(rid.PageID)
	if err != nil {
		return err
	}
	s.touchLocked(fr)
	return s.writableLocked(fr).Overwrite(rid.Slot, rec)
}

// DeleteRecord tombstones a record. A page left with no live record leaves
// the file's images and the pool and reads as a fresh empty page from then
// on (the page appends fill is kept), so records that come and go hold no
// memory once the last one on a page is gone, not until a checkpoint.
func (s *Store) DeleteRecord(rid RecordID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := s.frameLocked(rid.PageID)
	if err != nil {
		return err
	}
	s.touchLocked(fr)
	pg := s.writableLocked(fr)
	if err := pg.Delete(rid.Slot); err != nil {
		return err
	}
	if meta := &s.files[rid.File]; rid.Page != meta.lastPage && fr.pins == 0 && pg.dead() {
		s.dequeueLocked(fr)
		delete(s.pool, rid.PageID)
		delete(s.dirty, rid.PageID)
		meta.images.Delete(uint64(rid.Page))
	}
	return nil
}

// Scan iterates every live record of a file in (page, slot) order, calling
// fn with the record id and bytes (valid only during the call). fn returning
// false stops the scan.
func (s *Store) Scan(f FileID, fn func(RecordID, []byte) bool) error {
	n, err := s.NumPages(f)
	if err != nil {
		return err
	}
	for p := 0; p < n; p++ {
		id := PageID{File: f, Page: uint32(p)}
		pg, err := s.Pin(id)
		if err != nil {
			return err
		}
		slots := pg.NumSlots()
		for sl := 0; sl < slots; sl++ {
			rec, err := pg.Record(uint16(sl))
			if err != nil {
				continue // tombstone
			}
			if !fn(RecordID{PageID: id, Slot: uint16(sl)}, rec) {
				s.Unpin(id)
				return nil
			}
		}
		s.Unpin(id)
	}
	return nil
}

// lruList is a tiny intrusive doubly-linked LRU list: the elements are the
// lru fields of the pooled frames.
type lruList struct {
	head, tail *lruElem
}

type lruElem struct {
	id         PageID
	prev, next *lruElem
}

func newLRUList() *lruList { return &lruList{} }

func (l *lruList) pushFront(e *lruElem) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lruList) remove(e *lruElem) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruList) popBack() (PageID, bool) {
	if l.tail == nil {
		return PageID{}, false
	}
	e := l.tail
	l.remove(e)
	return e.id, true
}
