// Package pagestore is the storage substrate of the physical MCT store: 8 KB
// slotted pages grouped into heap files, held as immutable in-memory page
// images that store snapshots share and copy on write.
//
// The experiments of the paper's Section 7 ran Timber with an 8 KB data page
// over a disk behind a 256 MB buffer pool. The page size is kept, so records
// cluster the way the paper's did; there is no disk tier here, so there is no
// buffer pool either: a page read is a lookup in its file's image directory.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"colorfulxml/internal/cowarray"
)

// PageSize is the default page size (8 KB, the paper's configuration).
const PageSize = 8192

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
// page; callers must copy if they retain it past the read that found it.
func (p *Page) Record(slot uint16) ([]byte, error) {
	if slot >= p.numSlots() {
		return nil, fmt.Errorf("pagestore: slot %d: %w", slot, ErrNoSuchRecord)
	}
	rec, ok := p.record(slot)
	if !ok {
		return nil, fmt.Errorf("pagestore: slot %d deleted: %w", slot, ErrNoSuchRecord)
	}
	return rec, nil
}

// record returns the bytes of an existing slot, and false for a tombstone.
// A record's offset is never 0 (the header comes first), so a slot with
// offset 0 is a tombstone.
func (p *Page) record(slot uint16) ([]byte, bool) {
	off, length := p.slotEntry(slot)
	if off == 0 {
		return nil, false
	}
	return p.Data[off : off+length], true
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

// dead reports whether every slot of the page is a tombstone.
func (p *Page) dead() bool {
	for i := range p.numSlots() {
		if _, ok := p.record(i); ok {
			return false
		}
	}
	return true
}

// NumSlots returns the number of slots ever allocated in the page (including
// tombstones).
func (p *Page) NumSlots() int { return int(p.numSlots()) }

// Store is a collection of heap files: per file, a directory of page images,
// plus the set of pages this generation has copied.
//
// An image in a directory that a clone may share is never written: the first
// write of a page in a generation copies its image, and the copy replaces it
// in this store's directory (writable). Clone starts a new generation on both
// stores, so from then on each copies before it writes.
//
// Concurrency contract:
//   - one goroutine writes a store at a time (DB.mu sees to it);
//   - no other goroutine reads a store while it is being written;
//   - a frozen store may be read from any number of goroutines, also while
//     it is being cloned.
//
// A read is therefore an image lookup and takes no lock.
type Store struct {
	// files is indexed by FileID; an entry that does not exist is a gap left
	// by a page dump that skipped the id.
	files []fileMeta
	// copied holds the pages this generation owns: copied from a shared
	// image, or new. They are written in place until the next Clone.
	copied map[PageID]struct{}
}

type fileMeta struct {
	exists bool
	pages  uint32
	// lastPage caches the current fill target for appends.
	lastPage uint32
	hasPages bool
	// images holds the file's page images by page number. A page with no
	// image (never written, or dropped once dead) reads as emptyPage.
	images *cowarray.Array[*Page]
}

// emptyPage is what a page with no image reads as. It is never written.
var emptyPage Page

// NewStore creates an empty store. The argument is ignored; it is kept only
// for the nested bench module's callers, and goes with ROADMAP item 6.
func NewStore(int) *Store { return &Store{} }

// Clone returns a copy-on-write snapshot of the store. The two stores share
// every page image, and each starts a new generation: its next write of any
// page copies that page first, so neither observes the other's writes.
// Cloning costs the number of files, not the number of pages.
//
// Clone may run while other goroutines read the receiver; it touches nothing
// a read does.
func (s *Store) Clone() *Store {
	s.copied = nil
	files := append([]fileMeta(nil), s.files...)
	for i := range files {
		if files[i].exists {
			files[i].images = files[i].images.Clone()
		}
	}
	return &Store{files: files}
}

// file returns a file's metadata, or nil if there is no such file.
func (s *Store) file(f FileID) *fileMeta {
	if int(f) >= len(s.files) || !s.files[f].exists {
		return nil
	}
	return &s.files[f]
}

// CreateFile allocates a new, empty heap file.
func (s *Store) CreateFile() FileID {
	s.files = append(s.files, fileMeta{exists: true, images: &cowarray.Array[*Page]{}})
	return FileID(len(s.files) - 1)
}

// NumPages returns the number of pages in a file.
func (s *Store) NumPages(f FileID) (int, error) {
	meta := s.file(f)
	if meta == nil {
		return 0, fmt.Errorf("pagestore: file %d: %w", f, ErrNoSuchFile)
	}
	return int(meta.pages), nil
}

// page returns a page's image for reading, or emptyPage for a page with
// none.
func (s *Store) page(id PageID) (*Page, error) {
	meta := s.file(id.File)
	if meta == nil {
		return nil, fmt.Errorf("pagestore: file %d: %w", id.File, ErrNoSuchFile)
	}
	if id.Page >= meta.pages {
		return nil, fmt.Errorf("pagestore: page %v out of range (%d pages)", id, meta.pages)
	}
	if img, ok := meta.images.Get(uint64(id.Page)); ok {
		return img, nil
	}
	return &emptyPage, nil
}

// writable returns a page for writing: the page itself if this generation
// already owns it, otherwise a copy of its image (or a new page), which
// replaces the image in this store's directory.
func (s *Store) writable(id PageID) (*Page, error) {
	pg, err := s.page(id)
	if err != nil {
		return nil, err
	}
	if _, ok := s.copied[id]; ok {
		return pg, nil
	}
	cp := new(Page)
	if pg != &emptyPage {
		*cp = *pg
		obsPagesCopied.Inc()
	}
	s.files[id.File].images.Set(uint64(id.Page), cp)
	if s.copied == nil {
		s.copied = make(map[PageID]struct{})
	}
	s.copied[id] = struct{}{}
	return cp, nil
}

// Pin returns a page's image. It is kept only for the nested bench module's
// probe, and goes with ROADMAP item 6; readers here use ViewRecord, ViewPage
// or Scan.
func (s *Store) Pin(id PageID) (*Page, error) { return s.page(id) }

// Unpin does nothing. It is kept only for the nested bench module's probe,
// and goes with ROADMAP item 6.
func (s *Store) Unpin(PageID) {}

// AppendRecord inserts a record at the end of a file, allocating pages as
// needed, and returns its RecordID.
func (s *Store) AppendRecord(f FileID, rec []byte) (RecordID, error) {
	if len(rec) > PageSize-pageHeader-slotSize {
		return RecordID{}, fmt.Errorf("pagestore: %w", ErrRecordTooLarge)
	}
	meta := s.file(f)
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
		pg, err := s.page(id)
		if err != nil {
			return RecordID{}, err
		}
		if !fresh && len(rec) > pg.room() {
			fresh = true // page full: allocate a new one
			continue
		}
		if pg, err = s.writable(id); err != nil {
			return RecordID{}, err
		}
		slot, err := pg.Insert(rec)
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
// that decode a record and keep nothing of it: no copy. rec is valid only
// during the call, and fn must not write the store.
func (s *Store) ViewRecord(rid RecordID, fn func(rec []byte)) error {
	pg, err := s.page(rid.PageID)
	if err != nil {
		return err
	}
	rec, err := pg.Record(rid.Slot)
	if err != nil {
		return err
	}
	fn(rec)
	return nil
}

// ViewPage is ViewRecord for readers that decode several records of one page
// with Page.Record. The page is valid only during the call; fn must not
// write it or the store.
func (s *Store) ViewPage(id PageID, fn func(p *Page)) error {
	pg, err := s.page(id)
	if err != nil {
		return err
	}
	fn(pg)
	return nil
}

// OverwriteRecord replaces a record in place (same or smaller size).
func (s *Store) OverwriteRecord(rid RecordID, rec []byte) error {
	pg, err := s.writable(rid.PageID)
	if err != nil {
		return err
	}
	return pg.Overwrite(rid.Slot, rec)
}

// DeleteRecord tombstones a record. A page left with no live record loses
// its image and reads as a fresh empty page from then on (the page appends
// fill is kept), so records that come and go hold no memory once the last
// one on a page is gone, not until a checkpoint.
func (s *Store) DeleteRecord(rid RecordID) error {
	pg, err := s.writable(rid.PageID)
	if err != nil {
		return err
	}
	if err := pg.Delete(rid.Slot); err != nil {
		return err
	}
	if meta := &s.files[rid.File]; rid.Page != meta.lastPage && pg.dead() {
		meta.images.Delete(uint64(rid.Page))
		delete(s.copied, rid.PageID)
	}
	return nil
}

// Scan iterates every live record of a file in (page, slot) order, calling
// fn with the record id and bytes (valid only during the call). fn returning
// false stops the scan.
func (s *Store) Scan(f FileID, fn func(RecordID, []byte) bool) error {
	meta := s.file(f)
	if meta == nil {
		return fmt.Errorf("pagestore: file %d: %w", f, ErrNoSuchFile)
	}
	for p := uint32(0); p < meta.pages; p++ {
		pg, ok := meta.images.Get(uint64(p))
		if !ok {
			continue // no image: no records
		}
		id := PageID{File: f, Page: p}
		for sl := range pg.numSlots() {
			rec, ok := pg.record(sl)
			if !ok {
				continue // tombstone
			}
			if !fn(RecordID{PageID: id, Slot: sl}, rec) {
				return nil
			}
		}
	}
	return nil
}
