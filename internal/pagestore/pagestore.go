// Package pagestore is the storage substrate of the physical MCT store: 8 KB
// slotted pages grouped into heap files, held as in-memory page images that
// store snapshots share.
//
// The experiments of the paper's Section 7 ran Timber with an 8 KB data page
// over a disk behind a 256 MB buffer pool. The page size is kept, so records
// cluster the way the paper's did; there is no disk tier here, so there is no
// buffer pool either: a page read is a lookup in its file's page directory.
//
// A page is a small header per snapshot (slot count, free offset, live count,
// tombstone bitmap) over an 8 KiB image that every snapshot holding the page
// shares. A shared image is append-only: an append writes past the end of its
// own snapshot's records and slot entries, where no other snapshot reads, so a
// commit that appends or deletes copies a header, not the image. An overwrite
// still copies the image, once per snapshot.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

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

// Page is one snapshot's header over a page image. The image is laid out as
// the page dump stores it:
//
//	[0:2]  numSlots
//	[2:4]  free-space offset (end of used data region)
//	then per-slot 4-byte entries (offset uint16, length uint16) growing from
//	the end of the page, record data growing from the front.
//
// In memory, the first four bytes are the image's high-water mark instead
// (image.hwm), the header holds the counts, and a tombstone is a bit in the
// header's bitmap: the image keeps the entry, since an older snapshot may
// still read the record.
type Page struct {
	img *image
	// dead marks the tombstoned slots; a slot past its end is live.
	dead []uint64
	// own is the store generation that may write this header in place. It
	// also owns the image if ownImg, and the bitmap if ownDead.
	own                *owner
	nslots, free, live uint16
	ownImg, ownDead    bool
}

// image is a page's 8 KiB. hwm is numSlots | free<<16 of the snapshot that
// appended last: an append claims its record and slot entry by moving hwm on
// from its own snapshot's counts, so a snapshot that finds hwm moved — a
// sibling clone appended first — copies the image instead.
type image struct {
	hwm  atomic.Uint32
	body [PageSize - pageHeader]byte
}

// owner is an identity token: a page header may be written in place only by
// the store generation whose token it carries.
type owner struct{ _ byte }

const pageHeader = 4
const slotSize = 4

func (m *image) slotEntry(i uint16) (off, length uint16) {
	e := binary.LittleEndian.Uint32(m.body[len(m.body)-(int(i)+1)*slotSize:])
	return uint16(e), uint16(e >> 16)
}

func (m *image) setSlotEntry(i uint16, off, length uint16) {
	base := len(m.body) - (int(i)+1)*slotSize
	binary.LittleEndian.PutUint16(m.body[base:base+2], off)
	binary.LittleEndian.PutUint16(m.body[base+2:base+4], length)
}

// newPage returns an empty page whose image is its own.
func newPage() *Page {
	p := &Page{img: new(image), free: pageHeader, ownImg: true}
	p.img.hwm.Store(p.mark())
	return p
}

// mark is the image high-water mark of this header's counts.
func (p *Page) mark() uint32 { return uint32(p.nslots) | uint32(p.free)<<16 }

// room is the bytes left for one more record after its slot entry: negative
// when not even the entry fits, which keeps an empty record off a full page.
func (p *Page) room() int { return PageSize - int(p.free) - (int(p.nslots)+1)*slotSize }

// insert adds a record to the page, returning its slot. It writes in place if
// the image's high-water mark is still this header's counts, and claims the
// space by moving the mark; otherwise another snapshot appended first, and
// the page takes an image of its own.
func (p *Page) insert(rec []byte) (uint16, error) {
	if len(rec) > p.room() {
		return 0, fmt.Errorf("pagestore: %w (%d bytes, %d free)", ErrRecordTooLarge, len(rec), max(0, p.room()))
	}
	slot, off := p.nslots, p.free
	next := uint32(slot+1) | uint32(off+uint16(len(rec)))<<16
	if !p.img.hwm.CompareAndSwap(p.mark(), next) {
		p.copyImage()
		p.img.hwm.Store(next)
	}
	copy(p.img.body[off-pageHeader:], rec)
	p.img.setSlotEntry(slot, off, uint16(len(rec)))
	p.nslots, p.free, p.live = slot+1, off+uint16(len(rec)), p.live+1
	return slot, nil
}

// copyImage gives the page an image of its own: its snapshot's records and
// slot entries, with zeros between them, where another snapshot may be
// appending.
func (p *Page) copyImage() {
	old, data, dir := p.img, int(p.free)-pageHeader, len(p.img.body)-int(p.nslots)*slotSize
	p.img = new(image)
	copy(p.img.body[:data], old.body[:data])
	copy(p.img.body[dir:], old.body[dir:])
	p.img.hwm.Store(p.mark())
	p.ownImg = true
	obsPagesCopied.Inc()
}

// Record returns the record bytes in a slot. The returned slice aliases the
// page; callers must copy if they retain it past the read that found it.
func (p *Page) Record(slot uint16) ([]byte, error) {
	if slot >= p.nslots {
		return nil, fmt.Errorf("pagestore: slot %d: %w", slot, ErrNoSuchRecord)
	}
	rec, ok := p.record(slot)
	if !ok {
		return nil, fmt.Errorf("pagestore: slot %d deleted: %w", slot, ErrNoSuchRecord)
	}
	return rec, nil
}

// record returns the bytes of an existing slot, and false for a tombstone.
// It is read per record, so it is kept small enough to inline.
func (p *Page) record(slot uint16) ([]byte, bool) {
	if w := int(slot >> 6); w < len(p.dead) && p.dead[w]&(1<<(slot&63)) != 0 {
		return nil, false
	}
	off, length := p.img.slotEntry(slot)
	return p.img.body[off-pageHeader:][:length], true
}

// overwrite replaces a live record in place, copying the image first unless
// the page owns it. The new record must not be longer than the old one (MCT
// structural records are fixed-size).
func (p *Page) overwrite(slot uint16, rec []byte) error {
	off, length := p.img.slotEntry(slot)
	if len(rec) > int(length) {
		return fmt.Errorf("pagestore: overwrite grows record %d -> %d: %w", length, len(rec), ErrRecordTooLarge)
	}
	if !p.ownImg {
		p.copyImage()
	}
	copy(p.img.body[off-pageHeader:], rec)
	if len(rec) < int(length) {
		p.img.setSlotEntry(slot, off, uint16(len(rec)))
	}
	return nil
}

// delete tombstones a live slot in the header's bitmap, copying the bitmap
// first unless the header owns it. Its space is not reclaimed within the
// page; a page whose every slot is a tombstone is dropped whole
// (Store.DeleteRecord).
func (p *Page) delete(slot uint16) {
	if w := int(slot >> 6); !p.ownDead || w >= len(p.dead) {
		dead := make([]uint64, int(p.nslots>>6)+1)
		copy(dead, p.dead)
		p.dead, p.ownDead = dead, true
	}
	p.dead[slot>>6] |= 1 << (slot & 63)
	p.live--
}

// NumSlots returns the number of slots ever allocated in the page (including
// tombstones).
func (p *Page) NumSlots() int { return int(p.nslots) }

// Store is a collection of heap files: per file, a directory of page headers.
//
// A header in a directory that a clone may share is never written: the first
// write of a page in a generation copies its header (the image too for an
// overwrite), and the copy replaces it in this store's directory. Clone
// starts a new generation on both stores, so from then on each copies before
// it writes.
//
// Concurrency contract:
//   - one goroutine writes a store at a time (DB.mu sees to it);
//   - no other goroutine reads a store while it is being written;
//   - a frozen store may be read from any number of goroutines, also while
//     it is being cloned and while its clones write.
//
// A read is therefore a header lookup and takes no lock.
type Store struct {
	// files is indexed by FileID; an entry that does not exist is a gap left
	// by a page dump that skipped the id.
	files []fileMeta
	// own is this generation's token, made on its first write.
	own *owner
}

type fileMeta struct {
	exists bool
	// pages counts the file's pages; the last one is the fill target for
	// appends.
	pages uint32
	// dir holds the file's page headers by page number. A page with none
	// (never written, or dropped once dead) reads as emptyPage.
	dir *cowarray.Array[*Page]
}

// emptyPage is what a page with no header reads as. It is never written.
var emptyPage Page

// NewStore creates an empty store. The argument is ignored; it is kept only
// for the nested bench module's callers, and goes with ROADMAP item 6.
func NewStore(int) *Store { return &Store{} }

// Clone returns a copy-on-write snapshot of the store. The two stores share
// every page, and each starts a new generation: its next write of any page
// copies that page's header first, so neither observes the other's writes.
// Cloning costs the number of files, not the number of pages.
//
// Clone may run while other goroutines read the receiver; it touches nothing
// a read does.
func (s *Store) Clone() *Store {
	s.own = nil
	files := append([]fileMeta(nil), s.files...)
	for i := range files {
		if files[i].exists {
			files[i].dir = files[i].dir.Clone()
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
	s.files = append(s.files, fileMeta{exists: true, dir: &cowarray.Array[*Page]{}})
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

// page returns a page's header for reading, or emptyPage for a page with
// none.
func (s *Store) page(id PageID) (*Page, error) {
	meta := s.file(id.File)
	if meta == nil {
		return nil, fmt.Errorf("pagestore: file %d: %w", id.File, ErrNoSuchFile)
	}
	if id.Page >= meta.pages {
		return nil, fmt.Errorf("pagestore: page %v out of range (%d pages)", id, meta.pages)
	}
	if pg, ok := meta.dir.Get(uint64(id.Page)); ok {
		return pg, nil
	}
	return &emptyPage, nil
}

// live returns the header of a live record's page.
func (s *Store) live(rid RecordID) (*Page, error) {
	pg, err := s.page(rid.PageID)
	if err == nil {
		_, err = pg.Record(rid.Slot)
	}
	return pg, err
}

// writable returns page id's header for writing: pg, the header read for it,
// if this generation made it; otherwise a copy sharing pg's image and bitmap
// (a new page if pg has no image), which replaces it in this store's
// directory.
func (s *Store) writable(id PageID, pg *Page) *Page {
	if s.own == nil {
		s.own = new(owner)
	}
	if pg.own == s.own {
		return pg
	}
	if pg.img == nil {
		pg = newPage()
	} else {
		cp := *pg
		cp.ownImg, cp.ownDead = false, false
		pg = &cp
	}
	pg.own = s.own
	s.files[id.File].dir.Set(uint64(id.Page), pg)
	return pg
}

// Pin returns a page's header. It is kept only for the nested bench module's
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
	pg, _ := meta.dir.Get(uint64(meta.pages) - 1)
	if meta.pages == 0 || pg != nil && len(rec) > pg.room() {
		meta.pages, pg = meta.pages+1, nil // no page yet, or the last is full
	}
	if pg == nil {
		pg = &emptyPage
	}
	id := PageID{File: f, Page: meta.pages - 1}
	slot, err := s.writable(id, pg).insert(rec)
	return RecordID{PageID: id, Slot: slot}, err
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
	pg, err := s.live(rid)
	if err != nil {
		return err
	}
	return s.writable(rid.PageID, pg).overwrite(rid.Slot, rec)
}

// DeleteRecord tombstones a record. A page left with no live record loses
// its header and image and reads as a fresh empty page from then on (the page
// appends fill is kept), so records that come and go hold no memory once the
// last one on a page is gone, not until a checkpoint.
func (s *Store) DeleteRecord(rid RecordID) error {
	pg, err := s.live(rid)
	if err != nil {
		return err
	}
	if meta := &s.files[rid.File]; rid.Page != meta.pages-1 && pg.live == 1 {
		meta.dir.Delete(uint64(rid.Page))
		return nil
	}
	s.writable(rid.PageID, pg).delete(rid.Slot)
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
		pg, ok := meta.dir.Get(uint64(p))
		if !ok {
			continue // no header: no records
		}
		id := PageID{File: f, Page: p}
		for sl := range pg.nslots {
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
