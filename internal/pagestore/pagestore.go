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
// tombstone bitmap, overwritten records) over an 8 KiB image that every
// snapshot holding the page shares. A shared image is append-only: an append
// writes past the end of its own snapshot's records and slot entries, where no
// other snapshot reads, so a commit that appends or deletes copies a header,
// not the image. An overwrite of a shared image puts the new record in the
// header, up to MaxPatches of them; the next overwrite folds them into an
// image of the header's own.
package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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
// still read the record. An overwrite of an image the header does not own
// sets the slot's bit too and puts the new record in patches; a set bit with
// a patch is that record, one without is a tombstone.
type Page struct {
	img *image
	// dead marks the tombstoned and the patched slots; a slot past its end is
	// live.
	dead []uint64
	// patches holds the records overwritten over a shared image, newest
	// first: at most MaxPatches, shared by header copies, never written.
	patches *patch
	// own is the store generation that may write this header in place. It
	// also owns the image if ownImg (then patches is nil), and the bitmap if
	// ownDead.
	own                *owner
	nslots, free, live uint16
	ownImg, ownDead    bool
}

// patch is one overwritten record of a header's list, or a tombstone of a
// slot an earlier patch holds.
type patch struct {
	next *patch
	rec  []byte
	slot uint16
	dead bool
}

// len is the length of the list from e.
func (e *patch) len() int {
	n := 0
	for ; e != nil; e = e.next {
		n++
	}
	return n
}

// MaxPatches bounds a header's list of overwritten records: the overwrite
// that would make it longer folds the list into a fresh image instead. A
// patched slot's read walks the list, so it is kept short.
const MaxPatches = 8

// image is a page's 8 KiB. hwm is numSlots | free<<16 of the snapshot that
// appended last: an append claims its record and slot entry by moving hwm on
// from its own snapshot's counts, so a snapshot that finds hwm moved — a
// sibling clone appended first — copies the image instead.
type image struct {
	hwm  atomic.Uint32
	body pageBody
}

// pageBody is a page image past its first four bytes.
type pageBody [PageSize - pageHeader]byte

// owner is an identity token: a page header may be written in place only by
// the store generation whose token it carries.
type owner struct{ _ byte }

const pageHeader = 4
const slotSize = 4

func (b *pageBody) slotEntry(i uint16) (off, length uint16) {
	e := binary.LittleEndian.Uint32(b[len(b)-(int(i)+1)*slotSize:])
	return uint16(e), uint16(e >> 16)
}

func (b *pageBody) setSlotEntry(i uint16, off, length uint16) {
	base := len(b) - (int(i)+1)*slotSize
	binary.LittleEndian.PutUint16(b[base:base+2], off)
	binary.LittleEndian.PutUint16(b[base+2:base+4], length)
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
	p.img.body.setSlotEntry(slot, off, uint16(len(rec)))
	p.nslots, p.free, p.live = slot+1, off+uint16(len(rec)), p.live+1
	return slot, nil
}

// copyImage gives the page an image of its own: its snapshot's records and
// slot entries, with zeros between them, where another snapshot may be
// appending. It folds the patches into the copy and clears their bits.
func (p *Page) copyImage() {
	old, data, dir := p.img, int(p.free)-pageHeader, len(p.img.body)-int(p.nslots)*slotSize
	p.img = new(image)
	copy(p.img.body[:data], old.body[:data])
	copy(p.img.body[dir:], old.body[dir:])
	p.replay(&p.img.body)
	if p.patches != nil {
		p.ownBitmap(0)
		for e := p.patches; e != nil; e = e.next {
			if _, ok := p.patched(e.slot); ok {
				p.dead[e.slot>>6] &^= 1 << (e.slot & 63)
			}
		}
		p.patches = nil
	}
	p.img.hwm.Store(p.mark())
	p.ownImg = true
	obsPagesCopied.Inc()
}

// replay writes the patches into body, a copy of the image's, oldest first,
// as overwrites in place would have written them.
func (p *Page) replay(body *pageBody) {
	var list [MaxPatches]*patch
	n := 0
	for e := p.patches; e != nil; e = e.next {
		list[n], n = e, n+1
	}
	for i := n - 1; i >= 0; i-- {
		e := list[i]
		if e.dead {
			continue
		}
		off, length := body.slotEntry(e.slot)
		copy(body[off-pageHeader:], e.rec)
		if len(e.rec) < int(length) {
			body.setSlotEntry(e.slot, off, uint16(len(e.rec)))
		}
	}
}

// Record returns the record bytes in a slot. The returned slice aliases the
// page's image or patch and must not be modified. Once the store is frozen
// (Store.Freeze) it never changes, so a reader may keep it, and the image.
func (p *Page) Record(slot uint16) ([]byte, error) {
	if slot >= p.nslots {
		return nil, fmt.Errorf("pagestore: slot %d: %w", slot, ErrNoSuchRecord)
	}
	rec, ok := p.record(slot)
	if !ok {
		rec, ok = p.patched(slot)
	}
	if !ok {
		return nil, fmt.Errorf("pagestore: slot %d deleted: %w", slot, ErrNoSuchRecord)
	}
	return rec, nil
}

// record returns the bytes of a slot in the image, and false if its bit is
// set: a tombstone, or a slot that patched holds. It is read per record, so
// it is kept small enough to inline.
func (p *Page) record(slot uint16) ([]byte, bool) {
	if w := int(slot >> 6); w < len(p.dead) && p.dead[w]&(1<<(slot&63)) != 0 {
		return nil, false
	}
	off, length := p.img.body.slotEntry(slot)
	return p.img.body[off-pageHeader:][:length], true
}

// patched returns the newest patch of a slot whose bit is set, and false if
// there is none or it is a tombstone.
func (p *Page) patched(slot uint16) ([]byte, bool) {
	for e := p.patches; e != nil; e = e.next {
		if e.slot == slot {
			return e.rec, !e.dead
		}
	}
	return nil, false
}

// overwrite replaces a live record: in place if the page owns its image,
// otherwise as a patch, after folding the patches into an image of its own
// if there are MaxPatches already. The new record must not be longer than
// the old one (MCT structural records are fixed-size).
func (p *Page) overwrite(slot uint16, rec []byte) error {
	cur, err := p.Record(slot)
	if err != nil {
		return err
	}
	if len(rec) > len(cur) {
		return fmt.Errorf("pagestore: overwrite grows record %d -> %d: %w", len(cur), len(rec), ErrRecordTooLarge)
	}
	if !p.ownImg && p.patches.len() == MaxPatches {
		p.copyImage()
	}
	if !p.ownImg {
		p.ownBitmap(slot)
		p.dead[slot>>6] |= 1 << (slot & 63)
		p.patches = &patch{next: p.patches, rec: bytes.Clone(rec), slot: slot}
		return nil
	}
	off, length := p.img.body.slotEntry(slot)
	copy(p.img.body[off-pageHeader:], rec)
	if len(rec) < int(length) {
		p.img.body.setSlotEntry(slot, off, uint16(len(rec)))
	}
	return nil
}

// delete tombstones a live slot: it sets the slot's bit, or, if a patch
// holds the slot, adds a tombstone patch (the overwritten bytes stay in the
// list, for replay). Its space is not reclaimed within the page; a page
// whose every slot is a tombstone is dropped whole (Store.DeleteRecord).
func (p *Page) delete(slot uint16) {
	if p.marked(slot) && p.patches.len() == MaxPatches {
		p.copyImage()
	}
	if p.marked(slot) {
		p.patches = &patch{next: p.patches, slot: slot, dead: true}
	} else {
		p.ownBitmap(slot)
		p.dead[slot>>6] |= 1 << (slot & 63)
	}
	p.live--
}

// marked reports whether slot's bit is set. (record tests the bit itself:
// a call would keep it from being inlined.)
func (p *Page) marked(slot uint16) bool {
	w := int(slot >> 6)
	return w < len(p.dead) && p.dead[w]&(1<<(slot&63)) != 0
}

// ownBitmap copies the header's bitmap, sized for every slot, unless the
// header owns one that holds slot's bit.
func (p *Page) ownBitmap(slot uint16) {
	if !p.ownDead || int(slot>>6) >= len(p.dead) {
		dead := make([]uint64, int(p.nslots>>6)+1)
		copy(dead, p.dead)
		p.dead, p.ownDead = dead, true
	}
}

// Store is a collection of heap files: per file, a directory of page headers.
//
// A header in a directory that a clone may share is never written: the first
// write of a page in a generation copies its header, and the copy replaces it
// in this store's directory. Clone
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
	// pages counts the file's pages; fill is the one appends fill.
	pages, fill uint32
	// dir holds the file's page headers by page number. A page with none
	// (never written, or dropped once dead) reads as emptyPage.
	dir *cowarray.Array[*Page]
	// emptied lists the pages besides fill that lost their last record, for
	// appends to fill before the file grows. Clones share it until one of
	// them, a generation other than emptiedOwn, pushes a page and copies it.
	emptied    []uint32
	emptiedOwn *owner
}

// emptyPage is what a page with no header reads as. It is never written.
var emptyPage Page

// NewStore creates an empty store. The argument is ignored; it is kept only
// for the nested bench module's callers, and goes with ROADMAP item 6.
func NewStore(int) *Store { return &Store{} }

// Freeze ends the store's write generation, so no header, image or bitmap is
// its to write in place: a later write through it or a clone copies a header
// and appends past its records, patches, or folds into a fresh image, and no
// byte of a record it holds changes again. It touches nothing a read does.
func (s *Store) Freeze() { s.own = nil }

// Clone returns a copy-on-write snapshot of the store. The two stores share
// every page, and each starts a new generation: its next write of any page
// copies that page's header first, so neither observes the other's writes.
// Cloning freezes the receiver, and costs the number of files, not the
// number of pages.
//
// Clone may run while other goroutines read the receiver; it touches nothing
// a read does.
func (s *Store) Clone() *Store {
	s.Freeze()
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
// if this generation made it; otherwise a copy sharing pg's image, bitmap and
// patches (a new page if pg has no image), which replaces it in this store's
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

// AppendRecord inserts a record into a file's fill page. When that page is
// full it takes the page emptied last, or else a new page at the end; a fill
// page full of deleted records starts afresh.
func (s *Store) AppendRecord(f FileID, rec []byte) (RecordID, error) {
	if len(rec) > PageSize-pageHeader-slotSize {
		return RecordID{}, fmt.Errorf("pagestore: %w", ErrRecordTooLarge)
	}
	meta := s.file(f)
	if meta == nil {
		return RecordID{}, fmt.Errorf("pagestore: file %d: %w", f, ErrNoSuchFile)
	}
	pg, ok := meta.dir.Get(uint64(meta.fill))
	switch {
	case meta.pages > 0 && ok && len(rec) <= pg.room():
	case meta.pages > 0 && (!ok || pg.live == 0):
		pg = &emptyPage
	case len(meta.emptied) > 0:
		n := len(meta.emptied) - 1
		meta.fill, meta.emptied, pg = meta.emptied[n], meta.emptied[:n], &emptyPage
	default:
		meta.fill, pg = meta.pages, &emptyPage
		meta.pages++
	}
	id := PageID{File: f, Page: meta.fill}
	slot, err := s.writable(id, pg).insert(rec)
	return RecordID{PageID: id, Slot: slot}, err
}

// ReadRecord returns a copy of the record.
func (s *Store) ReadRecord(rid RecordID) ([]byte, error) {
	var out []byte
	err := s.ViewRecord(rid, func(rec []byte) { out = append([]byte(nil), rec...) })
	return out, err
}

// ViewRecord calls fn with the record's bytes inside the page: no copy. rec
// must not be modified, and fn must not write the store. On a frozen store
// rec stays valid after the call (Page.Record); on one still being written
// it is valid only during the call.
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
// with Page.Record, which keeps ViewRecord's contract: fn must not write the
// page or the store, and the records of a frozen store may be kept.
func (s *Store) ViewPage(id PageID, fn func(p *Page)) error {
	pg, err := s.page(id)
	if err != nil {
		return err
	}
	fn(pg)
	return nil
}

// OverwriteRecord replaces a record with one of the same or a smaller size.
func (s *Store) OverwriteRecord(rid RecordID, rec []byte) error {
	pg, err := s.live(rid)
	if err != nil {
		return err
	}
	return s.writable(rid.PageID, pg).overwrite(rid.Slot, rec)
}

// DeleteRecord tombstones a record. A page left with no live record loses
// its header and image and reads as a fresh empty page from then on, so
// records that come and go hold no memory once the last one on a page is
// gone, not until a checkpoint; and appends fill the page again before the
// file grows. The fill page keeps its header: appends go on past its records.
func (s *Store) DeleteRecord(rid RecordID) error {
	pg, err := s.live(rid)
	if err != nil {
		return err
	}
	if meta := &s.files[rid.File]; pg.live == 1 && rid.Page != meta.fill {
		meta.dir.Delete(uint64(rid.Page))
		if s.own == nil {
			s.own = new(owner)
		}
		if meta.emptiedOwn != s.own {
			meta.emptied, meta.emptiedOwn = slices.Clip(meta.emptied), s.own
		}
		meta.emptied = append(meta.emptied, rid.Page)
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
				if rec, ok = pg.patched(sl); !ok {
					continue // tombstone
				}
			}
			if !fn(RecordID{PageID: id, Slot: sl}, rec) {
				return nil
			}
		}
	}
	return nil
}
