package pagestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"

	"colorfulxml/internal/cowarray"
)

// This file is the on-disk page format of the durable store. A page dump is
// the paged half of a checkpoint: a header, the heap-file table, and every
// page image prefixed with its identity and a CRC32C checksum. Loading
// verifies each page's checksum and fails naming the damaged page, so a
// corrupted checkpoint can never be opened as if it were intact.
//
//	dump   := magic "MCTPAGE1" | version:u32 | nextFile:u32 | nFiles:u32
//	          file* page*
//	file   := id:u32 | pages:u32
//	page   := file:u32 | page:u32 | crc32c(data):u32 | data[PageSize]
//	       then trailer crc32c over everything before it.

const pageMagic = "MCTPAGE1"

// persistVersion is the page-dump format version.
const persistVersion = 1

var pageCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors detected while loading a page dump. ErrBadPage is a page that
// passes its checksum but whose slot directory overlaps its records, or that
// has a live slot outside them: its records cannot be read.
var (
	ErrChecksum = errors.New("pagestore: checksum mismatch")
	ErrBadPage  = errors.New("pagestore: malformed page")
)

// DumpPages writes every page of every heap file to w in the checkpoint
// format. The receiver must not be written meanwhile (a frozen snapshot is
// the usual case), but its clones may be. Each page is written as this
// store sees it (encode); a page with no image is dumped as an empty page.
func (s *Store) DumpPages(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	sum := crc32.New(pageCastagnoli)
	out := io.MultiWriter(bw, sum)

	var u32 [4]byte
	put := func(v uint32) error {
		binary.LittleEndian.PutUint32(u32[:], v)
		_, err := out.Write(u32[:])
		return err
	}
	if _, err := out.Write([]byte(pageMagic)); err != nil {
		return err
	}
	if err := put(persistVersion); err != nil {
		return err
	}
	if err := put(uint32(len(s.files))); err != nil {
		return err
	}
	// File table in id order.
	var ids []FileID
	for id := range s.files {
		if s.files[id].exists {
			ids = append(ids, FileID(id))
		}
	}
	if err := put(uint32(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		if err := put(uint32(id)); err != nil {
			return err
		}
		if err := put(s.files[id].pages); err != nil {
			return err
		}
	}
	img := new([PageSize]byte)
	for _, id := range ids {
		meta := s.files[id]
		for p := uint32(0); p < meta.pages; p++ {
			pid := PageID{File: id, Page: p}
			pg, err := s.page(pid)
			if err != nil {
				return err
			}
			pg.encode(img)
			if err := put(uint32(pid.File)); err != nil {
				return err
			}
			if err := put(pid.Page); err != nil {
				return err
			}
			if err := put(crc32.Checksum(img[:], pageCastagnoli)); err != nil {
				return err
			}
			if _, err := out.Write(img[:]); err != nil {
				return err
			}
		}
	}
	// Whole-dump trailer checksum (catches truncation of the final page run).
	binary.LittleEndian.PutUint32(u32[:], sum.Sum32())
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// encode writes the page into b as the dump stores it: this header's counts,
// its records, patches replayed, and slot entries with each tombstone's entry
// zeroed, and zeros between them, where a clone may have appended.
func (p *Page) encode(b *[PageSize]byte) {
	clear(b[:])
	if p.img == nil {
		return
	}
	binary.LittleEndian.PutUint16(b[0:2], p.nslots)
	binary.LittleEndian.PutUint16(b[2:4], p.free)
	dir := PageSize - int(p.nslots)*slotSize
	copy(b[pageHeader:p.free], p.img.body[:])
	copy(b[dir:], p.img.body[dir-pageHeader:])
	p.replay((*pageBody)(b[pageHeader:]))
	for w, m := range p.dead {
		for ; m != 0; m &= m - 1 {
			slot := w*64 + bits.TrailingZeros64(m)
			if _, ok := p.patched(uint16(slot)); !ok {
				e := PageSize - (slot+1)*slotSize
				clear(b[e : e+slotSize])
			}
		}
	}
}

// decodePage rebuilds the header of a dumped page from its first four bytes
// and the rest, already read into img; a page with no slots gets none. The
// loading store's generation own owns the header, image and bitmap.
func decodePage(head []byte, img *image, own *owner) (*Page, error) {
	p := &Page{img: img, nslots: binary.LittleEndian.Uint16(head[0:2]), own: own, ownImg: true}
	p.free, p.live = max(binary.LittleEndian.Uint16(head[2:4]), pageHeader), p.nslots
	if int(p.nslots)*slotSize+int(p.free) > PageSize {
		return nil, fmt.Errorf("%w: %d slot entries overlap %d bytes of records", ErrBadPage, p.nslots, p.free)
	}
	if p.nslots == 0 {
		return nil, nil
	}
	for i := range p.nslots {
		switch off, length := img.body.slotEntry(i); {
		case off == 0:
			p.delete(i)
		case off < pageHeader || int(off)+int(length) > int(p.free):
			return nil, fmt.Errorf("%w: slot %d holds bytes [%d, %d), outside the records [%d, %d)",
				ErrBadPage, i, off, int(off)+int(length), pageHeader, p.free)
		}
	}
	img.hwm.Store(p.mark())
	return p, nil
}

// ReadStore reconstructs a Store from a page dump, verifying every page
// checksum, then every page's slot directory. A failure names the damaged
// page and wraps ErrChecksum or ErrBadPage.
func ReadStore(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	sum := crc32.New(pageCastagnoli)
	in := io.TeeReader(br, sum)

	var u32 [4]byte
	get := func() (uint32, error) {
		if _, err := io.ReadFull(in, u32[:]); err != nil {
			return 0, fmt.Errorf("pagestore: truncated page dump: %w", err)
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	magic := make([]byte, len(pageMagic))
	if _, err := io.ReadFull(in, magic); err != nil {
		return nil, fmt.Errorf("pagestore: truncated page dump: %w", err)
	}
	if string(magic) != pageMagic {
		return nil, fmt.Errorf("pagestore: bad page dump magic %q", magic)
	}
	ver, err := get()
	if err != nil {
		return nil, err
	}
	if ver != persistVersion {
		return nil, fmt.Errorf("pagestore: unsupported page dump version %d", ver)
	}
	nextFile, err := get()
	if err != nil {
		return nil, err
	}
	nFiles, err := get()
	if err != nil {
		return nil, err
	}
	if nFiles > 1<<20 || nextFile > 1<<20 {
		return nil, fmt.Errorf("pagestore: implausible file count %d (next id %d)", nFiles, nextFile)
	}
	s := &Store{files: make([]fileMeta, nextFile), own: new(owner)}
	totalPages := uint64(0)
	for range nFiles {
		id, err := get()
		if err != nil {
			return nil, err
		}
		pages, err := get()
		if err != nil {
			return nil, err
		}
		if id >= nextFile {
			return nil, fmt.Errorf("pagestore: file id %d beyond nextFile %d", id, nextFile)
		}
		s.files[id] = fileMeta{exists: true, pages: pages, fill: max(pages, 1) - 1, dir: &cowarray.Array[*Page]{}}
		totalPages += uint64(pages)
	}
	for n := uint64(0); n < totalPages; n++ {
		fid, err := get()
		if err != nil {
			return nil, err
		}
		pno, err := get()
		if err != nil {
			return nil, err
		}
		want, err := get()
		if err != nil {
			return nil, err
		}
		id := PageID{File: FileID(fid), Page: pno}
		meta := s.file(id.File)
		if meta == nil || id.Page >= meta.pages {
			return nil, fmt.Errorf("pagestore: page dump names unknown page %v", id)
		}
		img := new(image)
		_, err = io.ReadFull(in, u32[:])
		if err == nil {
			_, err = io.ReadFull(in, img.body[:])
		}
		if err != nil {
			return nil, fmt.Errorf("pagestore: truncated page %v: %w", id, err)
		}
		got := crc32.Update(crc32.Checksum(u32[:], pageCastagnoli), pageCastagnoli, img.body[:])
		if got != want {
			return nil, fmt.Errorf("pagestore: page %v: %w (got %08x, want %08x)", id, ErrChecksum, got, want)
		}
		pg, err := decodePage(u32[:], img, s.own)
		if err != nil {
			return nil, fmt.Errorf("pagestore: page %v: %w", id, err)
		}
		if pg != nil {
			meta.dir.Set(uint64(id.Page), pg)
		} else if id.Page+1 < meta.pages {
			meta.emptied = append(meta.emptied, id.Page)
		}
	}
	wantTrailer := sum.Sum32()
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, fmt.Errorf("pagestore: truncated page dump trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(u32[:]); got != wantTrailer {
		return nil, fmt.Errorf("pagestore: page dump trailer: %w (got %08x, want %08x)", ErrChecksum, got, wantTrailer)
	}
	return s, nil
}
