package pagestore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

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

// ErrChecksum is wrapped by every checksum failure detected while loading a
// page dump.
var ErrChecksum = errors.New("pagestore: checksum mismatch")

// DumpPages writes every page of every heap file to w in the checkpoint
// format. The receiver must not be written meanwhile (a frozen snapshot is
// the usual case); a page with no image is dumped as an empty page.
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
	for _, id := range ids {
		meta := s.files[id]
		for p := uint32(0); p < meta.pages; p++ {
			pid := PageID{File: id, Page: p}
			pg, err := s.page(pid)
			if err != nil {
				return err
			}
			img := pg.Data[:]
			if err := put(uint32(pid.File)); err != nil {
				return err
			}
			if err := put(pid.Page); err != nil {
				return err
			}
			if err := put(crc32.Checksum(img, pageCastagnoli)); err != nil {
				return err
			}
			if _, err := out.Write(img); err != nil {
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

// ReadStore reconstructs a Store from a page dump, verifying every page
// checksum. Any mismatch is reported with the damaged page's identity and
// wraps ErrChecksum.
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
	s := &Store{files: make([]fileMeta, nextFile)}
	type fileEnt struct {
		id    FileID
		pages uint32
	}
	files := make([]fileEnt, nFiles)
	totalPages := uint64(0)
	for i := range files {
		id, err := get()
		if err != nil {
			return nil, err
		}
		pages, err := get()
		if err != nil {
			return nil, err
		}
		files[i] = fileEnt{FileID(id), pages}
		if id >= nextFile {
			return nil, fmt.Errorf("pagestore: file id %d beyond nextFile %d", id, nextFile)
		}
		s.files[id] = fileMeta{exists: true, pages: pages, images: &cowarray.Array[*Page]{}}
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
		img := new(Page)
		if _, err := io.ReadFull(in, img.Data[:]); err != nil {
			return nil, fmt.Errorf("pagestore: truncated page %v: %w", id, err)
		}
		if got := crc32.Checksum(img.Data[:], pageCastagnoli); got != want {
			return nil, fmt.Errorf("pagestore: page %v: %w (got %08x, want %08x)", id, ErrChecksum, got, want)
		}
		meta.images.Set(uint64(id.Page), img)
	}
	wantTrailer := sum.Sum32()
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, fmt.Errorf("pagestore: truncated page dump trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(u32[:]); got != wantTrailer {
		return nil, fmt.Errorf("pagestore: page dump trailer: %w (got %08x, want %08x)", ErrChecksum, got, wantTrailer)
	}
	// Recompute append targets: the last page of each file is the fill target.
	for _, f := range files {
		meta := &s.files[f.id]
		if f.pages > 0 {
			meta.lastPage = f.pages - 1
			meta.hasPages = true
		}
	}
	return s, nil
}
