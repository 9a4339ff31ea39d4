package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"colorfulxml/internal/btree"
	"colorfulxml/internal/core"
	"colorfulxml/internal/cowarray"
	"colorfulxml/internal/obs"
	"colorfulxml/internal/pagestore"
)

// This file is the checkpoint half of the durable store: a checkpoint is the
// store's metadata (the color -> heap-file mapping and the element file)
// followed by the checksummed page dump of internal/pagestore. Directories
// and indexes are deliberately NOT serialized — ReadCheckpoint rebuilds them
// by scanning the recovered pages, so they can never disagree with the page
// contents, and the format surface that must stay compatible across versions
// stays minimal.
//
//	checkpoint := magic "MCTCKPT1" | metaLen:u32 | meta | crc32c(meta):u32
//	              page-dump (see pagestore.DumpPages)
//	meta       := version:u32 | elemFile:u32 | nColors:u32
//	              (colorLen:u16 color elemFile:u32)*

const ckptMagic = "MCTCKPT1"

// ckptVersion is the checkpoint metadata format version.
const ckptVersion = 1

var ckptCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteCheckpoint serializes the store to w. The receiver must be quiescent
// (a frozen snapshot or a store covered by the writer lock).
func (s *Store) WriteCheckpoint(w io.Writer) error {
	sw := obs.Start()
	defer func() {
		obsCheckpointSaves.Inc()
		obsCheckpointWriteNanos.Observe(sw.ElapsedNanos())
	}()
	var meta bytes.Buffer
	var u32 [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		meta.Write(u32[:])
	}
	put32(ckptVersion)
	put32(uint32(s.elemFile))
	put32(uint32(len(s.trees)))
	for _, t := range s.trees {
		var n [2]byte
		binary.LittleEndian.PutUint16(n[:], uint16(len(t.color)))
		meta.Write(n[:])
		meta.WriteString(string(t.color))
		put32(uint32(t.file))
	}

	if _, err := w.Write([]byte(ckptMagic)); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(meta.Len()))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	if _, err := w.Write(meta.Bytes()); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u32[:], crc32.Checksum(meta.Bytes(), ckptCastagnoli))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	return s.pages.DumpPages(w)
}

// ReadCheckpoint deserializes a checkpoint, verifying the metadata checksum
// and every page checksum, then rebuilds the in-memory directories and
// indexes by scanning the recovered heap files.
func ReadCheckpoint(r io.Reader) (*Store, error) {
	sw := obs.Start()
	defer func() {
		obsCheckpointLoads.Inc()
		obsCheckpointLoadNanos.Observe(sw.ElapsedNanos())
	}()
	hdr := make([]byte, len(ckptMagic)+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("storage: truncated checkpoint header: %w", err)
	}
	if string(hdr[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("storage: bad checkpoint magic %q", hdr[:len(ckptMagic)])
	}
	metaLen := binary.LittleEndian.Uint32(hdr[len(ckptMagic):])
	if metaLen > 1<<24 {
		return nil, fmt.Errorf("storage: implausible checkpoint meta length %d", metaLen)
	}
	meta := make([]byte, metaLen+4)
	if _, err := io.ReadFull(r, meta); err != nil {
		return nil, fmt.Errorf("storage: truncated checkpoint meta: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(meta[metaLen:])
	meta = meta[:metaLen]
	if got := crc32.Checksum(meta, ckptCastagnoli); got != wantCRC {
		return nil, fmt.Errorf("storage: checkpoint meta: %w (got %08x, want %08x)",
			pagestore.ErrChecksum, got, wantCRC)
	}

	rd := bytes.NewReader(meta)
	var u32 [4]byte
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(rd, u32[:]); err != nil {
			return 0, fmt.Errorf("storage: truncated checkpoint meta: %w", err)
		}
		return binary.LittleEndian.Uint32(u32[:]), nil
	}
	ver, err := get32()
	if err != nil {
		return nil, err
	}
	if ver != ckptVersion {
		return nil, fmt.Errorf("storage: unsupported checkpoint version %d", ver)
	}
	elemFile, err := get32()
	if err != nil {
		return nil, err
	}
	nColors, err := get32()
	if err != nil {
		return nil, err
	}
	if uint64(nColors) > uint64(metaLen) {
		return nil, fmt.Errorf("storage: implausible color count %d", nColors)
	}
	type colorFile struct {
		c core.Color
		f pagestore.FileID
	}
	colorFiles := make([]colorFile, nColors)
	for i := range colorFiles {
		var n [2]byte
		if _, err := io.ReadFull(rd, n[:]); err != nil {
			return nil, fmt.Errorf("storage: truncated checkpoint meta: %w", err)
		}
		nameLen := int(binary.LittleEndian.Uint16(n[:]))
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(rd, name); err != nil {
			return nil, fmt.Errorf("storage: truncated checkpoint meta: %w", err)
		}
		f, err := get32()
		if err != nil {
			return nil, err
		}
		colorFiles[i] = colorFile{c: core.Color(name), f: pagestore.FileID(f)}
	}

	pages, err := pagestore.ReadStore(r)
	if err != nil {
		return nil, err
	}
	s := &Store{
		pages:      pages,
		elemFile:   pagestore.FileID(elemFile),
		elemLoc:    &cowarray.Array[uint64]{},
		tagIdx:     btree.New(),
		contentIdx: btree.New(),
		attrIdx:    btree.New(),
	}
	for _, cf := range colorFiles {
		if s.tree(cf.c) != nil {
			return nil, fmt.Errorf("storage: checkpoint meta repeats color %q", cf.c)
		}
		s.addTree(cf.c, cf.f)
	}
	if err := s.rebuildDirectories(); err != nil {
		return nil, err
	}
	return s, nil
}

// rebuildDirectories repopulates the element and structural directories, all
// four indexes, the size counts and the id cursor by scanning the
// heap files of a freshly loaded page set.
func (s *Store) rebuildDirectories() error {
	// Element file: directory, attribute index, id cursor, counts.
	var badID error
	err := s.pages.Scan(s.elemFile, func(rid pagestore.RecordID, rec []byte) bool {
		id, _, content, attrs := decodeElem(rec)
		if badID = checkElemID(id); badID != nil {
			return false
		}
		s.elemLoc.Set(uint64(id), packRID(rid))
		if id >= s.nextID {
			s.nextID = id + 1
		}
		s.counts.Elements++
		s.counts.Attributes += len(attrs)
		if content != "" {
			s.counts.ContentNodes++
		}
		for _, a := range attrs {
			s.attrIdx.Insert(attrKey(a[0], a[1]), uint64(id))
		}
		return true
	})
	if err == nil {
		err = badID
	}
	if err != nil {
		return fmt.Errorf("storage: rebuilding element directory: %w", err)
	}

	// Structural files: collect per color, sort by start so index posting
	// lists come out in document order (file order is append order, which
	// diverges from start order after updates), then register.
	for i := range s.trees {
		t := &s.trees[i]
		c := t.color
		type item struct {
			sn  SNode
			rid pagestore.RecordID
		}
		var items []item
		var badRec error
		err := s.pages.Scan(t.file, func(rid pagestore.RecordID, rec []byte) bool {
			if len(rec) != structRecSize {
				badRec = fmt.Errorf("storage: color %q: structural record %v has %d bytes, want %d",
					c, rid, len(rec), structRecSize)
				return false
			}
			items = append(items, item{sn: decodeStruct(rec, c), rid: rid})
			return true
		})
		if err != nil {
			return fmt.Errorf("storage: rebuilding color %q: %w", c, err)
		}
		if badRec != nil {
			return badRec
		}
		sort.Slice(items, func(i, j int) bool { return items[i].sn.Start < items[j].sn.Start })
		var open enclosing // for the per-tag child counts
		for _, it := range items {
			e, err := s.Elem(it.sn.Elem)
			if err != nil {
				return fmt.Errorf("storage: color %q: structural node references missing element %d: %w",
					c, it.sn.Elem, err)
			}
			t.addInner(open.enter(it.sn, e.Tag), 1)
			ref := packRID(it.rid)
			t.loc.Set(uint64(it.sn.Elem), ref)
			s.tagIdx.Insert(tagKey(c, e.Tag), ref)
			if e.Content != "" {
				s.contentIdx.Insert(contentKey(c, e.Tag, e.Content), ref)
			}
			t.start.Put(it.sn.Start, ref)
			s.counts.StructNodes++
		}
	}
	return nil
}
