package engine

import (
	"sync"
	"unsafe"

	"colorfulxml/internal/storage"
)

// MemPool recycles execution scratch memory — arena chunks and batch
// buffers — and one answer-id buffer across executions that share one pool.
// The natural owner is a compiled plan: a cached (or prepared) plan is
// executed many times with the same operator shapes and therefore the same
// scratch demand, so the memory its first execution allocated is exactly
// what the next one needs.
//
// Every buffer and chunk starts at what it is first asked to hold and grows
// by factors of four (Batch.grow, arena.alloc), pooled or not, so a plan
// that passes a handful of rows holds a handful of rows' worth of scratch. The pool takes back
// only what an execution ends with — the final buffer of each batch, every
// arena chunk — and hands out the best fit (see get): a hot plan's second run
// starts at the sizes its first run grew to, and from then on allocates no
// scratch at all.
//
// Safety rests on two invariants of the batch executor (see batch.go):
// rows handed to a consumer are always copies into the consumer-owned batch
// buffer (never views into the arena), and the streaming entry points'
// callers copy what they keep out of each visited batch. So once an
// execution finishes, nothing references its chunks or buffers, and
// ExecBatchesPooled returns them here. The materializing entry points
// (Exec, ExplainAnalyze) return arena-backed rows to the caller and
// therefore never recycle.
//
// The answer ExecColumn returns does leave the execution, so its id buffer
// comes back only through PutColumn, from a caller that has read the ids and
// hands nobody the slice: one slot, at most maxRowsHint ids.
//
// The pool is a bounded free list, not a sync.Pool: releases beyond the
// bound are dropped for the GC, so a pool retains at most memPoolMaxChunks
// chunks + memPoolMaxBufs buffers + one id buffer no matter how many
// executions it served.
type MemPool struct {
	mu sync.Mutex
	// free holds the recycled slices of each kind (kindChunk, kindBuf).
	free [2][][]storage.SNode
	// ids is the recycled answer-id buffer, empty, or nil.
	ids []storage.ElemID

	// reused/recycled count successful gets and puts, for tests and for the
	// curious: they are not mirrored into obs (the pool is per-plan and the
	// registry is process-global).
	reused   uint64
	recycled uint64
}

// The kinds of scratch a pool holds.
const (
	kindChunk = iota
	kindBuf
)

const (
	// memPoolMaxChunks bounds retained arena chunks (~1MB each at most):
	// enough for a plan with a couple of build sides, small enough that even
	// a full plan cache of hot entries stays tens of MB.
	memPoolMaxChunks = 4
	// memPoolMaxBufs bounds retained batch buffers (at most
	// BatchSize*row-width nodes each; typically far smaller than a chunk).
	memPoolMaxBufs = 8
)

var memPoolMax = [2]int{kindChunk: memPoolMaxChunks, kindBuf: memPoolMaxBufs}

// get returns an empty slice of a kind with capacity for at least need
// nodes, for a user that full nodes would satisfy: the recycled one that
// fits best — the smallest holding full, else the smallest holding need, so
// that a batch does not take the buffer a wider or busier one grew to and
// send that one growing again — or a fresh one of need. Recycled memory is
// NOT zeroed; batches overwrite what they append and arena.alloc's callers
// every node they carve (copyRow, concatRow), which is what makes reuse
// sound.
func (p *MemPool) get(kind, need, full int) []storage.SNode {
	s, _ := p.lend(kind, need, full)
	return s
}

// lend is get, also reporting whether the slice was recycled.
func (p *MemPool) lend(kind, need, full int) ([]storage.SNode, bool) {
	if p != nil {
		p.mu.Lock()
		l := p.free[kind]
		i := smallest(l, full)
		if i < 0 {
			i = smallest(l, need)
		}
		if i >= 0 {
			s, last := l[i], len(l)-1
			l[i], l[last] = l[last], nil
			p.free[kind] = l[:last]
			p.reused++
			p.mu.Unlock()
			return s, true
		}
		p.mu.Unlock()
	}
	return make([]storage.SNode, 0, need), false
}

// smallest returns the index of the smallest slice of l with capacity for n
// nodes, or -1.
func smallest(l [][]storage.SNode, n int) int {
	best := -1
	for i, s := range l {
		if cap(s) >= n && (best < 0 || cap(s) < cap(l[best])) {
			best = i
		}
	}
	return best
}

// put returns a slice to the free list of its kind, dropping it if the list
// is full.
func (p *MemPool) put(kind int, s []storage.SNode) {
	if p == nil || cap(s) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.free[kind]) < memPoolMax[kind] {
		p.free[kind] = append(p.free[kind], s[:0])
		p.recycled++
	}
	p.mu.Unlock()
}

// column returns an empty id buffer with room for need ids: the pooled one
// when it holds that many, else a fresh one of need. Recycled ids are not
// zeroed; ExecColumn appends every id it returns.
func (p *MemPool) column(need int) []storage.ElemID {
	if p != nil {
		p.mu.Lock()
		if s := p.ids; s != nil && cap(s) >= need {
			p.ids = nil
			p.reused++
			p.mu.Unlock()
			return s
		}
		p.mu.Unlock()
	}
	return make([]storage.ElemID, 0, need)
}

// PutColumn hands an answer ExecColumn returned back to the pool of the plan
// that produced it, for the plan's next execution to append into. The caller
// must be done with ids and must not have handed the slice to anyone. The
// pool keeps the larger of its buffer and this one, and none of more than
// maxRowsHint ids: a larger answer goes to the GC.
func (p *MemPool) PutColumn(ids []storage.ElemID) {
	if p == nil || cap(ids) > maxRowsHint {
		return
	}
	p.mu.Lock()
	if cap(ids) > cap(p.ids) {
		p.ids = ids[:0]
		p.recycled++
	}
	p.mu.Unlock()
}

// MemPoolStats is a point-in-time view of a pool's retention and traffic.
type MemPoolStats struct {
	Chunks int `json:"chunks"`
	Bufs   int `json:"bufs"`
	// Bytes is the memory the pool holds: the capacity of its chunks,
	// buffers and id buffer.
	Bytes    int64  `json:"bytes"`
	Reused   uint64 `json:"reused"`
	Recycled uint64 `json:"recycled"`
}

// Stats returns the pool's counters.
func (p *MemPool) Stats() MemPoolStats {
	if p == nil {
		return MemPoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	nodes := 0
	for _, l := range p.free {
		for _, s := range l {
			nodes += cap(s)
		}
	}
	return MemPoolStats{
		Chunks:   len(p.free[kindChunk]),
		Bufs:     len(p.free[kindBuf]),
		Bytes:    int64(nodes)*int64(unsafe.Sizeof(storage.SNode{})) + int64(cap(p.ids))*int64(unsafe.Sizeof(storage.ElemID(0))),
		Reused:   p.reused,
		Recycled: p.recycled,
	}
}
