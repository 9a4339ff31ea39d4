package engine

import (
	"sync"

	"colorfulxml/internal/storage"
)

// MemPool recycles execution scratch memory — arena chunks and batch
// buffers — across executions that share one pool. The natural owner is a
// compiled plan: a cached (or prepared) plan is executed many times with the
// same operator shapes and therefore the same scratch demand, so the memory
// its first execution allocated is exactly what the next one needs. A
// one-shot compilation gets a cold pool and recycles nothing, which is the
// correct cost model: there is no later execution to save for.
//
// Per-query scratch is the dominant allocation of the vectorized executor
// (arena chunks for rows that outlive a batch boundary, row-major batch
// buffers), and it is all garbage the moment the execution's results are
// consumed — recycling it converts the executor's steady-state GC pressure
// into a handful of long-lived buffers.
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
// The pool is a bounded LIFO free list, not a sync.Pool: releases beyond
// the bound are dropped for the GC, so a pool retains at most
// memPoolMaxChunks chunks + memPoolMaxBufs buffers no matter how many
// executions it served, and an idle plan's pool costs a few MB at worst.
type MemPool struct {
	mu     sync.Mutex
	chunks [][]storage.SNode
	bufs   [][]storage.SNode

	// reused/recycled count successful gets and puts, for tests and for the
	// curious: they are not mirrored into obs (the pool is per-plan and the
	// registry is process-global).
	reused   uint64
	recycled uint64
}

const (
	// memPoolMaxChunks bounds retained arena chunks (~1MB each): enough for
	// a plan with a couple of build sides, small enough that even a full
	// plan cache of hot entries stays tens of MB.
	memPoolMaxChunks = 4
	// memPoolMaxBufs bounds retained batch buffers (at most
	// BatchSize*row-width nodes each; typically far smaller than a chunk).
	memPoolMaxBufs = 8
)

// getChunk returns a recycled arena chunk or a fresh one. Recycled chunks
// are NOT zeroed; arena.alloc's callers fully overwrite every slice they
// carve (copyRow, concatRow), which is what makes reuse sound.
func (p *MemPool) getChunk() []storage.SNode {
	if p != nil {
		p.mu.Lock()
		if n := len(p.chunks); n > 0 {
			c := p.chunks[n-1]
			p.chunks[n-1] = nil
			p.chunks = p.chunks[:n-1]
			p.reused++
			p.mu.Unlock()
			return c
		}
		p.mu.Unlock()
	}
	return make([]storage.SNode, arenaChunkNodes)
}

// putChunk returns an arena chunk to the free list, dropping it if the pool
// is full.
func (p *MemPool) putChunk(c []storage.SNode) {
	if p == nil || len(c) != arenaChunkNodes {
		return
	}
	p.mu.Lock()
	if len(p.chunks) < memPoolMaxChunks {
		p.chunks = append(p.chunks, c)
		p.recycled++
	}
	p.mu.Unlock()
}

// getBuf returns a batch buffer with capacity for at least need nodes,
// recycled when the free list has one big enough.
func (p *MemPool) getBuf(need int) []storage.SNode {
	if p != nil {
		p.mu.Lock()
		for i := len(p.bufs) - 1; i >= 0; i-- {
			if cap(p.bufs[i]) >= need {
				b := p.bufs[i]
				last := len(p.bufs) - 1
				p.bufs[i] = p.bufs[last]
				p.bufs[last] = nil
				p.bufs = p.bufs[:last]
				p.reused++
				p.mu.Unlock()
				return b[:0]
			}
		}
		p.mu.Unlock()
	}
	return make([]storage.SNode, 0, need)
}

// putBuf returns a batch buffer to the free list, dropping it if the pool
// is full.
func (p *MemPool) putBuf(b []storage.SNode) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.bufs) < memPoolMaxBufs {
		p.bufs = append(p.bufs, b[:0])
		p.recycled++
	}
	p.mu.Unlock()
}

// MemPoolStats is a point-in-time view of a pool's retention and traffic.
type MemPoolStats struct {
	Chunks   int    `json:"chunks"`
	Bufs     int    `json:"bufs"`
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
	return MemPoolStats{
		Chunks:   len(p.chunks),
		Bufs:     len(p.bufs),
		Reused:   p.reused,
		Recycled: p.recycled,
	}
}
