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
// buffer (never views into the arena), and the callers of the entry points,
// which all stream, copy what they keep out of each visited batch. So once
// an execution finishes, nothing references its chunks or buffers, and they
// come back here.
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
	free [2][]recycled
	// ids is the recycled answer-id buffer, empty, or nil.
	ids []storage.ElemID
	// ctxs are execution contexts ExecColumn finished with, each with its
	// root batch; trees are operator trees of the plan executions finished
	// with (Instance).
	ctxs  []*Ctx
	trees []*Instance

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
	// memPoolMaxCtxs bounds retained execution contexts (a few hundred bytes
	// each) and operator trees: one per execution of the plan that may run
	// at once.
	memPoolMaxCtxs = 4
)

var memPoolMax = [2]int{kindChunk: memPoolMaxChunks, kindBuf: memPoolMaxBufs}

// recycled is a slice in a free list and the full size of the user that gave
// it back (for a batch, its width's).
type recycled struct {
	s    []storage.SNode
	full int
}

// get returns an empty slice of a kind with capacity for at least need
// nodes, for a user that full nodes would satisfy: the recycled one that
// fits best — the smallest holding full, else the smallest holding need that
// a user of the same full size gave back, else the smallest holding need, so
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
		i := smallest(l, full, 0)
		if i < 0 {
			i = smallest(l, need, full)
		}
		if i < 0 {
			i = smallest(l, need, 0)
		}
		if i >= 0 {
			s, last := l[i].s, len(l)-1
			l[i], l[last] = l[last], recycled{}
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
// nodes (of those a user of full gave back, unless full is 0), or -1.
func smallest(l []recycled, n, full int) int {
	best := -1
	for i, r := range l {
		if cap(r.s) >= n && (full == 0 || r.full == full) && (best < 0 || cap(r.s) < cap(l[best].s)) {
			best = i
		}
	}
	return best
}

// put returns a slice a user of full gave back to the free list of its kind,
// dropping it if the list is full.
func (p *MemPool) put(kind, full int, s []storage.SNode) {
	if p == nil || cap(s) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.free[kind]) < memPoolMax[kind] {
		p.free[kind] = append(p.free[kind], recycled{s[:0], full})
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

// takeCtx returns an execution context over s: a recycled one, reset, or a
// new one.
func (p *MemPool) takeCtx(s *storage.Store) *Ctx {
	var ctx *Ctx
	if p != nil {
		p.mu.Lock()
		if n := len(p.ctxs); n > 0 {
			ctx = p.ctxs[n-1]
			p.ctxs[n-1] = nil
			p.ctxs = p.ctxs[:n-1]
		}
		p.mu.Unlock()
	}
	if ctx == nil {
		return &Ctx{S: s}
	}
	taken, spare := ctx.arena.taken, ctx.spare
	*ctx = Ctx{S: s, spare: spare}
	ctx.arena.taken = taken
	return ctx
}

// putCtx takes back a context whose execution is over: its plan closed, its
// arena released and its root batch freed, so that nothing it refers to is
// live. The store and attribution go with it.
func (p *MemPool) putCtx(ctx *Ctx) {
	if p == nil {
		return
	}
	ctx.S, ctx.Cancel, ctx.stats = nil, nil, nil
	p.mu.Lock()
	if len(p.ctxs) < memPoolMaxCtxs {
		p.ctxs = append(p.ctxs, ctx)
	}
	p.mu.Unlock()
}

// Instance is an operator tree one execution of a plan runs, and where the
// values it takes from the execution's arguments sit in it.
type Instance struct {
	Root  Op
	slots []argSlot
}

type argSlot struct {
	arg   int     // 1-based, as Pred.Arg
	value *string // the operator's value field
	proto string  // the plan's own value
	// run is an EqContent's counted run, set to the one the execution's
	// arguments were checked with.
	run *storage.ContentRun
}

// Instance returns an operator tree that runs plan, a prototype whose
// executions draw on this pool, with args (nil: the plan's own values): a
// tree an earlier execution handed back by PutInstance, its arguments set
// anew — operators reopen at every run — or a new clone. So a warm plan's
// execution allocates no operators. run, when not nil, is a content run
// counted for args; the content lookups it is the run of read it instead of
// seeking it again (storage.Store.RunPostings).
func (p *MemPool) Instance(plan Op, args []string, run *storage.ContentRun) *Instance {
	var in *Instance
	if p != nil {
		p.mu.Lock()
		if n := len(p.trees); n > 0 {
			in = p.trees[n-1]
			p.trees[n-1] = nil
			p.trees = p.trees[:n-1]
		}
		p.mu.Unlock()
	}
	if in == nil {
		in = &Instance{Root: plan.Clone()}
		collectSlots(plan, in.Root, &in.slots)
	}
	for _, sl := range in.slots {
		*sl.value = sl.proto
		if len(args) > 0 {
			*sl.value = args[sl.arg-1]
		}
		if sl.run != nil {
			*sl.run = storage.ContentRun{}
			if run != nil {
				*sl.run = *run
			}
		}
	}
	return in
}

// PutInstance hands back a tree Instance returned, once the execution that
// ran it is over and it closed without error, for the plan's next
// execution.
func (p *MemPool) PutInstance(in *Instance) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if len(p.trees) < memPoolMaxCtxs {
		p.trees = append(p.trees, in)
	}
	p.mu.Unlock()
}

// collectSlots walks a prototype and its clone side by side and records
// where the clone holds a value taken from an argument.
func collectSlots(proto, op Op, slots *[]argSlot) {
	switch o := op.(type) {
	case *EqContent:
		if o.Arg > 0 {
			*slots = append(*slots, argSlot{o.Arg, &o.Value, proto.(*EqContent).Value, &o.counted})
		}
	case *ContainsScan:
		if o.Pred.Arg > 0 {
			*slots = append(*slots, argSlot{o.Pred.Arg, &o.Pred.Value, proto.(*ContainsScan).Pred.Value, nil})
		}
	case *Filter:
		if o.Pred.Arg > 0 {
			*slots = append(*slots, argSlot{o.Pred.Arg, &o.Pred.Value, proto.(*Filter).Pred.Value, nil})
		}
	case *AttrFilter:
		if o.Pred.Arg > 0 {
			*slots = append(*slots, argSlot{o.Pred.Arg, &o.Pred.Value, proto.(*AttrFilter).Pred.Value, nil})
		}
	}
	pc, oc := proto.Children(), op.Children()
	for i := range oc {
		collectSlots(pc[i], oc[i], slots)
	}
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
		for _, r := range l {
			nodes += cap(r.s)
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
