package engine

import (
	"fmt"
	"sync"
)

// exchangeBatchDepth is the per-partition batch channel depth: deep enough
// (a few thousand rows) to keep workers busy across consumer stalls, small
// enough that an exchange never materializes a meaningful fraction of a
// scan. Each worker owns a free list of this many batch buffers that
// circulate between producer and consumer, so steady state does no
// allocation per transfer.
const exchangeBatchDepth = 4

// partition returns the part-th of of contiguous slices of a posting list.
// Slicing start-ordered postings into contiguous runs means concatenating the
// parts in order reproduces the original global start order exactly.
func partition(refs []uint64, part, of int) []uint64 {
	if of <= 1 {
		return refs
	}
	lo := len(refs) * part / of
	hi := len(refs) * (part + 1) / of
	return refs[lo:hi]
}

// Exchange runs its Parts concurrently, one worker goroutine per part, and
// merges their output streams by draining the parts in order. Parts are
// expected to be contiguous start-order partitions of one logical scan (see
// ScanTag.Part/Of), so the in-order concatenation preserves the global
// document order every downstream operator relies on.
//
// Workers exchange whole batches with the consumer: each worker pulls its
// partition batch-wise and sends filled *Batch buffers over a bounded
// channel, receiving empty ones back through a free list — the consumer
// adopts a batch with a zero-copy Swap. Each worker runs against its own Ctx
// over the same (immutable snapshot) store; metrics, transfer counts and
// per-operator stats are folded back into the parent Ctx when the exchange
// closes, so Exec totals and ExplainAnalyze attribution are unaffected by
// parallelism. Rows inside channel-buffered batches are not part of any
// context's live accounting (bounded by parts × depth × BatchSize). Close
// cancels still-running workers via a done channel and waits for them, so no
// goroutine outlives the exchange.
type Exchange struct {
	Parts []Op

	workers []*exchangeWorker
	cur     int
	done    chan struct{}
	wg      sync.WaitGroup
}

type exchangeWorker struct {
	op   Op
	out  chan *Batch
	free chan *Batch
	ctx  *Ctx
	// err is written by the worker goroutine before it closes out and read
	// by the consumer only after observing the close, so it needs no lock.
	err error
}

func (w *exchangeWorker) run(done chan struct{}) {
	defer close(w.out)
	// Contain panics from this partition's operator tree: the consumer sees
	// them as an execution error after the channel closes, exactly like any
	// other worker failure (the recover defer runs before the close defer).
	defer func() {
		if r := recover(); r != nil {
			w.err = panicErr(w.op, r)
		}
	}()
	if err := w.op.Open(w.ctx); err != nil {
		w.op.Close(w.ctx)
		w.err = err
		return
	}
	for {
		var b *Batch
		select {
		case b = <-w.free:
		case <-done:
			w.op.Close(w.ctx)
			return
		}
		if err := pullBatch(w.ctx, w.op, b); err != nil {
			w.op.Close(w.ctx)
			w.err = err
			return
		}
		if b.Len() == 0 {
			break
		}
		// The batch leaves this worker's pipeline: drop it from the worker's
		// in-flight accounting before handing it to the consumer.
		w.ctx.release(b.held)
		b.held = 0
		select {
		case w.out <- b:
		case <-done:
			w.op.Close(w.ctx)
			return
		}
	}
	w.err = w.op.Close(w.ctx)
}

// Open implements Op.
func (o *Exchange) Open(ctx *Ctx) error {
	o.done = make(chan struct{})
	o.cur = 0
	o.workers = make([]*exchangeWorker, len(o.Parts))
	for i, p := range o.Parts {
		w := &exchangeWorker{
			op:   p,
			out:  make(chan *Batch, exchangeBatchDepth),
			free: make(chan *Batch, exchangeBatchDepth),
			ctx:  &Ctx{S: ctx.S, Cancel: ctx.Cancel, timed: ctx.timed},
		}
		for j := 0; j < exchangeBatchDepth; j++ {
			w.free <- &Batch{}
		}
		if ctx.stats != nil {
			w.ctx.stats = map[Op]*OpStats{}
		}
		o.workers[i] = w
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			w.run(o.done)
		}()
	}
	return nil
}

// NextBatch implements Op: it drains the partitions in order, adopting one
// worker batch per call, so the merged stream is the in-order concatenation
// of the parts.
func (o *Exchange) NextBatch(ctx *Ctx, out *Batch) error {
	out.Reset()
	for o.cur < len(o.workers) {
		// Workers observe cancellation through their own contexts; the merge
		// loop polls too so an exhausted-partition spin can't outlive it.
		if err := ctx.poll(); err != nil {
			return err
		}
		w := o.workers[o.cur]
		b, ok := <-w.out
		if ok {
			out.Swap(b)
			b.Reset()
			select {
			case w.free <- b:
			default:
			}
			return nil
		}
		if w.err != nil {
			return w.err
		}
		o.cur++
	}
	return nil
}

// Close implements Op: cancel outstanding workers, wait for them, and fold
// their metrics, transfer counts and stats into the parent context.
func (o *Exchange) Close(ctx *Ctx) error {
	if o.done == nil {
		return nil
	}
	close(o.done)
	o.wg.Wait()
	for _, w := range o.workers {
		ctx.M.merge(w.ctx.M)
		ctx.totalBatches += w.ctx.totalBatches
		ctx.totalRows += w.ctx.totalRows
		if ctx.stats != nil {
			for op, st := range w.ctx.stats {
				ctx.stats[op] = st
			}
		}
	}
	o.workers = nil
	o.done = nil
	o.cur = 0
	return nil
}

// Children implements Op.
func (o *Exchange) Children() []Op { return o.Parts }

func (o *Exchange) String() string { return fmt.Sprintf("Exchange[%d ways]", len(o.Parts)) }

// merge folds a worker's metric counters into the parent's. RowsOut is
// excluded: it describes a whole execution and is set once by the executor.
func (m *Metrics) merge(w Metrics) {
	m.StructJoins += w.StructJoins
	m.ValueJoins += w.ValueJoins
	m.IDJoins += w.IDJoins
	m.CrossJoins += w.CrossJoins
	m.NavProbes += w.NavProbes
	m.ContentReads += w.ContentReads
}
