package engine

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"colorfulxml/internal/core"
	"colorfulxml/internal/fixtures"
	"colorfulxml/internal/storage"
)

// TestMemPoolChunkReuse: the free list is deterministic — a released chunk
// is the next one handed out, a request it cannot hold is fresh, and
// retention is bounded.
func TestMemPoolChunkReuse(t *testing.T) {
	p := &MemPool{}
	const small = 256
	c := p.get(kindChunk, small, arenaChunkNodes)
	if got := p.Stats(); got.Reused != 0 || cap(c) != small {
		t.Fatalf("fresh pool: %d-node chunk, stats %+v", cap(c), got)
	}
	p.put(kindChunk, arenaChunkNodes, c)
	c2 := p.get(kindChunk, small, arenaChunkNodes)
	if &c[:1][0] != &c2[:1][0] {
		t.Fatal("released chunk was not the next one handed out")
	}
	if got := p.Stats(); got.Reused != 1 || got.Recycled != 1 {
		t.Fatalf("stats = %+v, want 1 reused / 1 recycled", got)
	}
	// A request larger than anything pooled is fresh; the pooled chunk stays.
	p.put(kindChunk, arenaChunkNodes, c2)
	if big := p.get(kindChunk, arenaChunkNodes, arenaChunkNodes); cap(big) != arenaChunkNodes || p.Stats().Chunks != 1 {
		t.Fatalf("oversize request: %d nodes, %d chunks left pooled", cap(big), p.Stats().Chunks)
	}
	// Retention is bounded: releases beyond the cap are dropped.
	for i := 0; i < memPoolMaxChunks+3; i++ {
		p.put(kindChunk, arenaChunkNodes, make([]storage.SNode, arenaChunkNodes))
	}
	want := int64(((memPoolMaxChunks-1)*arenaChunkNodes + small) * int(unsafe.Sizeof(storage.SNode{})))
	if got := p.Stats(); got.Chunks != memPoolMaxChunks || got.Bytes != want {
		t.Fatalf("retained %d chunks / %d bytes, want %d / %d", got.Chunks, got.Bytes, memPoolMaxChunks, want)
	}
	// A small request is handed a whole chunk first.
	for i := 0; i < memPoolMaxChunks-1; i++ {
		if got := cap(p.get(kindChunk, 1, arenaChunkNodes)); got != arenaChunkNodes {
			t.Fatalf("pooled chunk has %d nodes, want %d", got, arenaChunkNodes)
		}
	}
}

// TestMemPoolBufSizing: buffers are recycled only when big enough, by best
// fit, and always handed out empty.
func TestMemPoolBufSizing(t *testing.T) {
	p := &MemPool{}
	b := p.get(kindBuf, 100, 1024)
	b = append(b, storage.SNode{Start: 7})
	p.put(kindBuf, 0, b)
	p.put(kindBuf, 0, make([]storage.SNode, 0, 40))
	// A batch that would fill 100 nodes takes the buffer that holds it all.
	got := p.get(kindBuf, 20, 100)
	if cap(got) != 100 || len(got) != 0 || &b[:1][0] != &got[:1][0] {
		t.Fatalf("recycled buf: len=%d cap=%d, want the empty 100-node one", len(got), cap(got))
	}
	// Without one, the smallest that holds the request.
	p.put(kindBuf, 0, got)
	if got := p.get(kindBuf, 20, 1024); cap(got) != 40 {
		t.Fatalf("recycled buf: cap=%d, want the 40-node one", cap(got))
	}
	// A request larger than anything pooled allocates fresh.
	big := p.get(kindBuf, 10_000, 10_000)
	if cap(big) < 10_000 || p.Stats().Bufs != 1 {
		t.Fatalf("oversize request: cap=%d, %d buffers left pooled", cap(big), p.Stats().Bufs)
	}
	// nil pool is inert.
	var np *MemPool
	if b := np.get(kindBuf, 8, 8); cap(b) < 8 {
		t.Fatal("nil pool get under-allocated")
	}
	np.put(kindBuf, 0, b)
}

// TestOneRowExecutionScratch: an unpooled execution that passes one row
// allocates one row of scratch. The output batch's buffer holds exactly one
// row, the arena's first chunk exactly its first request (the one-column
// build row), and each next buffer or chunk four times the last.
func TestOneRowExecutionScratch(t *testing.T) {
	db := core.NewDatabase("red")
	root, err := db.AddElement(db.Document(), "lib", "red")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddElementText(root, "item", "red", "v"); err != nil {
		t.Fatal(err)
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	join := func() Op {
		return &StructJoin{
			Anc:  &ScanTag{Color: "red", Tag: "lib"},
			Desc: &ScanTag{Color: "red", Tag: "item"},
			Axis: AncestorDescendant,
		}
	}

	visits := 0
	if _, err := execStreamed(&Ctx{S: s}, nil, nil, join(), func(b *Batch) error {
		visits++
		if b.Len() != 1 || cap(b.data) != b.cols {
			t.Errorf("output batch: %d rows of %d columns in a %d-node buffer, want one row's width", b.Len(), b.cols, cap(b.data))
		}
		return nil
	}); err != nil || visits != 1 {
		t.Fatalf("execution: %d visits, err %v", visits, err)
	}

	ctx := &Ctx{S: s}
	rows, err := drain(ctx, join())
	if err != nil || len(rows) != 1 {
		t.Fatalf("drain: %d rows, err %v", len(rows), err)
	}
	// The build side copies one 1-column row, then drain the 2-column result.
	if got := len(ctx.arena.taken); got != 2 || len(ctx.arena.taken[0]) != 1 || len(ctx.arena.taken[1]) != 4 {
		t.Fatalf("arena chunks: %d, first %d nodes; want 1 then 4", got, len(ctx.arena.taken[0]))
	}

	var b Batch
	for i := 0; i < 2; i++ {
		b.AppendRow(Row{{}, {}, {}})
	}
	if cap(b.data) != 12 {
		t.Fatalf("second 3-column row grew the buffer to %d nodes, want 12", cap(b.data))
	}
}

// mempoolTestPlan is a plan with build sides and dedup, so executions use
// the arena (build rows, pending outputs) as well as batch buffers.
func mempoolTestPlan() Op {
	return &Dedup{
		Col: 1,
		Input: &StructJoin{
			Anc:     &ScanTag{Color: "red", Tag: "movie"},
			Desc:    &ScanTag{Color: "red", Tag: "name"},
			AncCol:  0,
			DescCol: 0,
			Axis:    AncestorDescendant,
		},
	}
}

func mempoolTestStore(t *testing.T) *storage.Store {
	t.Helper()
	m := fixtures.NewMovieDB()
	s, err := storage.Load(m.DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func streamKeys(t *testing.T, s *storage.Store, pool *MemPool, proto Op) []string {
	t.Helper()
	var keys []string
	_, err := ExecBatchesPooled(nil, s, pool, proto.Clone(), func(b *Batch) error {
		for i := 0; i < b.Len(); i++ {
			r := b.Row(i)
			keys = append(keys, fmt.Sprintf("%v", r))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// TestExecBatchesPooledMatchesUnpooled: repeated pooled executions return
// exactly what the unpooled executor returns, and from the second run on
// the scratch actually comes from the pool.
func TestExecBatchesPooledMatchesUnpooled(t *testing.T) {
	s := mempoolTestStore(t)
	proto := mempoolTestPlan()
	want := streamKeys(t, s, nil, proto)
	if len(want) == 0 {
		t.Fatal("fixture plan returned no rows")
	}
	pool := &MemPool{}
	for i := 0; i < 5; i++ {
		got := streamKeys(t, s, pool, proto)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d rows, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("run %d row %d: %q, want %q", i, j, got[j], want[j])
			}
		}
	}
	st := pool.Stats()
	if st.Recycled == 0 || st.Reused == 0 {
		t.Fatalf("pool never cycled scratch: %+v", st)
	}
}

// TestMemPoolConcurrentExecutions: many goroutines execute clones of one
// prototype against one shared pool — the cached-plan serving shape. All
// results agree with a solo run. Run under -race.
func TestMemPoolConcurrentExecutions(t *testing.T) {
	s := mempoolTestStore(t)
	proto := mempoolTestPlan()
	want := streamKeys(t, s, nil, proto)
	pool := &MemPool{}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var n int
				_, err := ExecBatchesPooled(nil, s, pool, proto.Clone(), func(b *Batch) error {
					n += b.Len()
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if n != len(want) {
					errs <- fmt.Errorf("pooled run returned %d rows, want %d", n, len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMemPoolKeepsOneIDBuffer: a pool keeps one answer-id buffer, the
// larger of those handed back and never one of more than maxRowsHint ids;
// ExecColumn appends its next answer into it, and Stats counts its bytes.
func TestMemPoolKeepsOneIDBuffer(t *testing.T) {
	const idBytes = int64(unsafe.Sizeof(storage.ElemID(0)))
	s := mempoolTestStore(t)
	pool := &MemPool{}
	first, _, err := ExecColumn(nil, s, pool, mempoolTestPlan(), 1, 0, nil)
	if err != nil || len(first) == 0 {
		t.Fatalf("fixture plan: %d ids, %v", len(first), err)
	}
	want := slices.Clone(first)
	scratch := pool.Stats().Bytes // the execution's chunks and buffers
	pool.PutColumn(first)
	if got := pool.Stats().Bytes - scratch; got != int64(cap(first))*idBytes {
		t.Fatalf("pool counts %d bytes for ids, want the %d-id buffer's %d", got, cap(first), int64(cap(first))*idBytes)
	}
	again, _, err := ExecColumn(nil, s, pool, mempoolTestPlan(), 1, 0, nil)
	if err != nil || !slices.Equal(again, want) || &again[0] != &first[0] {
		t.Fatalf("second run: %v, %v; want %v appended into the pooled buffer", again, err, want)
	}
	if got := pool.Stats().Bytes - scratch; got != 0 {
		t.Fatalf("pool still counts %d bytes for the buffer it lent", got)
	}

	// One slot: the larger buffer stays, up to maxRowsHint ids.
	pool.PutColumn(make([]storage.ElemID, 0, 10))
	pool.PutColumn(make([]storage.ElemID, 0, maxRowsHint))
	pool.PutColumn(make([]storage.ElemID, 0, 20))
	if got := pool.Stats().Bytes - scratch; got != maxRowsHint*idBytes {
		t.Fatalf("pool counts %d bytes for ids, want one buffer of maxRowsHint ids (%d)", got, maxRowsHint*idBytes)
	}
	if got := cap(pool.column(1)); got != maxRowsHint {
		t.Fatalf("pool lent a %d-id buffer, want its %d-id one", got, maxRowsHint)
	}
	// A larger answer goes to the GC.
	pool.PutColumn(make([]storage.ElemID, 0, maxRowsHint+1))
	if got := pool.Stats().Bytes - scratch; got != 0 {
		t.Fatalf("pool kept %d bytes of an answer over maxRowsHint ids", got)
	}
}

// TestInstanceHandsOverTheCountedRun: an instance's content lookup gets the
// run counted for its execution's arguments, and a pooled instance taken
// again without one forgets it.
func TestInstanceHandsOverTheCountedRun(t *testing.T) {
	st, err := storage.Load(fixtures.NewCatalog(30).DB, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &EqContent{Color: "red", Tag: "name", Value: "Item 1", Arg: 1}
	p := &MemPool{}
	run := st.CountRun("red", "name", "Item 2")
	in := p.Instance(plan, []string{"Item 2"}, &run)
	if eq := in.Root.(*EqContent); eq.Value != "Item 2" || eq.counted != run {
		t.Fatalf("instance looks up %q with counted run %+v, want %+v", eq.Value, eq.counted, run)
	}
	p.PutInstance(in)
	in = p.Instance(plan, nil, nil)
	if eq := in.Root.(*EqContent); eq.Value != "Item 1" || eq.counted != (storage.ContentRun{}) {
		t.Fatalf("reused instance looks up %q with counted run %+v", eq.Value, eq.counted)
	}
}
