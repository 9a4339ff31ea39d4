package engine_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"colorfulxml/internal/core"
	"colorfulxml/internal/engine"
	"colorfulxml/internal/storage"
)

// bigStore builds a single-color database with n <item> leaves under a root,
// contents cycling through v0..v9.
func bigStore(t *testing.T, n int) *storage.Store {
	t.Helper()
	db := core.NewDatabase("red")
	root, err := db.AddElement(db.Document(), "lib", "red")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.AddElementText(root, "item", "red", fmt.Sprintf("v%d", i%10)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := storage.Load(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// openScan opens a tag scan against a fresh Ctx for protocol-level tests.
func openScan(t *testing.T, s *storage.Store, tag string) (*engine.Ctx, engine.Op) {
	t.Helper()
	op := &engine.ScanTag{Color: "red", Tag: tag}
	ctx := &engine.Ctx{S: s}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	return ctx, op
}

// TestBatchEmptyResult: an empty result yields an empty first batch, and the
// operator stays exhausted on further calls.
func TestBatchEmptyResult(t *testing.T) {
	s := bigStore(t, 10)
	ctx, op := openScan(t, s, "nosuch")
	defer op.Close(ctx)
	var b engine.Batch
	for call := 0; call < 3; call++ {
		if err := op.NextBatch(ctx, &b); err != nil {
			t.Fatal(err)
		}
		if b.Len() != 0 {
			t.Fatalf("call %d: empty scan produced %d rows", call, b.Len())
		}
	}
}

// TestBatchExactlyOneRow: a single-row result arrives in one batch followed
// by the empty exhaustion batch.
func TestBatchExactlyOneRow(t *testing.T) {
	s := bigStore(t, 1)
	ctx, op := openScan(t, s, "item")
	defer op.Close(ctx)
	var b engine.Batch
	if err := op.NextBatch(ctx, &b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || len(b.Row(0)) != 1 {
		t.Fatalf("first batch: len=%d cols=%d, want 1x1", b.Len(), len(b.Row(0)))
	}
	if err := op.NextBatch(ctx, &b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("second batch has %d rows, want exhaustion", b.Len())
	}
}

// TestBatchSizeAligned: result sets of exactly 1 and 2 times BatchSize fill
// whole batches with no ragged tail and terminate with the empty batch.
func TestBatchSizeAligned(t *testing.T) {
	for _, mult := range []int{1, 2} {
		n := mult * engine.BatchSize
		s := bigStore(t, n)
		ctx, op := openScan(t, s, "item")
		var b engine.Batch
		total, batches := 0, 0
		for {
			if err := op.NextBatch(ctx, &b); err != nil {
				t.Fatal(err)
			}
			if b.Len() == 0 {
				break
			}
			if b.Len() != engine.BatchSize {
				t.Fatalf("aligned result produced a ragged batch of %d rows", b.Len())
			}
			total += b.Len()
			batches++
		}
		if err := op.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if total != n || batches != mult {
			t.Fatalf("n=%d: got %d rows in %d batches, want %d in %d", n, total, batches, n, mult)
		}
	}
}

// TestMidBatchCancellation: canceling during result consumption stops the
// query at the next batch boundary — the consumer sees only complete batches
// (no torn rows) and the context's error.
func TestMidBatchCancellation(t *testing.T) {
	s := bigStore(t, 3*engine.BatchSize)
	plan := &engine.Filter{
		Input: &engine.ScanTag{Color: "red", Tag: "item"},
		Col:   0,
		Pred:  engine.Pred{Kind: "contains", Value: "v"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	visits, rows := 0, 0
	_, err := engine.ExecBatchesPooled(ctx, s, nil, plan, func(b *engine.Batch) error {
		visits++
		if b.Len() == 0 || len(b.Row(0)) != 1 {
			t.Fatalf("torn batch: len=%d cols=%d", b.Len(), len(b.Row(0)))
		}
		for i := 0; i < b.Len(); i++ {
			if len(b.Row(i)) != 1 {
				t.Fatalf("torn row %d in batch %d", i, visits)
			}
		}
		rows += b.Len()
		cancel() // cancel mid-consumption, after the first batch
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if visits != 1 {
		t.Fatalf("visitor ran %d times after cancellation, want exactly 1", visits)
	}
	if rows != engine.BatchSize {
		t.Fatalf("saw %d rows before cancellation, want one full batch (%d)", rows, engine.BatchSize)
	}
}

// TestBatchMixedWidthPanics: a batch's column count is fixed by its first
// row; appending a different width is an operator bug and panics.
func TestBatchMixedWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-width append should panic")
		}
	}()
	var b engine.Batch
	b.Reset()
	b.AppendRow(engine.Row{storage.SNode{}})
	b.AppendRow(engine.Row{storage.SNode{}, storage.SNode{}})
}
