package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"colorfulxml/internal/storage"
)

// endlessOp produces full batches forever; used to prove cancellation
// interrupts a runaway plan.
type endlessOp struct{}

func (endlessOp) Open(*Ctx) error { return nil }
func (endlessOp) NextBatch(_ *Ctx, out *Batch) error {
	out.Reset()
	for !out.Full() {
		out.AppendRow(Row{storage.SNode{}})
	}
	return nil
}
func (endlessOp) Close(*Ctx) error { return nil }
func (endlessOp) Children() []Op   { return nil }
func (endlessOp) Clone() Op        { return endlessOp{} }
func (endlessOp) String() string   { return "Endless" }

// panicOp emits one-row batches and panics on the nth NextBatch call.
type panicOp struct{ n, at int }

func (p *panicOp) Open(*Ctx) error { p.n = 0; return nil }
func (p *panicOp) NextBatch(_ *Ctx, out *Batch) error {
	out.Reset()
	p.n++
	if p.n >= p.at {
		panic("operator bug")
	}
	out.AppendRow(Row{storage.SNode{}})
	return nil
}
func (p *panicOp) Close(*Ctx) error { return nil }
func (p *panicOp) Children() []Op   { return nil }
func (p *panicOp) Clone() Op        { return &panicOp{at: p.at} }
func (p *panicOp) String() string   { return "Panicker" }

func TestExecContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ExecContext(ctx, nil, endlessOp{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestExecWithoutContextStillWorks(t *testing.T) {
	_, _, err := ExecContext(context.Background(), nil, &panicOp{at: 3})
	if err == nil {
		t.Fatal("expected the contained panic as an error")
	}
}

func TestPanicContainedWithLabel(t *testing.T) {
	rows, _, err := Exec(nil, &panicOp{at: 5})
	if err == nil || rows != nil {
		t.Fatalf("rows=%v err=%v, want contained panic", rows, err)
	}
	if !strings.Contains(err.Error(), "Panicker") || !strings.Contains(err.Error(), "operator bug") {
		t.Fatalf("error does not carry the plan node label: %v", err)
	}
}
