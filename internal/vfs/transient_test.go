package vfs

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"
)

func TestIsTransientTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrDiskFull, true},
		{ErrIO, true},
		{fmt.Errorf("wal: segment x: %w", ErrDiskFull), true},
		{fmt.Errorf("storage: checkpoint: %w", ErrIO), true},
		{syscall.ENOSPC, true},
		{syscall.EIO, true},
		{syscall.EINTR, true},
		{fmt.Errorf("open: %w", syscall.ENOSPC), true},
		{ErrCrashed, false},
		{fmt.Errorf("wal: %w", ErrCrashed), false},
		{Permanent(ErrIO), false},
		{fmt.Errorf("op: %w", Permanent(ErrDiskFull)), false},
		{errors.New("something else"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	// The surface sentinel stays visible through Permanent.
	if !errors.Is(Permanent(ErrDiskFull), ErrDiskFull) {
		t.Error("Permanent hides the wrapped sentinel")
	}
}

func TestBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   8 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Budget:      time.Second,
		Seed:        42,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	b := NewBackoff(p)
	for i := 0; i < 3; i++ {
		d, ok := b.Next(ErrIO)
		if !ok {
			t.Fatalf("retry %d refused", i)
		}
		if d <= 0 {
			t.Fatalf("retry %d: non-positive delay %v", i, d)
		}
	}
	if _, ok := b.Next(ErrIO); ok {
		t.Fatal("4th retry allowed past MaxAttempts")
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
	// Exponential envelope with jitter in [d/2, d], capped at MaxDelay.
	for i, want := range []time.Duration{8 * time.Millisecond, 16 * time.Millisecond, 20 * time.Millisecond} {
		if slept[i] < want/2 || slept[i] > want {
			t.Errorf("delay %d = %v outside [%v, %v]", i, slept[i], want/2, want)
		}
	}
}

func TestBackoffRefusesPermanent(t *testing.T) {
	b := NewBackoff(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}})
	if _, ok := b.Next(ErrCrashed); ok {
		t.Fatal("retried through a simulated crash")
	}
	b2 := NewBackoff(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}})
	if _, ok := b2.Next(errors.New("bug")); ok {
		t.Fatal("retried an unclassified error")
	}
}

func TestBackoffBudget(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 100,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		Budget:      25 * time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
	b := NewBackoff(p)
	n := 0
	for {
		if _, ok := b.Next(ErrDiskFull); !ok {
			break
		}
		n++
		if n > 10 {
			t.Fatal("budget never exhausted")
		}
	}
	// 10ms delays jittered to [5ms, 10ms]: the 25ms budget admits 2-5.
	if n < 2 || n > 5 {
		t.Fatalf("budget admitted %d retries, want 2..5", n)
	}
}

func TestBackoffZeroPolicyNoRetry(t *testing.T) {
	b := NewBackoff(RetryPolicy{})
	if _, ok := b.Next(ErrIO); ok {
		t.Fatal("zero policy retried")
	}
}
