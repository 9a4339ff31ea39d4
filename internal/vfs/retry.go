package vfs

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// Retry machinery for transient durability failures: capped exponential
// backoff with seeded jitter under a per-operation budget. The WAL writer and
// the checkpoint installer drive a Backoff per operation; the policy lives
// here — not in the determinism-scoped wal/storage packages — so the only
// clock and randomness those packages touch is encapsulated behind an
// injectable, seeded object. The budget is accounted as the sum of backoff
// delays handed out, not against a wall clock, so a schedule is exactly
// reproducible under an injected Sleep.

// RetryPolicy configures transient-failure retries for one durability layer.
// The zero value means "no retries" (a single attempt); DefaultRetryPolicy
// is the production default.
type RetryPolicy struct {
	// MaxAttempts caps total attempts, including the first (<= 1: no
	// retries).
	MaxAttempts int
	// BaseDelay is the first backoff delay; each retry doubles it up to
	// MaxDelay. The actual delay is jittered uniformly in [delay/2, delay].
	BaseDelay time.Duration
	// MaxDelay caps the per-retry backoff delay.
	MaxDelay time.Duration
	// Budget caps the total backoff slept per operation — the per-commit
	// retry deadline. Accounted as the sum of delays handed out.
	Budget time.Duration
	// Seed seeds the jitter stream (decorrelated per Backoff). Zero uses a
	// process-wide sequence; fixed seeds give reproducible schedules.
	Seed int64
	// Sleep, when non-nil, replaces time.Sleep — tests inject a no-op to
	// run retry schedules instantly.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the production retry schedule: five attempts,
// 1 ms -> 100 ms exponential backoff, at most two seconds of total backoff
// per operation.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 5,
	BaseDelay:   time.Millisecond,
	MaxDelay:    100 * time.Millisecond,
	Budget:      2 * time.Second,
}

// backoffSeq decorrelates the jitter of concurrent Backoff instances sharing
// one policy seed.
var backoffSeq atomic.Int64

// Backoff is the retry iterator for one operation. Not safe for concurrent
// use; create one per operation (NewBackoff is cheap for the common
// no-retry-needed case — the jitter source is built lazily).
type Backoff struct {
	p        RetryPolicy
	attempts int           // attempts made so far
	delay    time.Duration // next base delay
	slept    time.Duration // total backoff handed out
	rng      *rand.Rand
}

// NewBackoff starts a retry schedule under p.
func NewBackoff(p RetryPolicy) *Backoff {
	return &Backoff{p: p, delay: p.BaseDelay}
}

// Next decides whether the failed attempt should be retried: if err is
// transient and attempts and budget remain, it sleeps the next backoff delay
// and returns (delay, true); otherwise (nil error, permanent error,
// exhausted schedule) it returns (0, false) without sleeping. The first call
// accounts for the operation's initial attempt.
func (b *Backoff) Next(err error) (time.Duration, bool) {
	b.attempts++
	if err == nil || !IsTransient(err) {
		return 0, false
	}
	if b.attempts >= b.p.MaxAttempts {
		return 0, false
	}
	d := b.delay
	if d <= 0 {
		d = time.Millisecond
	}
	if b.p.MaxDelay > 0 && d > b.p.MaxDelay {
		d = b.p.MaxDelay
	}
	// Jitter uniformly in [d/2, d] so concurrent retriers decorrelate.
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.p.Seed ^ (backoffSeq.Add(1) * 0x5851F42D4C957F2D)))
	}
	d = d/2 + time.Duration(b.rng.Int63n(int64(d/2)+1))
	if b.p.Budget > 0 && b.slept+d > b.p.Budget {
		return 0, false
	}
	b.slept += d
	b.delay *= 2
	if b.p.Sleep != nil {
		b.p.Sleep(d)
	} else {
		time.Sleep(d)
	}
	return d, true
}
