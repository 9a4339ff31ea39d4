package colorful

import (
	"context"
	"errors"
	"sync"
	"time"

	"colorfulxml/internal/obs"
)

// ErrOverloaded is reported when admission control rejects a query: the
// in-flight weight limit was reached and the query's queue wait exceeded
// the admission timeout. Callers should shed load or retry with backoff.
var ErrOverloaded = errors.New("colorful: overloaded: admission queue wait exceeded")

// Admission weights: reads cost one unit; constructor queries — which take
// the writer lock and commit through the WAL — cost more, so a read-mostly
// limit still admits fewer concurrent writers.
const (
	weightRead        = 1
	weightConstructor = 2
)

// defaultAdmissionTimeout bounds queue waits when SetAdmissionTimeout has
// not been called.
const defaultAdmissionTimeout = time.Second

type admWaiter struct {
	weight int64
	ready  chan struct{} // closed when admitted
}

// admission is a weighted max-inflight gate with a FIFO wait queue. A zero
// limit (the default) disables gating: queries are counted for the
// in-flight gauge but never queued. Waiters are admitted strictly in
// arrival order — a light query never jumps a heavy one, so heavy queries
// cannot starve.
type admission struct {
	mu         sync.Mutex
	max        int64 // <= 0: disabled
	inflight   int64
	timeout    time.Duration
	queue      []*admWaiter
	rejections uint64
}

// AdmissionStats is a point-in-time view of the admission gate.
type AdmissionStats struct {
	MaxInflight int64  `json:"max_inflight"` // 0 = disabled
	Inflight    int64  `json:"inflight"`     // total admitted weight
	QueueDepth  int    `json:"queue_depth"`
	Rejections  uint64 `json:"rejections"`
}

// SetMaxInflight bounds the total weight of concurrently executing queries
// (reads weigh 1, constructor queries 2). Excess queries queue in FIFO
// order up to the admission timeout, then fail with ErrOverloaded. A limit
// of 0 (the default) disables admission control; raising the limit admits
// eligible queued queries immediately.
func (d *DB) SetMaxInflight(n int) {
	g := &d.adm
	g.mu.Lock()
	g.max = int64(n)
	g.admitLocked()
	g.mu.Unlock()
}

// SetAdmissionTimeout bounds how long a query may wait in the admission
// queue before failing with ErrOverloaded (default one second).
func (d *DB) SetAdmissionTimeout(t time.Duration) {
	g := &d.adm
	g.mu.Lock()
	g.timeout = t
	g.mu.Unlock()
}

// AdmissionStats returns the admission gate's current state.
func (d *DB) AdmissionStats() AdmissionStats {
	g := &d.adm
	g.mu.Lock()
	defer g.mu.Unlock()
	return AdmissionStats{
		MaxInflight: g.max,
		Inflight:    g.inflight,
		QueueDepth:  len(g.queue),
		Rejections:  g.rejections,
	}
}

// admit is acquire on the DB's gate under an "admission" span of root.
func (d *DB) admit(ctx context.Context, weight int64, root *obs.Span) (func(), error) {
	as := childSpan(root, "admission")
	defer endSpan(as)
	return d.adm.acquire(ctx, weight)
}

// acquire admits weight units, queueing when the gate is at its limit. It
// returns a release closure exactly when err is nil.
func (g *admission) acquire(ctx context.Context, weight int64) (func(), error) {
	g.mu.Lock()
	if g.max <= 0 || (len(g.queue) == 0 && g.inflight+weight <= g.max) {
		g.inflight += weight
		obsAdmInflight.Set(g.inflight)
		g.mu.Unlock()
		obsAdmWaitNanos.Observe(0)
		return func() { g.release(weight) }, nil
	}
	w := &admWaiter{weight: weight, ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	obsAdmQueueDepth.Set(int64(len(g.queue)))
	timeout := g.timeout
	if timeout <= 0 {
		timeout = defaultAdmissionTimeout
	}
	g.mu.Unlock()

	sw := obs.Start()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ready:
		obsAdmWaitNanos.Observe(sw.ElapsedNanos())
		return func() { g.release(weight) }, nil
	case <-timer.C:
		if g.cancelWaiter(w, true) {
			obsAdmWaitNanos.Observe(sw.ElapsedNanos())
			obsAdmRejections.Inc()
			return nil, ErrOverloaded
		}
		// Admitted while timing out; the admit already counted our weight.
		<-w.ready
		obsAdmWaitNanos.Observe(sw.ElapsedNanos())
		return func() { g.release(weight) }, nil
	case <-ctx.Done():
		if g.cancelWaiter(w, false) {
			return nil, ctx.Err()
		}
		<-w.ready
		obsAdmWaitNanos.Observe(sw.ElapsedNanos())
		return func() { g.release(weight) }, nil
	}
}

// cancelWaiter removes w from the queue; false means w was already admitted
// (its ready channel is closed or about to be). Removing a waiter can
// unblock the ones behind it, so admission re-runs.
func (g *admission) cancelWaiter(w *admWaiter, rejected bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			if rejected {
				g.rejections++
			}
			g.admitLocked()
			return true
		}
	}
	return false
}

func (g *admission) release(weight int64) {
	g.mu.Lock()
	g.inflight -= weight
	g.admitLocked()
	obsAdmInflight.Set(g.inflight)
	g.mu.Unlock()
}

// admitLocked admits queued waiters in FIFO order while capacity lasts
// (all of them when the gate is disabled). Callers hold g.mu.
func (g *admission) admitLocked() {
	for len(g.queue) > 0 && (g.max <= 0 || g.inflight+g.queue[0].weight <= g.max) {
		w := g.queue[0]
		g.queue = g.queue[1:]
		g.inflight += w.weight
		close(w.ready)
	}
	obsAdmQueueDepth.Set(int64(len(g.queue)))
	obsAdmInflight.Set(g.inflight)
}
