// Package server implements mctserved's serving core: a TCP listener
// speaking the internal/wire protocol, one colorful.Session per connection,
// and a graceful drain that never drops an in-flight request it has read.
//
// Concurrency shape: one goroutine per connection, owned end to end — a
// connection's session and statement handles are touched only by its
// handler goroutine, so the only shared state is the connection
// registry (a leaf mutex) and per-connection atomic counters. Shutdown
// closes the listener, wakes every blocked read via a past read deadline,
// lets each handler finish the request it already read, and waits for the
// handlers through the tracking WaitGroup.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"colorfulxml/colorful"
)

// Options tunes a Server. The zero value serves with defaults.
type Options struct {
	// Name is reported in the Welcome handshake and defaults to "mctserved".
	Name string
	// ChunkItems caps items per Items frame of a result stream. Default
	// 1024.
	ChunkItems int
	// DrainTimeout bounds Shutdown when its context has no deadline:
	// connections still busy after this long are closed hard. Default 10s.
	DrainTimeout time.Duration
	// Logf receives serving events (accepts, drains, protocol errors). Nil
	// disables logging.
	Logf func(format string, args ...any)
}

const (
	defaultChunkItems   = 1024
	defaultDrainTimeout = 10 * time.Second
	// defaultHandshakeTimeout bounds how long a fresh connection may take
	// to send Hello.
	defaultHandshakeTimeout = 10 * time.Second
)

// Server serves one colorful.DB over the wire protocol. Create with New,
// run with Serve, stop with Shutdown. The Server does not own the DB: the
// caller closes it after Shutdown returns.
type Server struct {
	db   *colorful.DB
	opts Options

	ln       net.Listener
	stopCh   chan struct{}
	stopOnce sync.Once
	draining atomic.Bool
	wg       sync.WaitGroup

	// mu guards conns. It is a leaf lock: nothing else is acquired while it
	// is held.
	mu    sync.Mutex
	conns map[*conn]struct{}

	accepted  atomic.Uint64
	requests  atomic.Uint64
	responses atomic.Uint64
	errorResp atomic.Uint64
}

// Stats is a point-in-time view of one Server, also served over the wire
// as StatsInfo.
type Stats struct {
	Connections uint64 // accepted since start
	Open        int    // currently open
	Requests    uint64 // post-handshake requests fully read
	// Responses counts the responses fully written for them, each once its
	// write has returned: Requests - Responses is the requests being answered
	// right now, at most one per open connection, and zero after a drain.
	Responses uint64
	Errors    uint64 // Error responses among those
	StmtsOpen int
	Draining  bool
}

// New returns an unstarted server for db.
func New(db *colorful.DB, opts Options) *Server {
	if opts.Name == "" {
		opts.Name = "mctserved"
	}
	if opts.ChunkItems <= 0 {
		opts.ChunkItems = defaultChunkItems
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = defaultDrainTimeout
	}
	return &Server{
		db:     db,
		opts:   opts,
		stopCh: make(chan struct{}),
		conns:  map[*conn]struct{}{},
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Addr returns the listen address once Serve has been called (useful with
// ":0").
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// drain (including every connection handler having exited), or the accept
// error that stopped it.
func (s *Server) Serve(ln net.Listener) error {
	s.ln = ln
	s.logf("serving on %s", ln.Addr())
	for {
		select {
		case <-s.stopCh:
			s.wg.Wait()
			return nil
		default:
		}
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				s.wg.Wait()
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.accepted.Add(1)
		obsConnsTotal.Inc()
		c := newConn(s, nc)
		if !s.register(c) {
			// Raced with Shutdown: refuse politely.
			nc.Close()
			continue
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) serveConn(c *conn) {
	defer s.wg.Done()
	defer s.unregister(c)
	obsConnsOpen.Add(1)
	defer obsConnsOpen.Add(-1)
	c.run()
}

// register adds c to the registry; it refuses when draining so Shutdown
// cannot miss a connection accepted concurrently with it.
func (s *Server) register(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) snapshotConns() []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	return out
}

// Shutdown drains the server: stop accepting, wake every blocked read, let
// each handler finish and acknowledge the request it is on, then wait for
// all handlers. Connections still busy when ctx expires (or after
// DrainTimeout if ctx has no deadline) are closed hard; Shutdown reports
// how many. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		close(s.stopCh)
		obsDrains.Inc()
	})
	if s.ln != nil {
		s.ln.Close()
	}
	for _, c := range s.snapshotConns() {
		c.wake()
	}
	deadline := time.Now().Add(s.opts.DrainTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	forced := 0
	for {
		open := len(s.snapshotConns())
		if open == 0 {
			break
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			for _, c := range s.snapshotConns() {
				c.nc.Close()
				forced++
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.wg.Wait()
	s.logf("drain complete (%d connections closed hard)", forced)
	if forced > 0 {
		return fmt.Errorf("server: drain timed out: %d connections closed hard", forced)
	}
	return nil
}

// Stats returns a point-in-time snapshot.
func (s *Server) Stats() Stats {
	st := Stats{
		Connections: s.accepted.Load(),
		Requests:    s.requests.Load(),
		Responses:   s.responses.Load(),
		Errors:      s.errorResp.Load(),
		Draining:    s.draining.Load(),
	}
	for _, c := range s.snapshotConns() {
		st.Open++
		st.StmtsOpen += int(c.stmtsOpen.Load())
	}
	return st
}

// isDeadlineErr reports whether a read failed because of the drain wake-up
// (or any read deadline), as opposed to a peer disconnect.
func isDeadlineErr(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
