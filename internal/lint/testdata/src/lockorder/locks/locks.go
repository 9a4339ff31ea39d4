// Package locks exercises the lockorder analyzer against the fixture
// DESIGN.md table. Every test case uses its own disjoint pair of mutexes so
// a deliberate ordering violation does not double as a cycle.
package locks // want "lock-free table names locks.Server.goneReadPath, which package locks does not declare" // want "lock-order table ranks locks.Server.retired, which package locks never acquires"

import "sync"

type Server struct {
	mu      sync.Mutex
	statsMu sync.Mutex
	logMu   sync.Mutex
	c       sync.Mutex
	d       sync.Mutex
	x       sync.Mutex
	y       sync.Mutex
	p       sync.Mutex
	q       sync.Mutex
}

// Legal: acquiring statsMu (rank 2) while holding mu (rank 1), with the
// deferred unlock keeping mu held to the end.
func (s *Server) legalNested() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statsMu.Lock()
	s.statsMu.Unlock()
}

// Violation: acquiring c (rank 3) while holding d (rank 4).
func (s *Server) inverted() {
	s.d.Lock()
	s.c.Lock() // want "violates the documented lock order"
	s.c.Unlock()
	s.d.Unlock()
}

// Undocumented: logMu is not ranked, so the edge mu -> logMu must be added
// to the table before it is legal.
func (s *Server) undocumented() {
	s.mu.Lock()
	s.logMu.Lock() // want "undocumented lock-order edge"
	s.logMu.Unlock()
	s.mu.Unlock()
}

// Legal: statsMu is released before mu is acquired — sequential use, no
// ordering edge.
func (s *Server) sequential() {
	s.statsMu.Lock()
	s.statsMu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}

func (s *Server) lockMu() {
	s.mu.Lock()
	s.mu.Unlock()
}

func (s *Server) lockY() {
	s.y.Lock()
	s.y.Unlock()
}

func (s *Server) lockP() {
	s.p.Lock()
	s.p.Unlock()
}

// Legal interprocedural: calling lockY (acquires y, rank 6) while holding
// x (rank 5) — the summary edge x -> y agrees with the table.
func (s *Server) legalViaCallee() {
	s.x.Lock()
	s.lockY()
	s.x.Unlock()
}

// Interprocedural violation: lockP acquires p (rank 7) while the caller
// holds q (rank 8); the edge is reported at the call site.
func (s *Server) invertedViaCallee() {
	s.q.Lock()
	s.lockP() // want "violates the documented lock order"
	s.q.Unlock()
}

// Legal: a spawned goroutine does not inherit the parent's held set, so
// the would-be edge x -> mu is not recorded.
func (s *Server) spawnsWhileHeld() {
	s.x.Lock()
	go s.lockMu()
	s.x.Unlock()
}

// Legal: a function literal's acquisitions happen when it runs, not where
// it is written — no y -> mu edge from the closure body.
func (s *Server) literalWhileHeld() func() {
	s.y.Lock()
	f := func() { s.lockMu() }
	s.y.Unlock()
	return f
}

// Lock-free table, kept: readPath takes statsMu (not the class it is barred
// from), spawns a goroutine that takes mu and builds a closure that does —
// neither runs on its own control flow.
func (s *Server) readPath() func() {
	s.statsMu.Lock()
	s.statsMu.Unlock()
	go s.lockMu()
	return func() { s.lockMu() }
}

// Lock-free table, broken two calls down.
func (s *Server) leakyReadPath() { // want "locks.Server.leakyReadPath must not acquire locks.Server.mu .* reaches it through locks.Server.viaLockMu"
	s.viaLockMu()
}

func (s *Server) viaLockMu() { s.lockMu() }

// Lock-free table, broken in place.
func (s *Server) lockingReadPath() { // want "locks.Server.lockingReadPath must not acquire locks.Server.mu .* locks it itself"
	s.mu.Lock()
	s.mu.Unlock()
}

// Lock-free table, a plain function that keeps to it.
func freeFunc(s *Server) { s.lockY() }
