// Package app exercises the sessionclose analyzer from a client package:
// conforming lifecycles, outright discards, and paths that leak an open
// Session or Stmt.
package app

import "sessionclosefix/colorful"

// Deferred Close covers every exit: conforming.
func deferred(db *colorful.DB) error {
	s := db.Session()
	defer s.Close()
	return s.Query("q")
}

// The idiomatic prepared-statement shape: the err-nil guard is the failure
// path (nothing to close there), the success path defers Close.
func prepared(db *colorful.DB, q string) error {
	s := db.Session()
	defer s.Close()
	st, err := s.Prepare(q)
	if err != nil {
		return err
	}
	defer st.Close()
	return st.Run()
}

// Explicit Close on every branch: conforming.
func branches(db *colorful.DB, fast bool) error {
	s := db.Session()
	if fast {
		err := s.Query("fast")
		s.Close()
		return err
	}
	err := s.Query("slow")
	s.Close()
	return err
}

// Ownership transfers: returned, passed on, stored, captured.
func handsOff(db *colorful.DB, sink func(*colorful.Session), cleanup func(func())) *colorful.Session {
	a := db.Session()
	sink(a) // the callee owns it now
	b := db.Session()
	cleanup(func() { b.Close() }) // captured by the closure that closes it
	return db.Session()           // the caller owns it now
}

// An unbound call can never be closed.
func discarded(db *colorful.DB) {
	db.Session() // want "result of Session is discarded"
}

// Blank assignment: same.
func blanked(db *colorful.DB) {
	_ = db.Session() // want "assigned to the blank identifier"
}

// A method chained off the fresh value leaves nothing to close.
func chained(db *colorful.DB) error {
	return db.Session().Query("q") // want "not bound to a variable"
}

// No Close on any path: flagged at the end of the function.
func leaked(db *colorful.DB) error {
	s := db.Session()
	return s.Query("q") // want "return leaks s while it is still open"
}

// Closed on one branch, leaked on the other.
func halfClosed(db *colorful.DB, fast bool) error {
	s := db.Session()
	if fast {
		err := s.Query("fast")
		s.Close()
		return err
	}
	return s.Query("slow") // want "return leaks s while it is still open"
}

// An early return between Session and Close skips the Close.
func earlyReturn(db *colorful.DB, skip bool) error {
	s := db.Session()
	if skip {
		return nil // want "return leaks s while it is still open"
	}
	err := s.Query("q")
	s.Close()
	return err
}

// Reassigning in a loop abandons the previous iteration's session.
func loopReassign(db *colorful.DB, n int) {
	var s *colorful.Session
	for i := 0; i < n; i++ {
		s = db.Session() // want "reassigned while still open"
		_ = s.Query("q")
	}
	if s != nil {
		s.Close()
	}
}

// Opening per iteration and closing per iteration is fine.
func loopScoped(db *colorful.DB, n int) {
	for i := 0; i < n; i++ {
		s := db.Session()
		_ = s.Query("q")
		s.Close()
	}
}

// A session opened inside a goroutine body must close on that body's paths.
func inGoroutine(db *colorful.DB, done chan error) {
	go func() {
		s := db.Session()
		done <- s.Query("q")
	}() // want "s can reach the end of the function still open"
	go func() {
		s := db.Session()
		defer s.Close()
		done <- s.Query("q")
	}()
}

// A prepared statement that never reaches Close, even though the session is
// handled: the Stmt leak is flagged at the end of the body.
func stmtLeak(db *colorful.DB, q string) error {
	s := db.Session()
	defer s.Close()
	st, err := s.Prepare(q)
	if err != nil {
		return err
	}
	return st.Run() // want "return leaks st while it is still open"
}

// err == nil inverts which branch owns the statement.
func invertedGuard(db *colorful.DB, q string) error {
	s := db.Session()
	defer s.Close()
	if st, err := s.Prepare(q); err == nil {
		defer st.Close()
		return st.Run()
	}
	return nil
}

// A break out of the loop skips the Close.
func breakLeak(db *colorful.DB, qs []string) {
	for _, q := range qs {
		s := db.Session()
		if s.Query(q) != nil {
			break
		}
		s.Close()
	}
} // want "s can reach the end of the function still open"

// A continue skips the Close, so the next iteration opens over a live one.
func continueLeak(db *colorful.DB, qs []string) {
	for _, q := range qs {
		s := db.Session() // want "s is reassigned while still open"
		if q == "" {
			continue
		}
		_ = s.Query(q)
		s.Close()
	}
} // want "s can reach the end of the function still open"

// A labeled break leaves both loops before the Close.
func labeledBreakLeak(db *colorful.DB, batches [][]string) {
outer:
	for _, qs := range batches {
		s := db.Session()
		for _, q := range qs {
			if s.Query(q) != nil {
				break outer
			}
		}
		s.Close()
	}
} // want "s can reach the end of the function still open"

// A select without default runs one of its cases, and every case closes:
// conforming.
func selectCloses(db *colorful.DB, a, b chan int) {
	s := db.Session()
	select {
	case <-a:
		s.Close()
	case <-b:
		s.Close()
	}
}
