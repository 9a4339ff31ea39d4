package client

import (
	"context"
	"sync/atomic"
)

// Stmt is a prepared statement over the pool. The statement text is
// prepared lazily on each connection that executes it (server-side handles
// are connection-scoped) and cached there, so repeated executions across
// the pool all hit the server's prepared path. Close after use.
type Stmt struct {
	db     *DB
	src    string
	closed atomic.Bool
}

// Prepare validates src by preparing it on one connection and returns a
// pool-wide statement.
func (db *DB) Prepare(src string) (*Stmt, error) {
	ctx := context.Background()
	err := db.do(ctx, func(c *Conn) error {
		_, err := c.prepare(ctx, src)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, src: src}, nil
}

// Text returns the statement's source text.
func (st *Stmt) Text() string { return st.src }

// Query executes the statement with no deadline.
func (st *Stmt) Query() ([]Item, error) {
	return st.QueryContext(context.Background())
}

// QueryContext executes the statement and collects its streamed result.
func (st *Stmt) QueryContext(ctx context.Context) ([]Item, error) {
	if st.closed.Load() {
		return nil, ErrClosed
	}
	var out []Item
	err := st.db.do(ctx, func(c *Conn) error {
		items, err := c.execStmt(ctx, st.src)
		if err != nil {
			return err
		}
		out = items
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close retires the statement. Server-side handles are connection-scoped
// and are freed with their connections; Close only fences further use.
func (st *Stmt) Close() error {
	st.closed.Store(true)
	return nil
}
