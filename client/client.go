package client

import (
	"context"
	"time"
)

// Options tunes a client DB. The zero value gets sensible defaults.
type Options struct {
	// PoolSize caps live connections. Default 4.
	PoolSize int
	// DialTimeout bounds connect + handshake (and checkout pings). Default 5s.
	DialTimeout time.Duration
	// IdlePingAfter makes checkout ping a connection that sat idle longer
	// than this before handing it out. Default 1s; negative disables.
	IdlePingAfter time.Duration
	// ClientName is reported to the server in the handshake. Default
	// "client".
	ClientName string
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.IdlePingAfter == 0 {
		o.IdlePingAfter = time.Second
	}
	if o.ClientName == "" {
		o.ClientName = "client"
	}
	return o
}

// DB is the pooled facade over one mctserved address, mirroring
// colorful.DB's Query/Prepare surface. Safe for concurrent use.
type DB struct {
	pool *Pool
}

// Open connects to addr with default options and validates the address
// with one dial + ping. The DB must be Closed.
func Open(addr string) (*DB, error) { return OpenOptions(addr, Options{}) }

// OpenOptions is Open with explicit tuning.
func OpenOptions(addr string, opt Options) (*DB, error) {
	opt = opt.withDefaults()
	db := &DB{pool: newPool(addr, opt)}
	ctx, cancel := context.WithTimeout(context.Background(), opt.DialTimeout)
	defer cancel()
	c, err := db.pool.Get(ctx)
	if err != nil {
		db.pool.Close()
		return nil, err
	}
	pingErr := c.Ping(ctx)
	c.Release()
	if pingErr != nil {
		db.pool.Close()
		return nil, pingErr
	}
	return db, nil
}

// Close shuts the pool down. In-flight calls fail or complete; their
// connections are destroyed on return.
func (db *DB) Close() error {
	db.pool.Close()
	return nil
}

// Pool exposes the underlying pool (for direct Get/Release control).
func (db *DB) Pool() *Pool { return db.pool }

// do runs fn on a checked-out connection and releases it. A failure is
// returned as-is; nothing is retried.
func (db *DB) do(ctx context.Context, fn func(c *Conn) error) error {
	c, err := db.pool.Get(ctx)
	if err != nil {
		return err
	}
	defer c.Release()
	return fn(c)
}

// Query runs a one-shot query with no deadline.
func (db *DB) Query(src string) ([]Item, error) {
	return db.QueryContext(context.Background(), src)
}

// QueryContext runs a one-shot query; the context deadline rides to the
// server as the request's execution budget.
func (db *DB) QueryContext(ctx context.Context, src string) ([]Item, error) {
	var out []Item
	err := db.do(ctx, func(c *Conn) error {
		items, err := c.Query(ctx, src)
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

// Update applies a mutation batch.
func (db *DB) Update(src string) (UpdateResult, error) {
	return db.UpdateContext(context.Background(), src)
}

// UpdateContext applies a mutation batch with a deadline.
func (db *DB) UpdateContext(ctx context.Context, src string) (UpdateResult, error) {
	var out UpdateResult
	err := db.do(ctx, func(c *Conn) error {
		res, err := c.Update(ctx, src)
		if err != nil {
			return err
		}
		out = res
		return nil
	})
	return out, err
}

// Ping verifies the server answers.
func (db *DB) Ping(ctx context.Context) error {
	return db.do(ctx, func(c *Conn) error { return c.Ping(ctx) })
}

// Health fetches the server database's health state.
func (db *DB) Health(ctx context.Context) (HealthInfo, error) {
	var out HealthInfo
	err := db.do(ctx, func(c *Conn) error {
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		out = h
		return nil
	})
	return out, err
}

// ServerStats fetches the server's serving snapshot.
func (db *DB) ServerStats(ctx context.Context) (ServerStats, error) {
	var out ServerStats
	err := db.do(ctx, func(c *Conn) error {
		s, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		out = s
		return nil
	})
	return out, err
}
