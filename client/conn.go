package client

import (
	"context"
	"fmt"
	"net"
	"time"

	"colorfulxml/colorful"
	"colorfulxml/internal/wire"
)

// Item is one query result: the node's stable ID (0 for atomic values),
// the color it was selected under, and its text value. It is the wire's own
// item, so a result decodes straight into the slice the caller receives.
type Item = wire.Item

// UpdateResult mirrors colorful.UpdateResult.
type UpdateResult struct {
	Tuples       int
	NodesTouched int
}

// HealthInfo is the server database's health, fetched over the wire.
type HealthInfo struct {
	State    colorful.Health
	Cause    string
	Degrades uint64
	Heals    uint64
}

// ServerStats is the server's point-in-time snapshot.
type ServerStats struct {
	Connections uint64
	Open        uint64
	Requests    uint64
	Responses   uint64
	Errors      uint64
	StmtsOpen   uint64
	Draining    bool
}

// Conn is one protocol connection. A Conn is owned by a single goroutine
// between checkout and Release/Close; it is not safe for concurrent use.
type Conn struct {
	pool *Pool // nil when raw-dialed
	nc   net.Conn
	r    *wire.Reader
	w    *wire.Writer

	// handles caches server-side prepared-statement handles by query text,
	// prepared the same texts oldest first; they die with the connection.
	handles  map[string]uint64
	prepared []string
	lastUsed time.Time
	broken   bool
}

// Dial opens a raw (unpooled) connection and performs the handshake. Most
// callers want Open instead; Dial is the escape hatch for single-connection
// tools. The caller must Close it.
func Dial(addr string, opt Options) (*Conn, error) {
	opt = opt.withDefaults()
	nc, err := net.DialTimeout("tcp", addr, opt.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	c := &Conn{
		nc:      nc,
		r:       wire.NewReader(nc),
		w:       wire.NewWriter(nc),
		handles: map[string]uint64{},
	}
	nc.SetDeadline(time.Now().Add(opt.DialTimeout)) //nolint:errcheck // net.Conn deadlines do not fail
	if err := c.handshake(opt.ClientName); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{}) //nolint:errcheck // net.Conn deadlines do not fail
	c.lastUsed = time.Now()
	return c, nil
}

func (c *Conn) handshake(clientName string) error {
	hello := wire.Hello{Proto: wire.ProtoVersion, Client: clientName}
	if err := c.w.WriteFrame(wire.TypeHello, hello.Encode()); err != nil {
		return fmt.Errorf("client: handshake write: %w", err)
	}
	typ, payload, err := c.r.ReadFrame()
	if err != nil {
		return fmt.Errorf("client: handshake read: %w", err)
	}
	switch typ {
	case wire.TypeWelcome:
		welcome, err := wire.DecodeWelcome(payload)
		if err != nil {
			return err
		}
		if welcome.Proto != wire.ProtoVersion {
			return fmt.Errorf("client: server speaks protocol %d, want %d", welcome.Proto, wire.ProtoVersion)
		}
		return nil
	case wire.TypeError:
		return asServerError(payload)
	default:
		return fmt.Errorf("client: handshake: unexpected frame %v", typ)
	}
}

// Release returns a pooled connection for reuse (or destroys it if it
// broke). For a raw-dialed connection it is equivalent to Close.
func (c *Conn) Release() {
	if c.pool == nil {
		c.nc.Close()
		return
	}
	c.pool.put(c)
}

// Close destroys the connection. For pooled connections this frees the
// pool slot; use Release to return a healthy connection instead.
func (c *Conn) Close() error {
	c.broken = true
	if c.pool == nil {
		return c.nc.Close()
	}
	c.pool.put(c)
	return nil
}

func asServerError(payload []byte) error {
	em, err := wire.DecodeError(payload)
	if err != nil {
		return err
	}
	return &ServerError{Code: em.Code, Msg: em.Msg}
}

// arm applies the context deadline (if any) to the socket for the next
// write+read pair.
func (c *Conn) arm(ctx context.Context) {
	if d, ok := ctx.Deadline(); ok {
		c.nc.SetDeadline(d) //nolint:errcheck // net.Conn deadlines do not fail
	} else {
		c.nc.SetDeadline(time.Time{}) //nolint:errcheck // net.Conn deadlines do not fail
	}
}

// deadlineMillis converts the context deadline into the request's
// remaining-budget field (0 = none).
func deadlineMillis(ctx context.Context) uint64 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(d).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return uint64(ms)
}

// roundTrip sends one request frame and reads one response frame. A
// transport fault or a Drain notice marks the connection broken.
func (c *Conn) roundTrip(ctx context.Context, typ wire.Type, payload []byte) (wire.Type, []byte, error) {
	if c.broken {
		return 0, nil, errConnBroken
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	c.arm(ctx)
	if err := c.w.WriteFrame(typ, payload); err != nil {
		c.broken = true
		return 0, nil, fmt.Errorf("client: write %v: %w", typ, err)
	}
	return c.readFrame()
}

// readFrame reads one response frame, turning Drain notices into
// ErrDraining.
func (c *Conn) readFrame() (wire.Type, []byte, error) {
	typ, payload, err := c.r.ReadFrame()
	if err != nil {
		c.broken = true
		return 0, nil, fmt.Errorf("client: read: %w", err)
	}
	if typ == wire.TypeDrain {
		c.broken = true
		d, derr := wire.DecodeDrain(payload)
		if derr != nil {
			return 0, nil, fmt.Errorf("client: %w", ErrDraining)
		}
		return 0, nil, fmt.Errorf("client: %w: %s", ErrDraining, d.Reason)
	}
	return typ, payload, nil
}

// expect narrows a response frame to the wanted type, decoding typed Error
// responses.
func expect(want, typ wire.Type, payload []byte) ([]byte, error) {
	if typ == wire.TypeError {
		return nil, asServerError(payload)
	}
	if typ != want {
		return nil, fmt.Errorf("client: unexpected response %v, want %v", typ, want)
	}
	return payload, nil
}

// Query runs a one-shot query and collects the streamed result.
func (c *Conn) Query(ctx context.Context, src string) ([]Item, error) {
	req := wire.Query{Src: src, DeadlineMillis: deadlineMillis(ctx)}
	return c.items(ctx, wire.TypeQuery, req.Encode())
}

// items sends a Query or Execute and collects its Items stream into one
// slice, sized on the first frame from the stream's row count.
func (c *Conn) items(ctx context.Context, typ wire.Type, req []byte) ([]Item, error) {
	typ, payload, err := c.roundTrip(ctx, typ, req)
	if err != nil {
		return nil, err
	}
	var out []Item
	for {
		p, err := expect(wire.TypeItems, typ, payload)
		if err != nil {
			return nil, err
		}
		chunk, err := wire.AppendItems(out, p)
		if err != nil {
			c.broken = true
			return nil, err
		}
		if out = chunk.Items; !chunk.More {
			return out, nil
		}
		typ, payload, err = c.readFrame()
		if err != nil {
			return nil, err
		}
	}
}

// maxHandles bounds the statements a connection keeps prepared, below the
// 1 024 the server lets one connection hold.
const maxHandles = 1000

// prepare returns the connection's server-side handle for src, preparing
// it on first use. A connection that holds maxHandles statements first
// closes the oldest, and forgets it whatever the server answers.
func (c *Conn) prepare(ctx context.Context, src string) (uint64, error) {
	if h, ok := c.handles[src]; ok {
		return h, nil
	}
	if len(c.prepared) >= maxHandles {
		h := c.handles[c.prepared[0]]
		delete(c.handles, c.prepared[0])
		c.prepared = c.prepared[1:]
		typ, payload, err := c.roundTrip(ctx, wire.TypeCloseStmt, wire.CloseStmt{Stmt: h}.Encode())
		if err == nil {
			_, err = expect(wire.TypeAck, typ, payload)
		}
		if err != nil {
			return 0, err
		}
	}
	typ, payload, err := c.roundTrip(ctx, wire.TypePrepare, wire.Prepare{Src: src}.Encode())
	if err != nil {
		return 0, err
	}
	p, err := expect(wire.TypePrepared, typ, payload)
	if err != nil {
		return 0, err
	}
	prepared, err := wire.DecodePrepared(p)
	if err != nil {
		c.broken = true
		return 0, err
	}
	c.handles[src] = prepared.Stmt
	c.prepared = append(c.prepared, src)
	return prepared.Stmt, nil
}

// execStmt prepares (cached) and executes: one round trip once warm.
func (c *Conn) execStmt(ctx context.Context, src string) ([]Item, error) {
	h, err := c.prepare(ctx, src)
	if err != nil {
		return nil, err
	}
	req := wire.Execute{Stmt: h, DeadlineMillis: deadlineMillis(ctx)}
	return c.items(ctx, wire.TypeExecute, req.Encode())
}

// Update applies a mutation batch.
func (c *Conn) Update(ctx context.Context, src string) (UpdateResult, error) {
	req := wire.Update{Src: src, DeadlineMillis: deadlineMillis(ctx)}
	typ, payload, err := c.roundTrip(ctx, wire.TypeUpdate, req.Encode())
	if err != nil {
		return UpdateResult{}, err
	}
	p, err := expect(wire.TypeUpdated, typ, payload)
	if err != nil {
		return UpdateResult{}, err
	}
	u, err := wire.DecodeUpdated(p)
	if err != nil {
		c.broken = true
		return UpdateResult{}, err
	}
	return UpdateResult{Tuples: int(u.Tuples), NodesTouched: int(u.NodesTouched)}, nil
}

// Ping round-trips a no-op frame.
func (c *Conn) Ping(ctx context.Context) error {
	typ, payload, err := c.roundTrip(ctx, wire.TypePing, nil)
	if err != nil {
		return err
	}
	_, err = expect(wire.TypePong, typ, payload)
	return err
}

// Health fetches the server database's health state.
func (c *Conn) Health(ctx context.Context) (HealthInfo, error) {
	typ, payload, err := c.roundTrip(ctx, wire.TypeHealth, nil)
	if err != nil {
		return HealthInfo{}, err
	}
	p, err := expect(wire.TypeHealthInfo, typ, payload)
	if err != nil {
		return HealthInfo{}, err
	}
	h, err := wire.DecodeHealthInfo(p)
	if err != nil {
		c.broken = true
		return HealthInfo{}, err
	}
	return HealthInfo{State: colorful.Health(h.State), Cause: h.Cause, Degrades: h.Degrades, Heals: h.Heals}, nil
}

// Stats fetches the server's serving snapshot.
func (c *Conn) Stats(ctx context.Context) (ServerStats, error) {
	typ, payload, err := c.roundTrip(ctx, wire.TypeStats, nil)
	if err != nil {
		return ServerStats{}, err
	}
	p, err := expect(wire.TypeStatsInfo, typ, payload)
	if err != nil {
		return ServerStats{}, err
	}
	s, err := wire.DecodeStatsInfo(p)
	if err != nil {
		c.broken = true
		return ServerStats{}, err
	}
	return ServerStats{
		Connections: s.Connections,
		Open:        s.Open,
		Requests:    s.Requests,
		Responses:   s.Responses,
		Errors:      s.Errors,
		StmtsOpen:   s.StmtsOpen,
		Draining:    s.Draining,
	}, nil
}
